//! Optimistic short circuiting (paper §4.3.2, Figure 4).
//!
//! Token weights vary a lot (that is the whole point of IDF weighting), so
//! the heaviest few q-grams often determine the winner. OSC therefore
//! processes signature coordinates in **decreasing weight order** and,
//! after each tid-list, runs a two-stage gate:
//!
//! * **fetching test** — linearly extrapolate the current K-th best score
//!   over the weight still to come; if even the extrapolation beats the
//!   (K+1)-th candidate's *best possible* final score, optimistically fetch
//!   the current top K reference tuples;
//! * **stopping test** — compute their exact `fms`; if every one of them is
//!   at least the best possible final (normalized) score of any other
//!   tuple, the answer is provably final (w.h.p.) and the remaining — by
//!   construction lighter and higher-frequency, hence more expensive —
//!   coordinates are never looked up.
//!
//! A failed stopping test costs only the (cached) fms evaluations; the
//! algorithm keeps processing coordinates and falls back to the basic
//! verification phase after the last one.

use crate::error::Result;
use crate::metrics::LookupTrace;
use crate::query::{
    insert_match, plan_query, probe_into, verify_candidates, with_scratch, Probed, QueryContext,
    ReferenceFetch, ScoredMatch, Scratch, TidScores,
};
use crate::record::TokenizedRecord;
use crate::sim::Similarity;
use crate::weights::WeightProvider;

/// Answer a K-fuzzy-match query with optimistic short circuiting, in a
/// reusable scratch from the pool.
pub fn osc_lookup<W, F>(
    ctx: &QueryContext<'_, W, F>,
    input: &TokenizedRecord,
    k: usize,
    c: f64,
) -> Result<(Vec<ScoredMatch>, LookupTrace)>
where
    W: WeightProvider + ?Sized,
    F: ReferenceFetch + ?Sized,
{
    with_scratch(|scratch| osc_run(ctx, input, k, c, scratch))
}

/// [`osc_lookup`] in a caller-supplied scratch (whatever a previous query
/// left in it is discarded).
pub(crate) fn osc_run<W, F, T>(
    ctx: &QueryContext<'_, W, F>,
    input: &TokenizedRecord,
    k: usize,
    c: f64,
    scratch: &mut Scratch<T>,
) -> Result<(Vec<ScoredMatch>, LookupTrace)>
where
    W: WeightProvider + ?Sized,
    F: ReferenceFetch + ?Sized,
    T: TidScores,
{
    let mut trace = LookupTrace::default();
    if k == 0 {
        return Ok((Vec::new(), trace));
    }
    let plan_span = crate::tracing::span("plan");
    let mut plan = plan_query(input, ctx.config, ctx.weights, ctx.minhasher);
    if plan.wu == 0.0 {
        return Ok((Vec::new(), trace));
    }
    // Step 3.1: decreasing weight order; ties broken deterministically.
    plan.grams.sort_by(|a, b| {
        b.weight
            .total_cmp(&a.weight)
            .then_with(|| a.unit().cmp(&b.unit()))
    });
    drop(plan_span);
    let Scratch {
        table,
        key,
        fms_cache,
    } = scratch;
    table.begin(k);
    fms_cache.clear();

    let threshold = c * plan.wu;
    let total: f64 = plan.grams.iter().map(|g| g.weight).sum();
    let mut remaining = total; // w(Q_p) − w(Q_i)
    let mut processed_scored = 0.0; // weight of non-stop coordinates processed
    let mut stop_credit = 0.0;
    let mut sim = Similarity::new(ctx.weights, ctx.config);
    let prepared = sim.prepare(input);

    let n_grams = plan.grams.len();
    let probe_span = crate::tracing::span("probe");
    for (i, gram) in plan.grams.iter().enumerate() {
        let admit_new = !ctx.config.insert_pruning || remaining + plan.adjustment >= threshold;
        match probe_into(ctx.eti, gram, key, table, admit_new, &mut trace)? {
            Probed::Missing => {}
            Probed::Stop => stop_credit += gram.weight,
            Probed::List { .. } => processed_scored += gram.weight,
        }
        remaining -= gram.weight;

        // Step 8.1: the short-circuit procedure — pointless after the last
        // coordinate (the fallback handles that) or before anything scored.
        if i + 1 == n_grams || processed_scored <= 0.0 {
            continue;
        }
        let _gate_span = crate::tracing::span("osc_gate");
        // The table keeps its best K+1 current, so the gate is a read.
        let tops = table.top();
        if tops.len() < k {
            continue; // fewer than K candidates so far
        }
        // Raw scores, with stop-row weight credited (those lists were
        // never scored, so a candidate may own them in full).
        let ss_k = tops[k - 1].1 + stop_credit;
        let ss_k1 = tops.get(k).map_or(0.0, |e| e.1) + stop_credit;
        // Fetching test: extrapolated K-th score vs best possible (K+1)-th.
        // (processed_scored + stop_credit + remaining == total.)
        // When every current top-K candidate has already been fetched (a
        // failed earlier attempt), re-running the stopping test is free —
        // the fetching test only gates *new* reference fetches.
        let estimated = ss_k / (processed_scored + stop_credit) * total;
        let best_next = ss_k1 + remaining;
        let all_cached = tops[..k].iter().all(|(tid, _)| fms_cache.contains_key(tid));
        if estimated <= best_next && !all_cached {
            continue;
        }
        trace.osc_attempts += 1;
        let _attempt_span = crate::tracing::span("osc_round");
        // Stopping-test bound: the best possible *final score* of any tuple
        // outside the current top K is `ss_k1 + remaining`, turned into an
        // fms bound per the configured flavor (see
        // [`crate::config::OscStopping`] for why two exist).
        let bound = match ctx.config.osc_stopping {
            crate::config::OscStopping::Sound => {
                crate::query::score_bound(ss_k1 + remaining, plan.wu, plan.adjustment, ctx.config.q)
            }
            crate::config::OscStopping::PaperExample => ((ss_k1 + remaining) / plan.wu).min(1.0),
        };
        let mut verified: Vec<ScoredMatch> = Vec::with_capacity(k);
        let mut all_pass = true;
        for &(tid, _) in &tops[..k] {
            let similarity = match fms_cache.get(&tid) {
                Some(&f) => f,
                None => {
                    let row = {
                        let _span = crate::tracing::span("fetch");
                        ctx.reference.fetch(tid)?
                    };
                    trace.candidates_fetched += 1;
                    // Exact, not bounded: the value is cached for later
                    // rounds and the fallback, which compare it against
                    // bounds that do not exist yet.
                    let f = sim.fms_prepared(&prepared, &row.tokenize(ctx.tokenizer));
                    fms_cache.insert(tid, f);
                    f
                }
            };
            if similarity < bound {
                all_pass = false;
                break;
            }
            insert_match(&mut verified, ScoredMatch { tid, similarity }, k);
        }
        // Stopping test: every fetched tuple dominates anything unfetched.
        if all_pass {
            trace.osc_round = Some(i as u32);
            trace.fms_evals = sim.evaluations();
            verified.retain(|m| m.similarity >= c);
            return Ok((verified, trace));
        }
    }

    drop(probe_span);

    // Fall back to the ordered verification phase; fms evaluations done
    // during failed short circuits are reused through the cache.
    let adjustment = plan.adjustment + stop_credit;
    let matches = verify_candidates(
        ctx, &mut sim, &prepared, table, k, c, plan.wu, adjustment, fms_cache, &mut trace,
    )?;
    Ok((matches, trace))
}
