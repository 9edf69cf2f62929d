//! The basic query processing algorithm (paper §4.3.1, Figure 3).

use crate::error::Result;
use crate::metrics::LookupTrace;
use crate::query::{
    plan_query, probe_into, verify_candidates, with_scratch, Probed, QueryContext, ReferenceFetch,
    ScoredMatch, Scratch, TidScores,
};
use crate::record::TokenizedRecord;
use crate::sim::Similarity;
use crate::weights::WeightProvider;

/// Answer a K-fuzzy-match query with the basic algorithm.
///
/// Looks up **every** signature coordinate of every input token against the
/// ETI, scores tids, then fetches and verifies candidates in decreasing
/// score order. Runs in a reusable scratch from the pool.
pub fn basic_lookup<W, F>(
    ctx: &QueryContext<'_, W, F>,
    input: &TokenizedRecord,
    k: usize,
    c: f64,
) -> Result<(Vec<ScoredMatch>, LookupTrace)>
where
    W: WeightProvider + ?Sized,
    F: ReferenceFetch + ?Sized,
{
    with_scratch(|scratch| basic_run(ctx, input, k, c, scratch))
}

/// [`basic_lookup`] in a caller-supplied scratch (whatever a previous
/// query left in it is discarded).
pub(crate) fn basic_run<W, F, T>(
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
    let plan = plan_query(input, ctx.config, ctx.weights, ctx.minhasher);
    drop(plan_span);
    if plan.wu == 0.0 {
        return Ok((Vec::new(), trace));
    }
    let Scratch {
        table,
        key,
        fms_cache,
    } = scratch;
    table.begin(k);
    fms_cache.clear();

    // Step 4: the admission threshold for new tids.
    let threshold = c * plan.wu;
    let mut remaining: f64 = plan.grams.iter().map(|g| g.weight).sum();
    // Weight of stop rows we could not score: candidates must not be
    // penalized for them, so it joins the adjustment term in every bound.
    let mut stop_credit = 0.0;

    let probe_span = crate::tracing::span("probe");
    for gram in &plan.grams {
        // Step 9b: a new tid's best possible final score is the weight not
        // yet consumed (this coordinate included) — plus the adjustment
        // term, exactly as step 11's filter subtracts it: a low score does
        // not bound fms without the d_q slack.
        let admit_new = !ctx.config.insert_pruning || remaining + plan.adjustment >= threshold;
        if probe_into(ctx.eti, gram, key, table, admit_new, &mut trace)? == Probed::Stop {
            stop_credit += gram.weight;
        }
        remaining -= gram.weight;
    }
    drop(probe_span);

    let adjustment = plan.adjustment + stop_credit;
    let mut sim = Similarity::new(ctx.weights, ctx.config);
    let prepared = sim.prepare(input);
    let matches = verify_candidates(
        ctx, &mut sim, &prepared, table, k, c, plan.wu, adjustment, fms_cache, &mut trace,
    )?;
    Ok((matches, trace))
}
