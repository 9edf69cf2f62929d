//! The traced run's layer replay: the first inputs of the workload go
//! once more through each layer's public entry points, one call at a
//! time, with a span around each. Unit costs are medians of those spans;
//! per-lookup counters come from the `MatchResult.trace` of the replayed
//! K=1 lookups, a fixed set, so they repeat exactly for a seed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Bound;
use std::time::Instant;

use fm_core::eti::token_signature;
use fm_core::LookupTrace;
use fm_server::{protocol, record_to_json, Json};
use fm_store::Rid;
use fm_text::{qgram_set, Bander, EditBuffer, MinHasher, Tokenizer};

use crate::data::Data;
use crate::spans::Recorder;
use crate::spec::{Kind, Workload};
use crate::stage::{Stage, PREFIX};
use crate::stats::{median_f64, median_u64};
use crate::Res;

pub type Values = BTreeMap<&'static str, f64>;

/// Keys or rids read back per sampled object (about this many).
const STORE_SAMPLE: usize = 512;

/// Every k-th item, so that about [`STORE_SAMPLE`] evenly spaced ones remain.
fn thin<T>(all: &[T]) -> impl Iterator<Item = &T> {
    all.iter().step_by(all.len().div_ceil(STORE_SAMPLE).max(1))
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// `store.*` unit costs: point reads of keys and rids sampled by scanning
/// the persisted catalog objects (no private key format is assumed).
fn store_samples(stage: &Stage, rec: &mut Recorder, out: &mut Values) -> Res<()> {
    let err = |what: &str, e: fm_store::StoreError| format!("{what}: {e}");
    for (index, metric, span) in [
        ("tid", "store.btree_get_us", "store.btree_get"),
        ("eti", "store.btree_get_eti_us", "store.btree_get_eti"),
    ] {
        let name = format!("{PREFIX}.{index}");
        let tree = stage.db.open_index(&name).map_err(|e| err(&name, e))?;
        let mut keys = Vec::new();
        let mut scan = tree
            .range(Bound::Unbounded, Bound::Unbounded)
            .map_err(|e| err(&name, e))?;
        while let Some((key, _)) = scan.next_entry().map_err(|e| err(&name, e))? {
            keys.push(key);
        }
        drop(scan);
        if index == "eti" {
            out.insert("core.eti_entries", keys.len() as f64);
        }
        let mut times = Vec::new();
        for key in thin(&keys) {
            let s = rec.open(span, u64::MAX);
            let value = tree.get(key).map_err(|e| err(&name, e))?;
            times.push(rec.close(s));
            if value.is_none() {
                return Err(format!("{name}: a scanned key is missing on get"));
            }
        }
        out.insert(metric, us(median_u64(&mut times)));
    }
    let name = format!("{PREFIX}.ref");
    let table = stage.db.open_table(&name).map_err(|e| err(&name, e))?;
    let rids: Vec<Rid> = table
        .scan()
        .map(|row| row.map(|(rid, _)| rid))
        .collect::<Result<_, _>>()
        .map_err(|e| err(&name, e))?;
    let mut times = Vec::new();
    for rid in thin(&rids) {
        let s = rec.open("store.table_get", u64::MAX);
        black_box(table.get(*rid).map_err(|e| err(&name, e))?);
        times.push(rec.close(s));
    }
    out.insert("store.table_get_us", us(median_u64(&mut times)));
    Ok(())
}

/// Replay the first `workload.replay` inputs layer by layer.
pub fn replay(workload: &Workload, stage: &Stage, data: &Data, rec: &mut Recorder) -> Res<Values> {
    let matcher = &stage.matcher;
    let config = matcher.config().clone();
    let tokenizer = Tokenizer::new();
    let minhasher = MinHasher::new(config.h, config.q, config.seed);
    let band_hasher = MinHasher::new(config.lsh_bands * config.lsh_rows, config.q, config.seed);
    let bander = Bander::new(config.lsh_bands, config.lsh_rows, config.seed);
    let mut edit = EditBuffer::new();
    let served = workload.kind == Kind::Served;

    let n = workload.replay.min(data.inputs.len());
    let mut sums = LookupTrace::default();
    let mut osc_successes = 0u64;
    let mut matches_returned = 0u64;
    let mut top10_fetched = 0u64;
    let mut tokens_total = 0usize;
    let (mut tokenize, mut lookup, mut eti, mut fetch, mut fms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut qgram, mut signature, mut bands, mut edits, mut parse, mut encode) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let fail = |what: &str, e: fm_core::CoreError| format!("replay {what}: {e}");

    for (i, input) in data.inputs.iter().take(n).enumerate() {
        let id = i as u64;
        let root = rec.open("replay", id);

        let s = rec.open("text.tokenize", id);
        let tokens = input.tokenize(&tokenizer);
        tokenize.push(rec.close(s));
        let flat: Vec<(usize, &str)> = tokens.iter_tokens().collect();
        tokens_total += flat.len();

        // fm-text unit costs, per token: timed as one loop over the
        // tuple's tokens (a span per call would cost more than the call).
        let per_token =
            |started: Instant| started.elapsed().as_nanos() as f64 / flat.len().max(1) as f64;
        let t = Instant::now();
        for (_, token) in &flat {
            black_box(qgram_set(token, config.q));
        }
        qgram.push(per_token(t));
        let t = Instant::now();
        for (_, token) in &flat {
            black_box(minhasher.signature(token));
        }
        signature.push(per_token(t));
        let band_signatures: Vec<_> = flat.iter().map(|(_, t)| band_hasher.signature(t)).collect();
        let t = Instant::now();
        for sig in &band_signatures {
            black_box(bander.band_keys(sig));
        }
        bands.push(per_token(t));

        let s = rec.open("core.token_signature", id);
        let entries: Vec<_> = flat
            .iter()
            .flat_map(|(col, token)| {
                token_signature(token, &minhasher, config.scheme)
                    .into_iter()
                    .map(|entry| (*col as u8, entry))
            })
            .collect();
        rec.close(s);
        for (col, entry) in &entries {
            let s = rec.open("core.eti_lookup", id);
            let list = matcher.eti_lookup(&entry.gram, entry.coordinate, *col);
            eti.push(rec.close(s));
            black_box(list.map_err(|e| fail("eti_lookup", e))?);
        }

        let s = rec.open("core.lookup", id);
        let result = matcher.lookup(input, 1, 0.0);
        lookup.push(rec.close(s));
        let result = result.map_err(|e| fail("lookup", e))?;
        let t = &result.trace;
        sums.qgrams_probed += t.qgrams_probed;
        sums.eti_rows += t.eti_rows;
        sums.tid_list_max = sums.tid_list_max.max(t.tid_list_max);
        sums.tids_processed += t.tids_processed;
        sums.candidates += t.candidates;
        sums.candidates_fetched += t.candidates_fetched;
        sums.fms_evals += t.fms_evals;
        osc_successes += u64::from(t.osc_succeeded());
        matches_returned += result.matches.len() as u64;

        if served {
            let request = Json::obj(vec![
                ("verb", Json::from("lookup")),
                ("input", record_to_json(input)),
                ("k", Json::from(1usize)),
                ("c", Json::from(0.0)),
            ])
            .encode()
            .into_bytes();
            let t = Instant::now();
            black_box(
                protocol::parse_request(&request).map_err(|e| format!("parse_request: {e}"))?,
            );
            parse.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            black_box(
                protocol::ok_reply(
                    result.trace.latency_us,
                    vec![
                        ("lookup_us", Json::from(result.trace.latency_us)),
                        ("matches", protocol::matches_to_json(&result)),
                    ],
                )
                .encode(),
            );
            encode.push(t.elapsed().as_nanos() as u64);
        }

        // Verification costs on the ten closest tuples.
        let s = rec.open("core.lookup_top10", id);
        let top = matcher.lookup(input, 10, 0.0);
        rec.close(s);
        let top = top.map_err(|e| fail("lookup top-10", e))?;
        for m in &top.matches {
            let s = rec.open("core.fetch_reference", id);
            let record = matcher.fetch_reference(m.tid);
            fetch.push(rec.close(s));
            let record = record.map_err(|e| fail("fetch_reference", e))?;
            let s = rec.open("core.fms", id);
            black_box(matcher.fms(input, &record));
            fms.push(rec.close(s));
            top10_fetched += 1;
        }
        if let Some(best) = top.matches.first() {
            let theirs = best.record.tokenize(&tokenizer);
            let mut pairs = 0usize;
            let t = Instant::now();
            for (col, mine) in &flat {
                for other in theirs.column(*col) {
                    black_box(edit.normalized(mine, other));
                    pairs += 1;
                }
            }
            if pairs > 0 {
                edits.push(t.elapsed().as_nanos() as f64 / pairs as f64);
            }
        }
        rec.close(root);
    }
    if top10_fetched == 0 {
        return Err("replay: no lookup returned a match".into());
    }

    let mut out = Values::new();
    let per = |total: u64| total as f64 / n as f64;
    out.insert("text.tokens_per_tuple", tokens_total as f64 / n as f64);
    out.insert("text.tokenize_ns", median_u64(&mut tokenize));
    out.insert("text.qgram_set_ns", median_f64(&mut qgram));
    out.insert("text.minhash_signature_ns", median_f64(&mut signature));
    out.insert("text.band_keys_ns", median_f64(&mut bands));
    out.insert("text.edit_distance_ns", median_f64(&mut edits));
    out.insert("core.lookup_us", us(median_u64(&mut lookup)));
    out.insert("core.qgrams_probed_per_lookup", per(sums.qgrams_probed));
    out.insert("core.eti_rows_per_lookup", per(sums.eti_rows));
    out.insert("core.tid_list_max", sums.tid_list_max as f64);
    out.insert("core.tids_processed_per_lookup", per(sums.tids_processed));
    out.insert("core.candidates_per_lookup", per(sums.candidates));
    out.insert("core.fetches_per_lookup", per(sums.candidates_fetched));
    out.insert("core.fms_evals_per_lookup", per(sums.fms_evals));
    out.insert("core.osc_success_ratio", per(osc_successes));
    out.insert(
        "core.fetch_useful_ratio",
        matches_returned as f64 / sums.candidates_fetched.max(1) as f64,
    );
    out.insert("core.eti_lookup_us", us(median_u64(&mut eti)));
    out.insert("core.fetch_reference_us", us(median_u64(&mut fetch)));
    out.insert("core.fms_us", us(median_u64(&mut fms)));
    // What the separable calls do not explain: score-table absorb, rank
    // and plan, which have no public entry point of their own. Tid-lists
    // are skewed, so this subtraction uses means, not the medians above.
    let mean_us = |spans: &[u64]| us(spans.iter().sum::<u64>() as f64 / spans.len().max(1) as f64);
    let explained = mean_us(&tokenize)
        + out["core.qgrams_probed_per_lookup"] * mean_us(&eti)
        + out["core.fetches_per_lookup"] * mean_us(&fetch)
        + out["core.fms_evals_per_lookup"] * mean_us(&fms);
    out.insert("core.residual_us", mean_us(&lookup) - explained);
    out.insert("server.parse_request_ns", median_u64(&mut parse));
    out.insert("server.encode_reply_ns", median_u64(&mut encode));
    store_samples(stage, rec, &mut out)?;
    Ok(out)
}

/// Sum and count of one `fm_server_phase_us` histogram of the `lookup`
/// verb in a Prometheus exposition; zeros when the series is absent.
pub fn phase_sum_count(exposition: &str, phase: &str) -> (f64, f64) {
    let find = |suffix: &str| {
        exposition
            .lines()
            .find(|line| {
                line.starts_with(&format!("fm_server_phase_us_{suffix}{{"))
                    && line.contains("verb=\"lookup\"")
                    && line.contains(&format!("phase=\"{phase}\""))
            })
            .and_then(|line| line.rsplit(' ').next())
            .and_then(|value| value.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (find("sum"), find("count"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thinning_keeps_an_even_sample() {
        let all: Vec<usize> = (0..100_000).collect();
        let kept: Vec<usize> = thin(&all).copied().collect();
        assert_eq!(kept.len(), 100_000usize.div_ceil(196));
        assert!(kept.iter().all(|i| i % 196 == 0));
        assert_eq!(thin(&all[..3]).count(), 3);
        assert_eq!(thin(&all[..0]).count(), 0);
    }

    #[test]
    fn phase_histogram_lines_parse() {
        let text = "# TYPE fm_server_phase_us histogram\n\
                    fm_server_phase_us_bucket{verb=\"lookup\",phase=\"queue\",le=\"1\"} 3\n\
                    fm_server_phase_us_sum{verb=\"lookup\",phase=\"queue\"} 420\n\
                    fm_server_phase_us_count{verb=\"lookup\",phase=\"queue\"} 7\n\
                    fm_server_phase_us_sum{verb=\"stats\",phase=\"queue\"} 9\n";
        assert_eq!(phase_sum_count(text, "queue"), (420.0, 7.0));
        assert_eq!(phase_sum_count(text, "write"), (0.0, 0.0));
    }
}
