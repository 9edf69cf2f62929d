//! The fuzzy matcher façade: build / open / lookup / maintain.
//!
//! A matcher owns six named objects inside one [`fm_store::Database`]
//! (all standard relations/indexes, per the paper's deployability
//! requirement):
//!
//! | object            | contents                                        |
//! |-------------------|-------------------------------------------------|
//! | `{p}.ref`         | the reference relation `R[tid, A1..An]`         |
//! | `{p}.tid`         | B+-tree `tid → rid` (paper: "R is indexed on the Tid attribute"): the durable map, loaded into a dense array at open |
//! | `{p}.eti`         | the Error Tolerant Index                        |
//! | `{p}.freq`        | token frequencies `(column, token) → freq`      |
//! | `{p}.state`       | relation size, tid counter, posting format      |
//! | meta `{p}.config` | the [`Config`] (incl. min-hash seeds)           |
//!
//! Catalogs built while the LSH candidate tier existed also hold a
//! `{p}.lsh` index; it is never opened, read or written.
//!
//! Lookups are `&self` and internally read-locked, so one matcher can serve
//! concurrent query threads; [`FuzzyMatcher::insert_reference`] (ETI
//! maintenance) takes the write path.
//!
//! Tids are minted densely (`1..next_tid`), so a lookup resolves a tid to
//! its rid from the in-memory tid map (`tidmap`), with one slot per
//! tid, not by a descent of `{p}.tid`; the map also holds a sketch of every
//! token, which lets verification rule a candidate out without reading its
//! row. The map is filled by `build` and by `open` (from `{p}.tid` and one
//! scan of `{p}.ref`), and every write sets or clears a slot right after it
//! writes `{p}.tid`; only `open` and `check_invariants` read the B+-tree.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::RwLock;

use fm_store::keycode;
use fm_store::lockorder::{Guard, Ranked, TID_MAP, WEIGHTS};
use fm_store::{BTree, Database, StoreError, Value};
use fm_text::minhash::MinHasher;
use fm_text::Tokenizer;

use crate::config::Config;
use crate::error::{CoreError, Result};
use crate::eti::build::{BuildStats, EtiBuilder};
use crate::eti::{token_signature, Eti};
use crate::metrics::{LookupTrace, MetricsRegistry, MetricsSnapshot};
use crate::postings::{PostingCheck, POSTING_FORMAT};
use crate::query::{
    basic_lookup, osc_lookup, QueryContext, QueryMode, ReferenceFetch, ScoredMatch,
};
use crate::record::Record;
use crate::sim::{RowSketch, Similarity};
use crate::tidmap::TidMap;
use crate::tracing;
use crate::weights::{TokenFrequencies, WeightTable};

/// Default external-sort budget for the pre-ETI (64 MiB, like the paper's
/// modest build box).
pub const DEFAULT_SORT_BUDGET: usize = 64 << 20;

/// One fuzzy match: the reference tuple, its tid, and its exact `fms`.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    pub tid: u32,
    pub similarity: f64,
    pub record: Record,
}

/// Result of a K-fuzzy-match query.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// At most K matches with `fms ≥ c`, ordered by decreasing similarity
    /// (ties by tid).
    pub matches: Vec<Match>,
    /// The per-query trace: what the query processor did at every
    /// layer (see [`LookupTrace`] for the paper figure each field backs).
    pub trace: LookupTrace,
}

/// The fuzzy matcher. See the module docs for the storage layout.
///
/// One handle per matcher: threads share it by reference or `Arc`, and
/// its locks (weight table, tid map, each index's structural latch) are
/// what they synchronize on.
pub struct FuzzyMatcher {
    config: Config,
    tokenizer: Tokenizer,
    minhasher: MinHasher,
    weights: Ranked<RwLock<WeightTable>, WEIGHTS>,
    eti: Eti,
    ref_table: fm_store::catalog::Table,
    tid_index: BTree,
    // The in-memory image of `tid_index` plus token sketches
    tid_map: Ranked<RwLock<TidMap>, TID_MAP>,
    freq_index: BTree,
    state_index: BTree,
    next_tid: AtomicU32,
    build_stats: Option<BuildStats>,
    metrics: MetricsRegistry,
}

fn tid_key(tid: u32) -> [u8; 4] {
    tid.to_be_bytes()
}

/// Every `(tid, rid)` entry of the tid index, in tid order, read in place
/// in its leaf. The first error `visit` returns stops the walk and is
/// returned.
fn for_each_rid(index: &BTree, mut visit: impl FnMut(u32, u64) -> Result<()>) -> Result<()> {
    let mut failed = None;
    let walked = index.for_each_prefix(&[], |key, value| {
        let tid = le_bytes(key, "tid index key").map(u32::from_be_bytes);
        match tid.and_then(|tid| visit(tid, rid_value(value)?)) {
            Ok(()) => Ok(()),
            Err(e) => {
                failed = Some(e);
                Err(StoreError::Corrupt("tid index walk stopped".into()))
            }
        }
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(walked?),
    }
}

/// A tid-index value: the tuple's rid as `Rid::to_u64`.
fn rid_value(bytes: &[u8]) -> Result<u64> {
    Ok(u64::from_le_bytes(le_bytes(bytes, "rid in tid index")?))
}

/// A fixed-width value read back from the store.
fn le_bytes<const N: usize>(bytes: &[u8], what: &str) -> Result<[u8; N]> {
    bytes
        .try_into()
        .map_err(|_| CoreError::BadState(format!("bad {what}")))
}

/// One row of the `{p}.state` index (`relation_size`, `next_tid`).
fn state_row<const N: usize>(state: &BTree, key: &str) -> Result<[u8; N]> {
    let bytes = state
        .get(key.as_bytes())?
        .ok_or_else(|| CoreError::BadState(format!("missing {key}")))?;
    le_bytes(&bytes, key)
}

/// Every `(column, token, frequency)` row of the frequency index, the
/// zero-frequency tombstones deletions leave included.
fn for_each_freq(
    index: &BTree,
    mut visit: impl FnMut(u8, String, u32) -> Result<()>,
) -> Result<()> {
    let mut scan = index.range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)?;
    while let Some((key, value)) = scan.next_entry()? {
        let (col, rest) = keycode::decode_u8(&key)?;
        let (token, _) = keycode::decode_str(rest)?;
        visit(
            col,
            token,
            u32::from_le_bytes(le_bytes(&value, "freq value")?),
        )?;
    }
    Ok(())
}

fn freq_key(col: usize, token: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(token.len() + 4);
    keycode::encode_u8(&mut key, col as u8);
    keycode::encode_str(&mut key, token);
    key
}

fn ref_schema(config: &Config) -> fm_store::Schema {
    let mut cols: Vec<(&str, fm_store::ColumnType, bool)> =
        vec![("tid", fm_store::ColumnType::U32, false)];
    for name in &config.column_names {
        cols.push((name.as_str(), fm_store::ColumnType::Text, true));
    }
    fm_store::Schema::new(cols)
}

/// A record's attribute values, `None` for NULL.
fn record_values(record: &Record) -> impl Iterator<Item = Option<&str>> {
    record.values().iter().map(Option::as_deref)
}

/// A decoded reference row's attribute values (tid dropped), `None` for
/// NULL.
fn row_values(row: &fm_store::Row) -> impl Iterator<Item = Option<&str>> {
    row.iter().skip(1).map(|v| match v {
        Value::Text(s) => Some(s.as_str()),
        _ => None,
    })
}

/// Sketch every row of `table` the tid map points at, in one walk of the
/// heap.
fn sketch_all(
    table: &fm_store::catalog::Table,
    tid_map: &mut TidMap,
    tokenizer: &Tokenizer,
) -> Result<()> {
    table.for_each(|rid, row| {
        let tid = row.first().and_then(Value::as_u32);
        if let Some(tid) = tid.filter(|&t| tid_map.rid(t) == Some(rid.to_u64())) {
            tid_map.set_sketch(tid, tokenizer, row_values(row));
        }
        Ok(())
    })?;
    Ok(())
}

fn record_to_row(tid: u32, record: &Record) -> fm_store::Row {
    let mut row = Vec::with_capacity(record.arity() + 1);
    row.push(Value::U32(tid));
    for v in record.values() {
        row.push(match v {
            Some(s) => Value::Text(s.clone()),
            None => Value::Null,
        });
    }
    row
}

/// The attribute columns of a decoded reference row (tid dropped), moved
/// out of it rather than copied.
fn row_to_record(row: fm_store::Row) -> Record {
    Record::from_options(
        row.into_iter()
            .skip(1)
            .map(|v| match v {
                Value::Text(s) => Some(s),
                _ => None,
            })
            .collect(),
    )
}

impl FuzzyMatcher {
    /// Build a matcher over `reference` rows with the default sort budget.
    pub fn build(
        db: &Database,
        prefix: &str,
        reference: impl Iterator<Item = Record>,
        config: Config,
    ) -> Result<FuzzyMatcher> {
        Self::build_with_sort_budget(db, prefix, reference, config, DEFAULT_SORT_BUDGET)
    }

    /// Build with an explicit pre-ETI sort memory budget (bytes). Tiny
    /// budgets force the external-sort spill path.
    pub fn build_with_sort_budget(
        db: &Database,
        prefix: &str,
        reference: impl Iterator<Item = Record>,
        config: Config,
        sort_budget: usize,
    ) -> Result<FuzzyMatcher> {
        config.validate()?;
        let _trace = tracing::start(tracing::TraceKind::Build);
        let arity = config.arity();
        let ref_table = db.create_table(&format!("{prefix}.ref"), ref_schema(&config))?;
        let index = |name: &str| db.create_index(&format!("{prefix}.{name}"));
        let trees = [
            index("tid")?,
            index("eti")?,
            index("freq")?,
            index("state")?,
        ];
        let mut m = Self::assemble(
            config,
            ref_table,
            trees,
            TokenFrequencies::new(arity),
            TidMap::new(arity),
            1,
        );

        let mut freqs = TokenFrequencies::new(arity);
        let mut builder = EtiBuilder::new(m.minhasher.clone(), m.config.scheme, sort_budget)?;
        let mut next_tid = 1u32;
        let mut tid_map = TidMap::new(arity);
        {
            let _span = tracing::span("pre_eti");
            for record in reference {
                if record.arity() != arity {
                    return Err(CoreError::Arity {
                        expected: arity,
                        got: record.arity(),
                    });
                }
                let tid = next_tid;
                next_tid += 1;
                let rid = m.ref_table.insert(&record_to_row(tid, &record))?;
                tid_map.set_rid(tid, rid.to_u64());
                let tokens = record.tokenize(&m.tokenizer);
                freqs.observe(&tokens);
                builder.observe(tid, &tokens)?;
            }
        }
        // Tids were minted in key order, so the index is packed, not grown
        // by splits that leave each leaf half empty.
        m.tid_index.bulk_fill((1..next_tid).filter_map(|tid| {
            let rid = tid_map.rid(tid)?;
            Some((tid_key(tid).to_vec(), rid.to_le_bytes().to_vec()))
        }))?;
        m.build_stats = Some(builder.finish(&m.eti)?);
        // After the pre-ETI sort has given its memory back.
        sketch_all(&m.ref_table, &mut tid_map, &m.tokenizer)?;

        // Persist frequencies, state, and config.
        let _span = tracing::span("persist");
        // Sorted in a `BTreeMap`, whose nodes are small allocations: one
        // sorted `Vec` of ≈ 17 000 rows at 10^5 is a single 800 KB block,
        // and freeing it raises glibc's mmap threshold for the rest of
        // the process (DESIGN §11, the tid map's blocks).
        let rows: BTreeMap<Vec<u8>, u32> = freqs
            .iter()
            .map(|(col, token, freq)| (freq_key(col, token), freq))
            .collect();
        m.freq_index.bulk_fill(
            rows.into_iter()
                .map(|(key, freq)| (key, freq.to_le_bytes().to_vec())),
        )?;
        let state = &m.state_index;
        state.insert(b"relation_size", &freqs.relation_size().to_le_bytes())?;
        state.insert(b"next_tid", &next_tid.to_le_bytes())?;
        state.insert(b"posting_format", &POSTING_FORMAT.to_le_bytes())?;
        db.put_meta(&format!("{prefix}.config"), &m.config.encode())?;
        drop(_span);
        m.weights = Ranked::new(RwLock::new(WeightTable::new(freqs)));
        m.tid_map = Ranked::new(RwLock::new(tid_map));
        m.next_tid = AtomicU32::new(next_tid);
        Ok(m)
    }

    /// A handle over the storage objects of one matcher: `trees` are its
    /// tid, ETI, frequency and state indexes.
    fn assemble(
        config: Config,
        ref_table: fm_store::catalog::Table,
        [tid_index, eti, freq_index, state_index]: [BTree; 4],
        freqs: TokenFrequencies,
        tid_map: TidMap,
        next_tid: u32,
    ) -> FuzzyMatcher {
        FuzzyMatcher {
            tokenizer: Tokenizer::new(),
            minhasher: MinHasher::new(config.h, config.q, config.seed),
            weights: Ranked::new(RwLock::new(WeightTable::new(freqs))),
            eti: Eti::new(eti, config.stop_qgram_threshold),
            ref_table,
            tid_index,
            tid_map: Ranked::new(RwLock::new(tid_map)),
            freq_index,
            state_index,
            next_tid: AtomicU32::new(next_tid),
            build_stats: None,
            metrics: MetricsRegistry::new(),
            config,
        }
    }

    /// Reopen a matcher previously built under `prefix` in `db`.
    pub fn open(db: &Database, prefix: &str) -> Result<FuzzyMatcher> {
        let config_bytes = db
            .get_meta(&format!("{prefix}.config"))
            .ok_or_else(|| CoreError::BadState(format!("no config for matcher {prefix}")))?;
        let config = Config::decode(&config_bytes)?;
        let state_index = db.open_index(&format!("{prefix}.state"))?;
        // Matchers built before the marker existed store raw 4-byte tids,
        // which this build would misread: refuse them before any probe.
        let format = match state_index.get(b"posting_format")? {
            Some(bytes) => u32::from_le_bytes(le_bytes(&bytes, "posting_format")?),
            None => 1,
        };
        if format != POSTING_FORMAT {
            return Err(CoreError::BadState(format!(
                "matcher {prefix} stores its ETI in posting format {format}; this \
                 build reads only posting format {POSTING_FORMAT} (bit-packed tid \
                 gaps): rebuild the matcher from its reference relation"
            )));
        }
        let ref_table = db.open_table(&format!("{prefix}.ref"))?;
        let tid_index = db.open_index(&format!("{prefix}.tid"))?;
        let eti_tree = db.open_index(&format!("{prefix}.eti"))?;
        let freq_index = db.open_index(&format!("{prefix}.freq"))?;

        let mut freqs = TokenFrequencies::new(config.arity());
        for_each_freq(&freq_index, |col, token, freq| {
            freqs.set(col as usize, &token, freq);
            Ok(())
        })?;
        freqs.set_relation_size(u64::from_le_bytes(state_row(
            &state_index,
            "relation_size",
        )?));
        let next_tid = u32::from_le_bytes(state_row(&state_index, "next_tid")?);
        // Grown key by key, so a corrupt key is rejected before the map is
        // sized for it.
        let mut tid_map = TidMap::new(config.arity());
        for_each_rid(&tid_index, |tid, rid| {
            if tid >= next_tid {
                return Err(CoreError::BadState(format!(
                    "tid index holds tid {tid}, not below next_tid {next_tid}"
                )));
            }
            tid_map.set_rid(tid, rid);
            Ok(())
        })?;
        sketch_all(&ref_table, &mut tid_map, &Tokenizer::new())?;
        let trees = [tid_index, eti_tree, freq_index, state_index];
        Ok(Self::assemble(
            config, ref_table, trees, freqs, tid_map, next_tid,
        ))
    }

    /// The configuration the matcher was built with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    pub(crate) fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    pub(crate) fn minhasher(&self) -> &MinHasher {
        &self.minhasher
    }

    pub(crate) fn weights_snapshot(&self) -> Guard<parking_lot::RwLockReadGuard<'_, WeightTable>> {
        self.weights.read()
    }

    /// Build statistics (present only on freshly built matchers).
    pub fn build_stats(&self) -> Option<BuildStats> {
        self.build_stats
    }

    /// Number of reference tuples.
    pub fn relation_size(&self) -> u64 {
        self.weights.read().frequencies().relation_size()
    }

    /// Number of physical ETI entries.
    pub fn eti_entry_count(&self) -> Result<usize> {
        self.eti.entry_count()
    }

    /// Inspect one ETI row (the tid-list of a `(gram, coordinate, column)`
    /// key). Exposed for diagnostics and tests.
    pub fn eti_lookup(
        &self,
        gram: &str,
        coordinate: u8,
        column: u8,
    ) -> Result<Option<crate::eti::TidList>> {
        self.eti.lookup(gram, coordinate, column)
    }

    /// A snapshot of the weight table (for the naive baselines and for
    /// offline analysis).
    pub fn clone_weights(&self) -> WeightTable {
        self.weights.read().clone()
    }

    /// Scan the reference relation as `(tid, record)` pairs.
    pub fn scan_reference(&self) -> Result<Vec<(u32, Record)>> {
        let mut out = Vec::new();
        for row in self.ref_table.scan() {
            let (_, row) = row?;
            let tid = row[0]
                .as_u32()
                .ok_or_else(|| CoreError::BadState("reference row without tid".into()))?;
            out.push((tid, row_to_record(row)));
        }
        Ok(out)
    }

    /// Where the tid map says `tid`'s tuple lives.
    fn rid_of(&self, tid: u32) -> Option<fm_store::Rid> {
        self.tid_map.read().rid(tid).map(fm_store::Rid::from_u64)
    }

    /// Where `tid`'s tuple lives, or `NotFound`.
    fn locate(&self, tid: u32) -> Result<fm_store::Rid> {
        self.rid_of(tid)
            .ok_or_else(|| CoreError::Store(StoreError::NotFound(format!("tid {tid}"))))
    }

    /// Fetch one reference tuple by tid.
    pub fn fetch_reference(&self, tid: u32) -> Result<Record> {
        Ok(row_to_record(self.ref_table.get(self.locate(tid)?)?))
    }

    /// The K-fuzzy-match query with the default (OSC) algorithm.
    pub fn lookup(&self, input: &Record, k: usize, c: f64) -> Result<MatchResult> {
        self.lookup_with(input, k, c, QueryMode::Osc)
    }

    /// The K-fuzzy-match query with an explicit algorithm choice.
    pub fn lookup_with(
        &self,
        input: &Record,
        k: usize,
        c: f64,
        mode: QueryMode,
    ) -> Result<MatchResult> {
        if input.arity() != self.config.arity() {
            return Err(CoreError::Arity {
                expected: self.config.arity(),
                got: input.arity(),
            });
        }
        let started = std::time::Instant::now();
        let _trace_guard = tracing::start(tracing::TraceKind::Query);
        let tokens = {
            let _span = tracing::span("tokenize");
            input.tokenize(&self.tokenizer)
        };
        let weights = self.weights.read();
        let ctx = QueryContext {
            config: &self.config,
            weights: &*weights,
            tokenizer: &self.tokenizer,
            minhasher: &self.minhasher,
            eti: &self.eti,
            reference: self,
        };
        let (scored, mut trace) = match mode {
            QueryMode::Basic => basic_lookup(&ctx, &tokens, k, c)?,
            QueryMode::Osc => osc_lookup(&ctx, &tokens, k, c)?,
        };
        drop(weights);
        let matches = {
            let _span = tracing::span("materialize");
            scored
                .into_iter()
                .map(|m: ScoredMatch| {
                    Ok(Match {
                        tid: m.tid,
                        similarity: m.similarity,
                        record: self.fetch_reference(m.tid)?,
                    })
                })
                .collect::<Result<Vec<Match>>>()?
        };
        trace.latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.record(&trace);
        tracing::attach_counters(&trace);
        Ok(MatchResult { matches, trace })
    }

    /// The flight recorder's retained traces (recent ∪ slow, oldest
    /// first): span trees with the [`LookupTrace`] counters attached to
    /// each query root. Export with [`crate::tracing::chrome_trace_json`]
    /// or [`crate::tracing::flame_summary`].
    #[must_use]
    pub fn recent_traces(&self) -> Vec<crate::tracing::CompletedTrace> {
        tracing::recorder().all()
    }

    /// The `k` slowest retained traces (recent ∪ slow rings), slowest
    /// first — the snapshot hook behind `fuzzymatch trace slowest` and the
    /// serving layer's `trace_slowest` verb.
    #[must_use]
    pub fn slowest_traces(&self, k: usize) -> Vec<crate::tracing::CompletedTrace> {
        tracing::recorder().slowest(k)
    }

    /// A point-in-time copy of the matcher's metrics registry: totals of
    /// every [`LookupTrace`] counter over all queries served so far (all
    /// threads), plus the lookup latency histogram.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// ETI maintenance, deletion side: remove a reference tuple by tid —
    /// from the reference relation, the tid index, the token frequencies,
    /// and every ETI row its tokens contributed to. Subsequent lookups will
    /// neither return nor be distracted by the tuple.
    ///
    /// Returns the removed record, or `NotFound` if the tid does not exist.
    pub fn delete_reference(&self, tid: u32) -> Result<Record> {
        // Locate and remove the row + index entry first.
        let rid = self.locate(tid)?;
        let row = self.ref_table.get(rid)?;
        let record = row_to_record(row);
        let tokens = record.tokenize(&self.tokenizer);
        self.ref_table.delete(rid)?;
        self.tid_index.delete(&tid_key(tid))?;
        self.tid_map.write().clear(tid);

        // Frequencies and relation size (O(1) per token via running sums).
        {
            let mut weights = self.weights.write();
            weights.decrement_relation_size();
            for (col, token) in tokens.iter_tokens() {
                let f = weights.frequencies().freq(col, token).saturating_sub(1);
                weights.update_freq(col, token, f);
                self.freq_index
                    .insert(&freq_key(col, token), &f.to_le_bytes())?;
            }
            let n = weights.frequencies().relation_size();
            self.state_index
                .insert(b"relation_size", &n.to_le_bytes())?;
        }

        // ETI rows.
        for (col, token) in tokens.iter_tokens() {
            for entry in token_signature(token, &self.minhasher, self.config.scheme) {
                self.eti
                    .remove_tid(&entry.gram, entry.coordinate, col as u8, tid)?;
            }
        }
        Ok(record)
    }

    /// Match a whole batch in parallel over `threads` worker threads,
    /// preserving input order. Lookups are independent and the matcher is
    /// internally read-locked, so this scales near-linearly until the
    /// buffer pool saturates — the deployment shape of the paper's Figure 1
    /// pipeline.
    ///
    /// A worker panic is surfaced as `Err(CoreError::BadState)` carrying
    /// the panic message instead of propagating the unwind (or silently
    /// dropping that worker's share of the batch).
    pub fn lookup_batch(
        &self,
        inputs: &[Record],
        k: usize,
        c: f64,
        threads: usize,
    ) -> Result<Vec<MatchResult>> {
        self.batch_execute(inputs.len(), threads, |i| self.lookup(&inputs[i], k, c))
    }

    /// Shared engine behind [`FuzzyMatcher::lookup_batch`]: run `op(i)` for
    /// every `i < n` over a work-stealing pool, preserving index order.
    /// Worker panics are caught at join time and turned into an error.
    fn batch_execute(
        &self,
        n: usize,
        threads: usize,
        op: impl Fn(usize) -> Result<MatchResult> + Sync,
    ) -> Result<Vec<MatchResult>> {
        let threads = threads.clamp(1, n.max(1));
        if threads == 1 {
            return (0..n).map(op).collect();
        }
        // One contiguous chunk per worker, each returning its own result
        // vector through `join`: the fan-out shares no mutable state (no
        // work-stealing cursor, no per-slot locks), so per-lookup trace
        // counters cannot race across workers.
        let per = n / threads;
        let extra = n % threads; // the first `extra` workers take one more
        let op = &op;
        let mut chunks: Vec<std::result::Result<Vec<Result<MatchResult>>, String>> =
            Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let start = t * per + t.min(extra);
                    let end = start + per + usize::from(t < extra);
                    scope.spawn(move || (start..end).map(op).collect::<Vec<_>>())
                })
                .collect();
            // Join explicitly so a worker panic becomes a value here
            // instead of re-panicking when the scope closes.
            for handle in handles {
                chunks.push(handle.join().map_err(|payload| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string())
                }));
            }
        });
        let mut out = Vec::with_capacity(n);
        for chunk in chunks {
            match chunk {
                Ok(results) => {
                    for r in results {
                        out.push(r?);
                    }
                }
                Err(msg) => {
                    return Err(CoreError::BadState(format!(
                        "batch lookup worker panicked: {msg}"
                    )));
                }
            }
        }
        Ok(out)
    }

    /// Exact `fms(u, v)` between two records under this matcher's weights —
    /// exposed for analysis and the baselines.
    pub fn fms(&self, u: &Record, v: &Record) -> f64 {
        let ut = u.tokenize(&self.tokenizer);
        let vt = v.tokenize(&self.tokenizer);
        let weights = self.weights.read();
        Similarity::new(&*weights, &self.config).fms(&ut, &vt)
    }

    /// ETI maintenance (the extension the paper defers in §6.2.2.1): add a
    /// new reference tuple, updating the reference relation, the tid index,
    /// the token frequencies, and the ETI in place. Returns the new tid.
    ///
    /// Note that adding tuples shifts IDF weights of *all* tokens (|R|
    /// grows); weights are refreshed here, so subsequent lookups see the
    /// new distribution.
    pub fn insert_reference(&self, record: &Record) -> Result<u32> {
        if record.arity() != self.config.arity() {
            return Err(CoreError::Arity {
                expected: self.config.arity(),
                got: record.arity(),
            });
        }
        let tid = self.next_tid.fetch_add(1, Ordering::SeqCst);
        let rid = self.ref_table.insert(&record_to_row(tid, record))?;
        self.tid_index
            .insert(&tid_key(tid), &rid.to_u64().to_le_bytes())?;
        {
            let mut map = self.tid_map.write();
            map.set_rid(tid, rid.to_u64());
            map.set_sketch(tid, &self.tokenizer, record_values(record));
        }
        let tokens = record.tokenize(&self.tokenizer);

        {
            let mut weights = self.weights.write();
            weights.bump_relation_size();
            for (col, token) in tokens.iter_tokens() {
                let f = weights.frequencies().freq(col, token) + 1;
                weights.update_freq(col, token, f);
                self.freq_index
                    .insert(&freq_key(col, token), &f.to_le_bytes())?;
            }
            let n = weights.frequencies().relation_size();
            self.state_index
                .insert(b"relation_size", &n.to_le_bytes())?;
            self.state_index
                .insert(b"next_tid", &(tid + 1).to_le_bytes())?;
        }

        for (col, token) in tokens.iter_tokens() {
            for entry in token_signature(token, &self.minhasher, self.config.scheme) {
                self.eti
                    .append_tid(&entry.gram, entry.coordinate, col as u8, tid)?;
            }
        }
        Ok(tid)
    }

    /// Deep-validate the matcher's six storage objects and their cross-
    /// object consistency at a quiescent point:
    ///
    /// * the ETI passes [`Eti::check_invariants`] (B+-tree structure plus
    ///   the chunking/stop-row/frequency rules of DESIGN.md §4.5);
    /// * the live weight table passes [`WeightTable::check_invariants`] and
    ///   its IDF inputs — `|R|` and every `(column, token)` frequency —
    ///   equal a fresh recount from a full scan of the reference relation;
    /// * the tid map and the tid index each map every reference row's tid
    ///   to its rid, and neither holds a tid no row carries;
    /// * the tid map's sketch of every live tid is the one its row gives,
    ///   and no dead tid has one;
    /// * the persisted frequency index and state rows agree with the live
    ///   table, so a reopened matcher would see the same weights;
    /// * the tid counter is strictly above every stored tid.
    pub fn check_invariants(&self) -> Result<MatcherCheck> {
        let eti = self.eti.check_invariants()?;
        let weights = self.weights.read();
        weights.check_invariants()?;

        // Recount frequencies from the relation itself; check both tid maps
        // entry by entry against it.
        let mut observed = TokenFrequencies::new(self.config.arity());
        let mut max_tid: Option<u32> = None;
        let mut tuples = 0usize;
        let mut live = vec![false; self.tid_map.read().len()];
        for row in self.ref_table.scan() {
            let (rid, row) = row?;
            let tid = row[0]
                .as_u32()
                .ok_or_else(|| CoreError::BadState("reference row without tid".into()))?;
            let indexed = match self.tid_index.get(&tid_key(tid))? {
                Some(value) => Some(fm_store::Rid::from_u64(rid_value(&value)?)),
                None => None,
            };
            for (name, mapped) in [("tid map", self.rid_of(tid)), ("tid index", indexed)] {
                let mapped = mapped.ok_or_else(|| {
                    CoreError::BadState(format!(
                        "reference tuple tid {tid} is missing from the {name}"
                    ))
                })?;
                if mapped != rid {
                    return Err(CoreError::BadState(format!(
                        "{name} maps tid {tid} to {mapped:?} but the tuple \
                         lives at {rid:?}"
                    )));
                }
            }
            let fresh = TidMap::of_row(self.config.arity(), &self.tokenizer, row_values(&row));
            if fresh.sketch(0) != self.tid_map.read().sketch(tid) {
                return Err(CoreError::BadState(format!(
                    "tid map's sketch of tid {tid} is not the one its row gives"
                )));
            }
            if let Some(seen) = live.get_mut(tid as usize) {
                *seen = true;
            }
            observed.observe(&row_to_record(row).tokenize(&self.tokenizer));
            max_tid = Some(max_tid.map_or(tid, |m| m.max(tid)));
            tuples += 1;
        }
        let deleted = |name: &str, tid: usize| {
            CoreError::BadState(format!(
                "{name} holds tid {tid}, which no reference tuple carries"
            ))
        };
        if let Some(tid) = self.tid_map.read().stale(&live) {
            return Err(deleted("tid map", tid));
        }
        for_each_rid(&self.tid_index, |tid, _| match live.get(tid as usize) {
            Some(true) => Ok(()),
            _ => Err(deleted("tid index", tid as usize)),
        })?;
        weights.check_consistent_with(&observed)?;

        // Persisted frequency index: entries with freq > 0 must mirror the
        // live table exactly (zero-frequency rows are tombstones left by
        // deletions; FuzzyMatcher::open drops them on load).
        let mut persisted_live = 0usize;
        for_each_freq(&self.freq_index, |col, token, freq| {
            if freq == 0 {
                return Ok(());
            }
            persisted_live += 1;
            let live = weights.frequencies().freq(col as usize, &token);
            if live != freq {
                return Err(CoreError::BadState(format!(
                    "persisted frequency for {token:?} in column {col} is \
                     {freq}, the live weight table says {live}"
                )));
            }
            Ok(())
        })?;
        if persisted_live != weights.frequencies().distinct_tokens() {
            return Err(CoreError::BadState(format!(
                "frequency index persists {persisted_live} live tokens, the \
                 weight table tracks {} (a maintenance write was lost)",
                weights.frequencies().distinct_tokens()
            )));
        }

        // Persisted state row.
        let persisted_n = u64::from_le_bytes(state_row(&self.state_index, "relation_size")?);
        if persisted_n != weights.frequencies().relation_size() {
            return Err(CoreError::BadState(format!(
                "persisted relation size {persisted_n} disagrees with the \
                 live weight table's {}",
                weights.frequencies().relation_size()
            )));
        }
        let persisted_next = u32::from_le_bytes(state_row(&self.state_index, "next_tid")?);
        if let Some(max) = max_tid {
            if persisted_next <= max {
                return Err(CoreError::BadState(format!(
                    "persisted next_tid {persisted_next} is not above the \
                     largest stored tid {max}; a reopen would reissue tids"
                )));
            }
        }
        Ok(MatcherCheck {
            reference_tuples: tuples,
            distinct_tokens: weights.frequencies().distinct_tokens(),
            eti,
        })
    }
}

/// Report from [`FuzzyMatcher::check_invariants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatcherCheck {
    /// Tuples in the reference relation.
    pub reference_tuples: usize,
    /// Distinct `(column, token)` pairs in the live weight table.
    pub distinct_tokens: usize,
    /// The ETI's own report.
    pub eti: PostingCheck,
}

impl ReferenceFetch for FuzzyMatcher {
    fn fetch(&self, tid: u32) -> Result<Record> {
        self.fetch_reference(tid)
    }

    fn sketch_test(&self, tid: u32, test: &mut dyn FnMut(RowSketch<'_>) -> bool) -> bool {
        self.tid_map.read().sketch(tid).is_some_and(test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_store::Database;

    fn org_config() -> Config {
        Config::default().with_columns(&["name", "city", "state", "zip"])
    }

    /// Table 1 from the paper.
    fn table1() -> Vec<Record> {
        vec![
            Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
            Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
            Record::new(&["Companions", "Seattle", "WA", "98024"]),
        ]
    }

    fn build_table1(db: &Database) -> FuzzyMatcher {
        FuzzyMatcher::build(db, "org", table1().into_iter(), org_config()).unwrap()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_weights_snapshot_keeps_its_rank_after_it_escapes() {
        // The guard `weights_snapshot` returns outlives the function that
        // took it; while it is held, taking `weights` again on this thread
        // must assert rather than nest a second read behind a queued writer.
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let snapshot = m.weights_snapshot();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.relation_size()));
        drop(snapshot);
        let payload = result.expect_err("re-taking weights under a held snapshot must assert");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            message.contains("lock-order violation: acquiring `weights`"),
            "got: {message}"
        );
        assert_eq!(m.relation_size(), 3);
    }

    #[test]
    fn paper_inputs_match_their_targets() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        // Table 2: I1–I3 target R1 (tid 1). (I4's swapped-token case is
        // exercised separately with the transposition extension.)
        let inputs = [
            Record::new(&["Beoing Company", "Seattle", "WA", "98004"]),
            Record::new(&["Beoing Co.", "Seattle", "WA", "98004"]),
            Record::new(&["Boeing Corporation", "Seattle", "WA", "98004"]),
        ];
        for (i, input) in inputs.iter().enumerate() {
            for mode in [QueryMode::Basic, QueryMode::Osc] {
                let result = m.lookup_with(input, 1, 0.0, mode).unwrap();
                assert_eq!(
                    result.matches[0].tid,
                    1,
                    "I{} should match R1 under {mode:?}",
                    i + 1
                );
                assert!(result.matches[0].similarity > 0.5);
            }
        }
    }

    #[test]
    fn i4_with_null_state_matches_r1_under_idf_skew() {
        // I4 = [Company Beoing, Seattle, NULL, 98014]: the paper's §4.1
        // walkthrough of this input assumes realistic IDF skew ('company'
        // is a frequent, low-weight token — w = 0.25 in their example).
        // On the bare 3-row Table 1 every name token is equally rare, so we
        // add filler organizations "<unique> company" to create the skew;
        // then fms tolerates the missing state, the swapped tokens, and the
        // misleading zip, and ranks R1 above R3 ("Companions").
        let db = Database::in_memory().unwrap();
        let mut rows = table1();
        for i in 0..20 {
            rows.push(Record::new(&[
                &format!("zorg{i} company"),
                "Tacoma",
                "WA",
                &format!("9{i:04}"),
            ]));
        }
        let m = FuzzyMatcher::build(&db, "org", rows.into_iter(), org_config()).unwrap();
        let input = Record::from_options(vec![
            Some("Company Beoing".into()),
            Some("Seattle".into()),
            None,
            Some("98014".into()),
        ]);
        let result = m.lookup(&input, 3, 0.0).unwrap();
        assert!(!result.matches.is_empty());
        let tids: Vec<u32> = result.matches.iter().map(|m| m.tid).collect();
        let pos1 = tids.iter().position(|&t| t == 1);
        let pos3 = tids.iter().position(|&t| t == 3);
        match (pos1, pos3) {
            (Some(p1), Some(p3)) => assert!(p1 < p3, "R1 must beat R3: {tids:?}"),
            (Some(_), None) => {}
            other => panic!("unexpected ranking {other:?} in {tids:?}"),
        }
    }

    #[test]
    fn exact_match_scores_one() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let result = m
            .lookup(
                &Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
                1,
                0.0,
            )
            .unwrap();
        assert_eq!(result.matches[0].tid, 1);
        assert!((result.matches[0].similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_filters_matches() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let garbage = Record::new(&["zzzzqqqq xyxyxy", "nowhere", "ZZ", "00000"]);
        let result = m.lookup(&garbage, 3, 0.9).unwrap();
        assert!(
            result.matches.is_empty(),
            "garbage should not clear c=0.9: {:?}",
            result.matches
        );
    }

    #[test]
    fn k_limits_result_count() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let input = Record::new(&["Company", "Seattle", "WA", "98004"]);
        let r1 = m.lookup(&input, 1, 0.0).unwrap();
        assert!(r1.matches.len() <= 1);
        let r3 = m.lookup(&input, 3, 0.0).unwrap();
        assert!(r3.matches.len() >= r1.matches.len());
        // Result ordering: non-increasing similarity.
        for w in r3.matches.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
        let r0 = m.lookup(&input, 0, 0.0).unwrap();
        assert!(r0.matches.is_empty());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let bad = Record::new(&["only", "three", "columns"]);
        assert!(matches!(
            m.lookup(&bad, 1, 0.0),
            Err(CoreError::Arity {
                expected: 4,
                got: 3
            })
        ));
        assert!(m.insert_reference(&bad).is_err());
    }

    #[test]
    fn empty_input_yields_no_matches() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let empty = Record::from_options(vec![None, None, None, None]);
        let result = m.lookup(&empty, 3, 0.0).unwrap();
        assert!(result.matches.is_empty());
    }

    #[test]
    fn persistence_reopen_and_requery() {
        let mut path = std::env::temp_dir();
        path.push(format!("fm-core-matcher-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::open_file(&path, 256).unwrap();
            let m = FuzzyMatcher::build(&db, "org", table1().into_iter(), org_config()).unwrap();
            assert_eq!(m.relation_size(), 3);
            db.flush().unwrap();
        }
        {
            let db = Database::open_file(&path, 256).unwrap();
            let m = FuzzyMatcher::open(&db, "org").unwrap();
            assert_eq!(m.relation_size(), 3);
            assert_eq!(m.config().strategy_label(), "Q+T_3");
            let result = m
                .lookup(
                    &Record::new(&["Beoing Company", "Seattle", "WA", "98004"]),
                    1,
                    0.0,
                )
                .unwrap();
            assert_eq!(result.matches[0].tid, 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_missing_matcher_fails() {
        let db = Database::in_memory().unwrap();
        assert!(matches!(
            FuzzyMatcher::open(&db, "nope"),
            Err(CoreError::BadState(_))
        ));
    }

    #[test]
    fn maintenance_insert_then_match() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let tid = m
            .insert_reference(&Record::new(&[
                "Microsoft Corporation",
                "Redmond",
                "WA",
                "98052",
            ]))
            .unwrap();
        assert_eq!(tid, 4);
        assert_eq!(m.relation_size(), 4);
        // The new tuple is findable through the ETI, with errors.
        let result = m
            .lookup(
                &Record::new(&["Microsft Corp", "Redmond", "WA", "98052"]),
                1,
                0.0,
            )
            .unwrap();
        assert_eq!(result.matches[0].tid, 4);
        // And fetchable directly.
        let rec = m.fetch_reference(4).unwrap();
        assert_eq!(rec.get(0), Some("Microsoft Corporation"));
    }

    #[test]
    fn maintenance_persists_across_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("fm-core-maint-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::open_file(&path, 256).unwrap();
            let m = FuzzyMatcher::build(&db, "org", table1().into_iter(), org_config()).unwrap();
            m.insert_reference(&Record::new(&["Amazon Inc", "Seattle", "WA", "98109"]))
                .unwrap();
            db.flush().unwrap();
        }
        {
            let db = Database::open_file(&path, 256).unwrap();
            let m = FuzzyMatcher::open(&db, "org").unwrap();
            assert_eq!(m.relation_size(), 4);
            let result = m
                .lookup(
                    &Record::new(&["Amzon Inc", "Seattle", "WA", "98109"]),
                    1,
                    0.0,
                )
                .unwrap();
            assert_eq!(result.matches[0].tid, 4);
            // tid counter continues correctly.
            let tid = m
                .insert_reference(&Record::new(&["Next Corp", "Kent", "WA", "98030"]))
                .unwrap();
            assert_eq!(tid, 5);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_reference_round_trips() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let rows = m.scan_reference().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[0].1.get(0), Some("Boeing Company"));
        assert_eq!(rows[2].1.get(3), Some("98024"));
    }

    #[test]
    fn duplicate_prefix_rejected() {
        let db = Database::in_memory().unwrap();
        let _m = build_table1(&db);
        assert!(FuzzyMatcher::build(&db, "org", table1().into_iter(), org_config()).is_err());
    }

    #[test]
    fn stats_are_populated() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let result = m
            .lookup(
                &Record::new(&["Beoing Company", "Seattle", "WA", "98004"]),
                1,
                0.0,
            )
            .unwrap();
        assert!(result.trace.qgrams_probed > 0);
        assert!(result.trace.tids_processed > 0);
        assert!(result.trace.candidates_fetched > 0);
        let bs = m.build_stats().unwrap();
        assert_eq!(bs.reference_tuples, 3);
        assert!(bs.pre_eti_records > 0);
        assert!(bs.eti_groups > 0);
    }

    #[test]
    fn trace_is_populated_consistent_and_mirrors_stats() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        for mode in [QueryMode::Basic, QueryMode::Osc] {
            let before = m.metrics_snapshot().totals;
            let t = m.lookup_with(&input, 1, 0.0, mode).unwrap().trace;
            let after = m.metrics_snapshot().totals;
            t.check_consistent().unwrap();
            assert!(t.qgrams_probed > 0);
            assert!(t.eti_rows > 0, "every probe should touch B+-tree rows");
            assert!(t.tid_list_entries > 0);
            assert!(t.tid_list_max > 0);
            assert!(t.fms_evals > 0);
            // The registry's stats move by exactly this trace, counter for
            // counter, under the same names.
            let moved: Vec<(&str, u64)> = after
                .named()
                .zip(before.named())
                .map(|((name, a), (_, b))| (name, a - b))
                .collect();
            assert_eq!(moved, t.named().collect::<Vec<_>>());
        }
    }

    #[test]
    fn metrics_snapshot_accumulates_lookups() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        assert_eq!(m.metrics_snapshot().lookups, 0);
        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        let mut expected = crate::metrics::LookupTrace::default();
        let mut latency = 0u64;
        for _ in 0..3 {
            let t = m.lookup(&input, 1, 0.0).unwrap().trace;
            expected.qgrams_probed += t.qgrams_probed;
            expected.tids_processed += t.tids_processed;
            expected.fms_evals += t.fms_evals;
            latency += t.latency_us;
        }
        let snap = m.metrics_snapshot();
        assert_eq!(snap.lookups, 3);
        assert_eq!(snap.totals.qgrams_probed, expected.qgrams_probed);
        assert_eq!(snap.totals.tids_processed, expected.tids_processed);
        assert_eq!(snap.totals.fms_evals, expected.fms_evals);
        assert_eq!(snap.latency.count, 3);
        assert_eq!(snap.latency.sum_us, latency);
        snap.check_invariants().unwrap();
    }

    #[test]
    fn lookup_batch_thread_clamp_regression() {
        // Regression for the old `.max(1).min(len.max(1))` chain: every
        // combination of degenerate thread counts and batch sizes must
        // neither panic nor lose results.
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let inputs: Vec<Record> = (0..3)
            .map(|_| Record::new(&["Beoing Company", "Seattle", "WA", "98004"]))
            .collect();
        for threads in [0, 1, 2, 3, 64, usize::MAX] {
            // Empty batch: always fine, always empty.
            assert!(m.lookup_batch(&[], 1, 0.0, threads).unwrap().is_empty());
            // Oversubscribed: results complete and ordered.
            let results = m.lookup_batch(&inputs, 1, 0.0, threads).unwrap();
            assert_eq!(results.len(), inputs.len());
            for r in &results {
                assert_eq!(r.matches[0].tid, 1);
            }
        }
    }

    #[test]
    fn lookup_batch_worker_panic_surfaces_as_error() {
        // Regression: a panicking worker used to unwind out of the scope
        // (or, before that, silently leave its share unprocessed). The
        // join handles must convert the panic into an error the caller
        // can handle.
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        let result = m.batch_execute(6, 3, |i| {
            if i == 4 {
                panic!("injected worker failure {i}");
            }
            m.lookup(&input, 1, 0.0)
        });
        let err = result.unwrap_err().to_string();
        assert!(
            err.contains("worker panicked") && err.contains("injected worker failure 4"),
            "got: {err}"
        );
        // The matcher stays fully usable afterwards.
        let ok = m
            .lookup_batch(std::slice::from_ref(&input), 1, 0.0, 4)
            .unwrap();
        assert_eq!(ok[0].matches[0].tid, 1);
    }

    #[test]
    fn delete_reference_removes_tuple_everywhere() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        // R1 matches before deletion.
        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        assert_eq!(m.lookup(&input, 1, 0.0).unwrap().matches[0].tid, 1);
        let removed = m.delete_reference(1).unwrap();
        assert_eq!(removed.get(0), Some("Boeing Company"));
        assert_eq!(m.relation_size(), 2);
        // Direct fetch fails; lookup no longer returns tid 1.
        assert!(m.fetch_reference(1).is_err());
        let result = m.lookup(&input, 3, 0.0).unwrap();
        assert!(result.matches.iter().all(|x| x.tid != 1), "{result:?}");
        // Deleting again is NotFound.
        assert!(matches!(
            m.delete_reference(1),
            Err(CoreError::Store(StoreError::NotFound(_)))
        ));
        // The remaining tuples still match fine.
        let r2 = m
            .lookup(
                &Record::new(&["Bon Corp", "Seattle", "WA", "98014"]),
                1,
                0.0,
            )
            .unwrap();
        assert_eq!(r2.matches[0].tid, 2);
    }

    #[test]
    fn delete_then_insert_cycle_is_stable() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        for round in 0..5u32 {
            let tid = m
                .insert_reference(&Record::new(&[
                    &format!("cyclic corp {round}"),
                    "tacoma",
                    "wa",
                    "98402",
                ]))
                .unwrap();
            let found = m
                .lookup(
                    &Record::new(&[&format!("cyclic corp {round}"), "tacoma", "wa", "98402"]),
                    1,
                    0.0,
                )
                .unwrap();
            assert_eq!(found.matches[0].tid, tid);
            m.delete_reference(tid).unwrap();
        }
        assert_eq!(m.relation_size(), 3);
        // Table 1 still intact.
        let r = m
            .lookup(
                &Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
                1,
                0.0,
            )
            .unwrap();
        assert!((r.matches[0].similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delete_persists_across_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("fm-core-delete-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::open_file(&path, 256).unwrap();
            let m = FuzzyMatcher::build(&db, "org", table1().into_iter(), org_config()).unwrap();
            m.delete_reference(2).unwrap();
            db.flush().unwrap();
        }
        {
            let db = Database::open_file(&path, 256).unwrap();
            let m = FuzzyMatcher::open(&db, "org").unwrap();
            assert_eq!(m.relation_size(), 2);
            assert!(m.fetch_reference(2).is_err());
            let r = m
                .lookup(
                    &Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
                    1,
                    0.0,
                )
                .unwrap();
            // Best remaining match is not tid 2.
            assert!(r.matches.iter().all(|x| x.tid != 2));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lookup_batch_matches_serial_and_preserves_order() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let inputs: Vec<Record> = (0..40)
            .map(|i| match i % 3 {
                0 => Record::new(&["Beoing Company", "Seattle", "WA", "98004"]),
                1 => Record::new(&["Bon Corp", "Seattle", "WA", "98014"]),
                _ => Record::new(&["Companion", "Seattle", "WA", "98024"]),
            })
            .collect();
        let serial = m.lookup_batch(&inputs, 2, 0.0, 1).unwrap();
        let parallel = m.lookup_batch(&inputs, 2, 0.0, 4).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.matches.iter().map(|m| m.tid).collect::<Vec<_>>(),
                p.matches.iter().map(|m| m.tid).collect::<Vec<_>>()
            );
        }
        // Order preserved: input i % 3 == 0 must match tid 1.
        assert_eq!(parallel[0].matches[0].tid, 1);
        assert_eq!(parallel[1].matches[0].tid, 2);
        assert_eq!(parallel[2].matches[0].tid, 3);
        // Empty batch and thread oversubscription are fine.
        assert!(m.lookup_batch(&[], 1, 0.0, 8).unwrap().is_empty());
        let one = m.lookup_batch(&inputs[..1], 1, 0.0, 64).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn check_invariants_accepts_built_and_maintained_matcher() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let check = m.check_invariants().unwrap();
        assert_eq!(check.reference_tuples, 3);
        assert!(check.eti.groups > 0);
        // Maintenance churn keeps every cross-object invariant intact.
        let tid = m
            .insert_reference(&Record::new(&[
                "Microsoft Corporation",
                "Redmond",
                "WA",
                "98052",
            ]))
            .unwrap();
        m.delete_reference(2).unwrap();
        m.insert_reference(&Record::new(&["Amazon Inc", "Seattle", "WA", "98109"]))
            .unwrap();
        m.delete_reference(tid).unwrap();
        let check = m.check_invariants().unwrap();
        assert_eq!(check.reference_tuples, 3);
    }

    #[test]
    fn check_invariants_detects_missing_tid_index_entry() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        m.tid_index.delete(&tid_key(2)).unwrap();
        let err = m.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("tid 2") && err.contains("tid index"),
            "got: {err}"
        );
    }

    #[test]
    fn check_invariants_checks_the_tid_map_entry_by_entry() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        let rid3 = m.tid_map.read().rid(3).unwrap();
        m.tid_map.write().slots_mut().0[2] = rid3;
        let err = m.check_invariants().unwrap_err();
        assert!(
            matches!(err, CoreError::BadState(_)) && err.to_string().contains("tid map maps tid 2"),
            "got: {err}"
        );

        // A deleted tid left behind in the map.
        let m = build_table1(&Database::in_memory().unwrap());
        let rid1 = m.tid_map.read().rid(1).unwrap();
        m.delete_reference(1).unwrap();
        m.tid_map.write().slots_mut().0[1] = rid1;
        let err = m.check_invariants().unwrap_err().to_string();
        assert!(err.contains("tid map holds tid 1"), "got: {err}");
    }

    #[test]
    fn check_invariants_checks_every_sketch_against_its_row() {
        // One bucket bit of a live tid's sketch flipped.
        let m = build_table1(&Database::in_memory().unwrap());
        {
            let mut map = m.tid_map.write();
            let (_, starts, once) = map.slots_mut();
            once[starts[2] as usize] ^= 1 << 40;
        }
        let err = m.check_invariants().unwrap_err().to_string();
        assert!(err.contains("sketch of tid 2"), "got: {err}");

        // A deleted tid whose sketch survived.
        let m = build_table1(&Database::in_memory().unwrap());
        m.delete_reference(1).unwrap();
        m.tid_map.write().slots_mut().1[1] = 0;
        let err = m.check_invariants().unwrap_err().to_string();
        assert!(err.contains("tid map holds tid 1"), "got: {err}");
    }

    #[test]
    fn open_rejects_a_corrupt_tid_index_without_allocating() {
        let corrupt = |key: &[u8], value: &[u8]| {
            let db = Database::in_memory().unwrap();
            build_table1(&db);
            db.open_index("org.tid")
                .unwrap()
                .insert(key, value)
                .unwrap();
            FuzzyMatcher::open(&db, "org")
        };
        let rid = 0u64.to_le_bytes();
        // A map grown to this key would take 32 GiB.
        let err = corrupt(&tid_key(u32::MAX), &rid).err().unwrap();
        assert!(matches!(err, CoreError::BadState(_)), "got: {err}");
        assert!(err.to_string().contains("next_tid"), "got: {err}");
        for (key, value) in [(&tid_key(2)[..], &[0u8; 4][..]), (&[0, 2], &rid[..])] {
            let err = corrupt(key, value).err().unwrap();
            assert!(matches!(err, CoreError::BadState(_)), "got: {err}");
        }
    }

    /// A matcher without the posting-format marker, its ETI in the raw
    /// 4-byte layout that preceded the marker, is refused at open, not
    /// misread at its first probe.
    #[test]
    fn open_refuses_a_matcher_without_the_posting_format_marker() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        // Every chunk rewritten as `[flags][frequency][count][count × tid]`.
        for (key, value) in m.eti.postings.entries() {
            let (frequency, stop, tids) = crate::postings::decode_value(&value).unwrap();
            let mut raw = vec![u8::from(stop)];
            raw.extend_from_slice(&frequency.to_le_bytes());
            raw.extend_from_slice(&(tids.len() as u16).to_le_bytes());
            raw.extend(tids.iter().flat_map(|t| t.to_le_bytes()));
            m.eti.postings.insert_raw(&key, &raw);
        }
        assert!(FuzzyMatcher::open(&db, "org").is_ok());
        m.state_index.delete(b"posting_format").unwrap();
        let err = FuzzyMatcher::open(&db, "org").err().unwrap();
        assert!(matches!(err, CoreError::BadState(_)), "got: {err}");
        let err = err.to_string();
        assert!(
            err.contains("posting format 1") && err.contains("rebuild"),
            "got: {err}"
        );
        m.state_index
            .insert(b"posting_format", &7u32.to_le_bytes())
            .unwrap();
        let err = FuzzyMatcher::open(&db, "org").err().unwrap().to_string();
        assert!(err.contains("posting format 7"), "got: {err}");
    }

    /// `tid`'s sketch as owned `(once, chars, ends)`.
    fn owned(m: &FuzzyMatcher, tid: u32) -> (Vec<u64>, Vec<u8>, Vec<u8>) {
        let map = m.tid_map.read();
        let s = map.sketch(tid).unwrap();
        (s.once.to_vec(), s.chars.to_vec(), s.ends.to_vec())
    }

    /// Writes set and clear the handle's tid map — rids and sketches —
    /// and a reopened handle rebuilds the same map from the tid index and
    /// the heap.
    #[test]
    fn one_tid_map_across_handles_and_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("fm-core-tidmap-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let amazon = Record::new(&["Amazon Inc", "Seattle", "WA", "98109"]);
        let not_found =
            |r: Result<Record>| matches!(r, Err(CoreError::Store(StoreError::NotFound(_))));
        let survivors = {
            let db = Database::open_file(&path, 256).unwrap();
            let m = FuzzyMatcher::build(&db, "org", table1().into_iter(), org_config()).unwrap();
            let tid = m.insert_reference(&amazon).unwrap();
            assert_eq!(m.fetch_reference(tid).unwrap(), amazon);
            let fresh = TidMap::of_row(4, &m.tokenizer, record_values(&amazon));
            assert_eq!(m.tid_map.read().sketch(tid), fresh.sketch(0));
            m.delete_reference(2).unwrap();
            assert!(not_found(m.fetch_reference(2)));
            assert_eq!(m.tid_map.read().sketch(2), None);
            db.flush().unwrap();
            [1, 3, tid].map(|t| (t, m.fetch_reference(t).unwrap(), owned(&m, t)))
        };
        let db = Database::open_file(&path, 256).unwrap();
        let m = FuzzyMatcher::open(&db, "org").unwrap();
        for (tid, record, sketch) in survivors {
            assert_eq!(m.fetch_reference(tid).unwrap(), record);
            assert_eq!(owned(&m, tid), sketch);
        }
        assert!(not_found(m.fetch_reference(2)));
        assert_eq!(m.tid_map.read().sketch(2), None);
        m.check_invariants().unwrap();
        drop((m, db));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn check_invariants_detects_diverged_persisted_frequency() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        m.freq_index
            .insert(&freq_key(0, "boeing"), &9u32.to_le_bytes())
            .unwrap();
        let err = m.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("boeing") && err.contains("persisted"),
            "got: {err}"
        );
    }

    #[test]
    fn check_invariants_detects_stale_relation_size() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        m.state_index
            .insert(b"relation_size", &99u64.to_le_bytes())
            .unwrap();
        let err = m.check_invariants().unwrap_err().to_string();
        assert!(err.contains("relation size"), "got: {err}");
    }

    #[test]
    fn check_invariants_detects_rewound_tid_counter() {
        let db = Database::in_memory().unwrap();
        let m = build_table1(&db);
        m.state_index
            .insert(b"next_tid", &2u32.to_le_bytes())
            .unwrap();
        let err = m.check_invariants().unwrap_err().to_string();
        assert!(
            err.contains("next_tid") && err.contains("reissue"),
            "got: {err}"
        );
    }

    /// Everything a lookup reports except how long it took.
    fn bitwise(
        m: &FuzzyMatcher,
        input: &Record,
        mode: QueryMode,
    ) -> (Vec<(u32, u64)>, LookupTrace) {
        let mut r = m.lookup_with(input, 3, 0.0, mode).unwrap();
        r.trace.latency_us = 0;
        let bits = r.matches.iter().map(|m| (m.tid, m.similarity.to_bits()));
        (bits.collect(), r.trace)
    }

    /// A catalog written while the LSH tier existed holds a `{p}.lsh`
    /// index and a config that ends in a tier code. It opens, never reads
    /// the index, and answers like a fresh build; no write touches it.
    #[test]
    fn a_catalog_with_the_retired_lsh_index_opens_and_answers_like_a_fresh_build() {
        let fresh = build_table1(&Database::in_memory().unwrap());
        let inputs = [
            Record::new(&["Beoing Company", "Seattle", "WA", "98004"]),
            Record::new(&["Bon Corp", "Seattle", "WA", "98014"]),
        ];
        for tier in [1u8, 2] {
            let db = Database::in_memory().unwrap();
            build_table1(&db);
            // Garbage in the old index: reading it would fail to decode.
            let lsh = db.create_index("org.lsh").unwrap();
            lsh.insert(b"junk", b"not a posting value").unwrap();
            let mut config = db.get_meta("org.config").unwrap();
            config.push(tier);
            config.extend_from_slice(&[3, 0, 0, 0, 3, 0, 0, 0]);
            db.put_meta("org.config", &config).unwrap();

            let m = FuzzyMatcher::open(&db, "org").unwrap();
            assert_eq!(m.config(), fresh.config());
            for input in &inputs {
                for mode in [QueryMode::Basic, QueryMode::Osc] {
                    assert_eq!(bitwise(&m, input, mode), bitwise(&fresh, input, mode));
                }
            }
            m.insert_reference(&Record::new(&["Amazon Inc", "Kent", "WA", "98030"]))
                .unwrap();
            m.delete_reference(2).unwrap();
            m.check_invariants().unwrap();
            assert_eq!(lsh.len().unwrap(), 1, "tier {tier}");
            db.check_invariants().unwrap();
        }
        // An unknown tier code is still corruption.
        let db = Database::in_memory().unwrap();
        build_table1(&db);
        let mut config = db.get_meta("org.config").unwrap();
        config.extend_from_slice(&[3, 3, 0, 0, 0, 3, 0, 0, 0]);
        db.put_meta("org.config", &config).unwrap();
        assert!(matches!(
            FuzzyMatcher::open(&db, "org"),
            Err(CoreError::BadState(_))
        ));
    }

    /// A few hundred customer-like tuples over a small vocabulary: tokens
    /// are shared widely, so posting lists are long, overlap, and (with a
    /// low stop threshold) some become stop rows.
    fn synthetic_reference(n: usize) -> Vec<Record> {
        const FIRST: [&str; 12] = [
            "boeing",
            "bonney",
            "companion",
            "pacific",
            "cascade",
            "summit",
            "harbor",
            "evergreen",
            "rainier",
            "olympic",
            "puget",
            "columbia",
        ];
        const SECOND: [&str; 8] = [
            "company",
            "corporation",
            "holdings",
            "systems",
            "partners",
            "logistics",
            "foods",
            "aerospace",
        ];
        const CITY: [&str; 6] = [
            "seattle", "tacoma", "spokane", "redmond", "bellevue", "everett",
        ];
        let mut x = 0x2003_u64;
        let mut next = move |m: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize % m
        };
        (0..n)
            .map(|i| {
                let name = format!(
                    "{} {} {}",
                    FIRST[next(FIRST.len())],
                    SECOND[next(SECOND.len())],
                    i % 97
                );
                let zip = format!("98{:03}", next(40));
                Record::new(&[&name, CITY[next(CITY.len())], "wa", &zip])
            })
            .collect()
    }

    /// The pipeline as it runs — incremental score table, verification
    /// bounded by the K-th verified `fms` — against its reference: the
    /// sorting oracle table with every fetched candidate evaluated in full.
    #[test]
    fn pipeline_equals_the_sorting_oracle_with_unbounded_verification() {
        use crate::query::basic::basic_run;
        use crate::query::oracle::OracleTable;
        use crate::query::osc::osc_run;
        use crate::query::{Scratch, NO_SKETCHES, UNBOUNDED_VERIFY};

        let reference = synthetic_reference(600);
        let db = Database::in_memory().unwrap();
        let m = FuzzyMatcher::build(
            &db,
            "syn",
            reference.iter().cloned(),
            org_config().with_stop_threshold(150),
        )
        .unwrap();
        // Dirty inputs: a transposed letter pair, a dropped token, a NULL.
        let inputs: Vec<Record> = reference
            .iter()
            .step_by(41)
            .enumerate()
            .map(|(i, r)| {
                let mut values: Vec<Option<String>> = r.values().to_vec();
                let name = values[0].clone().unwrap();
                values[0] = Some(match i % 3 {
                    0 => {
                        let mut b = name.into_bytes();
                        b.swap(1, 2);
                        String::from_utf8(b).unwrap()
                    }
                    1 => name.split(' ').skip(1).collect::<Vec<_>>().join(" "),
                    _ => name,
                });
                if i % 4 == 3 {
                    values[2] = None;
                }
                Record::from_options(values)
            })
            .collect();

        let weights = m.weights.read();
        let ctx = QueryContext {
            config: &m.config,
            weights: &*weights,
            tokenizer: &m.tokenizer,
            minhasher: &m.minhasher,
            eti: &m.eti,
            reference: &m,
        };
        let mut oracle = Scratch::<OracleTable>::default();
        let (mut short_circuits, mut stops, mut pruned, mut fallbacks) = (0, 0, 0, 0);
        let (mut evals, mut reference_evals, mut sketch_rejected) = (0, 0, 0);
        for input in &inputs {
            let tokens = input.tokenize(&m.tokenizer);
            for k in [1usize, 3, 10] {
                for c in [0.0, 0.8] {
                    // [pipeline, pipeline without sketches, reference
                    // pipeline] per mode; the flags are read when a run
                    // verifies.
                    let run = |sketches: bool| {
                        NO_SKETCHES.set(!sketches);
                        [
                            basic_lookup(&ctx, &tokens, k, c),
                            osc_lookup(&ctx, &tokens, k, c),
                        ]
                    };
                    let (new, unsketched) = (run(true), run(false));
                    NO_SKETCHES.set(false);
                    UNBOUNDED_VERIFY.set(true);
                    let old = [
                        basic_run(&ctx, &tokens, k, c, &mut oracle),
                        osc_run(&ctx, &tokens, k, c, &mut oracle),
                    ];
                    UNBOUNDED_VERIFY.set(false);
                    let rows = ["basic", "osc"].into_iter().zip(unsketched);
                    for (((row, unsketched), new), old) in rows.zip(new).zip(old) {
                        let (new, new_trace) = new.unwrap();
                        let (old, mut old_trace) = old.unwrap();
                        let bits = |ms: &[ScoredMatch]| -> Vec<(u32, u64)> {
                            ms.iter().map(|m| (m.tid, m.similarity.to_bits())).collect()
                        };
                        assert_eq!(bits(&new), bits(&old), "{row} k={k} c={c} on {input}");
                        // The sketches may only save heap reads.
                        let (unsketched, mut unsketched_trace) = unsketched.unwrap();
                        assert_eq!(bits(&new), bits(&unsketched), "{row} k={k} c={c}");
                        assert_eq!(unsketched_trace.sketch_rejected, 0);
                        sketch_rejected += new_trace.sketch_rejected;
                        unsketched_trace.sketch_rejected = new_trace.sketch_rejected;
                        assert_eq!(new_trace, unsketched_trace, "{row} k={k} c={c} on {input}");
                        // The bounds may only save token-DP evaluations.
                        assert_eq!(old_trace.fms_evals, old_trace.candidates_fetched);
                        assert!(new_trace.fms_evals <= old_trace.fms_evals);
                        evals += new_trace.fms_evals;
                        reference_evals += old_trace.fms_evals;
                        old_trace.fms_evals = new_trace.fms_evals;
                        old_trace.sketch_rejected = new_trace.sketch_rejected;
                        assert_eq!(new_trace, old_trace, "{row} k={k} c={c} on {input}");
                        new_trace.check_consistent().unwrap();
                        short_circuits += u32::from(new_trace.osc_succeeded());
                        stops += new_trace.stop_qgrams;
                        pruned += new_trace.apx_pruned;
                        fallbacks +=
                            u32::from(row.starts_with("osc") && !new_trace.osc_succeeded());
                    }
                }
            }
        }
        // The matrix must actually have walked the interesting paths.
        assert!(short_circuits > 0, "no OSC success exercised");
        assert!(fallbacks > 0, "no OSC fallback exercised");
        assert!(stops > 0, "no stop row exercised");
        assert!(pruned > 0, "no bound-pruned candidate exercised");
        assert!(sketch_rejected > 0, "no candidate rejected from its sketch");
        assert!(
            evals * 2 < reference_evals,
            "verification bounds rejected too little: {evals} of {reference_evals} evaluations left"
        );
    }

    /// A posting naming a tid far outside the relation (`u32::MAX - 1`,
    /// written past every rule) costs the thread's score table one page,
    /// not gigabytes, and the thread's next lookup answers exactly as a
    /// fresh thread's does.
    #[test]
    fn a_corrupt_posting_tid_costs_one_page_and_leaves_the_thread_clean() {
        use std::thread::scope;

        let input = Record::new(&["Beoing Company", "Seattle", "WA", "98004"]);
        let answer = |m: &FuzzyMatcher| {
            let mut r = m.lookup(&input, 1, 0.0)?;
            r.trace.latency_us = 0;
            let bits: Vec<_> = r
                .matches
                .iter()
                .map(|m| (m.tid, m.similarity.to_bits()))
                .collect();
            Ok::<_, CoreError>((bits, r.trace))
        };
        let clean = build_table1(&Database::in_memory().unwrap());
        let corrupt = build_table1(&Database::in_memory().unwrap());
        // Every row the input probes gains the tid.
        for (col, token) in input.tokenize(&corrupt.tokenizer).iter_tokens() {
            for entry in token_signature(token, &corrupt.minhasher, corrupt.config.scheme) {
                let (gram, coordinate, column) = (&entry.gram, entry.coordinate, col as u8);
                let list = corrupt.eti.lookup(gram, coordinate, column).unwrap();
                if let Some(mut tids) = list.and_then(|l| l.tids) {
                    tids.push(u32::MAX - 1);
                    let (prefix, n) = (Eti::prefix(gram, coordinate, column), tids.len() as u32);
                    corrupt.eti.postings.put_raw(&prefix, 0, n, false, &tids);
                }
            }
        }
        let fresh = scope(|s| s.spawn(|| answer(&clean).unwrap()).join().unwrap());
        scope(|s| {
            s.spawn(|| {
                // The unknown tid outscores everything and its fetch fails.
                let err = answer(&corrupt).unwrap_err().to_string();
                assert!(err.contains("tid 4294967294"), "{err}");
                let cells = crate::query::with_scratch(|s| s.table.capacity());
                assert!(cells <= 2 << 16, "{cells}");
                assert_eq!(answer(&clean).unwrap(), fresh);
            });
        });
    }

    #[test]
    fn concurrent_lookups() {
        use std::sync::Arc;
        let db = Database::in_memory().unwrap();
        let m = Arc::new(build_table1(&db));
        let mut handles = Vec::new();
        for t in 0..4 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let input = if (t + i) % 2 == 0 {
                        Record::new(&["Beoing Company", "Seattle", "WA", "98004"])
                    } else {
                        Record::new(&["Bon Corp", "Seattle", "WA", "98014"])
                    };
                    let result = m.lookup(&input, 1, 0.0).unwrap();
                    assert!(!result.matches.is_empty());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
