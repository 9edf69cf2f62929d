//! `cargo xtask deepcheck` — exercise every `check_invariants()` validator
//! in the workspace against a realistically-churned instance.
//!
//! The lint pass proves the code *looks* right; this pass proves the data
//! structures *are* right: it builds a reference relation from the datagen
//! customer generator, constructs the ETI and weight tables over it, churns
//! the index with inserts and deletes, then asks every layer — slotted
//! pages, B+-trees, heap files, WAL, catalog, ETI, weight tables, matcher —
//! to re-derive its own invariants from raw bytes and compare against its
//! bookkeeping. Any drift is a bug in maintenance code, not in the checker.

use fm_core::{Config, FuzzyMatcher};
use fm_datagen::{generate_customers, GeneratorConfig, CUSTOMER_COLUMNS};
use fm_store::{Database, Pager, WalPager, PAGE_SIZE};

pub fn run() -> i32 {
    match deepcheck() {
        Ok(()) => {
            println!("deepcheck: ok");
            0
        }
        Err(e) => {
            eprintln!("deepcheck: FAILED: {e}");
            1
        }
    }
}

fn deepcheck() -> Result<(), String> {
    check_matcher_stack()?;
    check_metrics_stack()?;
    check_wal_stack()?;
    check_durable_reopen()?;
    Ok(())
}

/// Run a batch of lookups and validate the observability layer: every
/// per-query trace must be internally consistent, the metrics registry must
/// equal the exact sum of the traces (no lost relaxed-atomic updates), and
/// the snapshot's own invariants must hold.
fn check_metrics_stack() -> Result<(), String> {
    let db = Database::in_memory().map_err(|e| e.to_string())?;
    let config = Config::default().with_columns(&CUSTOMER_COLUMNS);
    let reference = generate_customers(&GeneratorConfig::new(400, 43));
    let matcher = FuzzyMatcher::build(&db, "metrics", reference.iter().cloned(), config)
        .map_err(|e| format!("metrics build: {e}"))?;

    let inputs: Vec<_> = reference.iter().take(64).cloned().collect();
    let results = matcher
        .lookup_batch(&inputs, 2, 0.0, 4)
        .map_err(|e| format!("metrics batch: {e}"))?;
    // Every counter of the registry must be the sum of the traces'.
    let mut summed: Vec<(&str, u64)> = fm_core::LookupTrace::default().named().collect();
    for r in &results {
        r.trace
            .check_consistent()
            .map_err(|e| format!("trace: {e}"))?;
        for (sum, (_, value)) in summed.iter_mut().zip(r.trace.named()) {
            sum.1 += value;
        }
    }
    let snapshot = matcher.metrics_snapshot();
    if snapshot.lookups != results.len() as u64 {
        return Err(format!(
            "registry counted {} lookups, ran {}",
            snapshot.lookups,
            results.len()
        ));
    }
    let registered: Vec<(&str, u64)> = snapshot.totals.named().collect();
    if registered != summed {
        return Err(format!(
            "registry drifted from the trace sum: {registered:?} vs {summed:?}"
        ));
    }
    let check = snapshot
        .check_invariants()
        .map_err(|e| format!("metrics snapshot: {e}"))?;
    println!(
        "deepcheck: metrics ok — {} lookups, {} fms evaluations, {} histogram events",
        check.lookups, check.fms_evals, check.histogram_events
    );
    Ok(())
}

/// Build + churn a matcher over generated customers, then validate the
/// matcher, its weight tables, and the whole database underneath it.
fn check_matcher_stack() -> Result<(), String> {
    let db = Database::in_memory().map_err(|e| e.to_string())?;
    let config = Config::default().with_columns(&CUSTOMER_COLUMNS);
    let reference = generate_customers(&GeneratorConfig::new(600, 42));
    let matcher = FuzzyMatcher::build(&db, "deepcheck", reference.iter().cloned(), config)
        .map_err(|e| format!("matcher build: {e}"))?;

    // Churn: deletions and re-insertions stress the incremental-maintenance
    // paths (ETI tid-list surgery, weight-table frequency updates, tombstone
    // handling) that a pristine build never touches.
    for tid in [3u32, 57, 101, 400] {
        matcher
            .delete_reference(tid)
            .map_err(|e| format!("churn delete {tid}: {e}"))?;
    }
    for record in generate_customers(&GeneratorConfig::new(25, 777)) {
        matcher
            .insert_reference(&record)
            .map_err(|e| format!("churn insert: {e}"))?;
    }

    let report = matcher
        .check_invariants()
        .map_err(|e| format!("matcher: {e}"))?;
    println!(
        "deepcheck: matcher ok — {} reference tuples, {} distinct tokens, \
         eti: {} groups / {} chunks / {} stop rows / {} tids",
        report.reference_tuples,
        report.distinct_tokens,
        report.eti.groups,
        report.eti.chunks,
        report.eti.stop_groups,
        report.eti.tids
    );

    // The bounded (hash-bucketed) weight table is derived, not maintained;
    // rebuild one from the live frequencies and confirm it agrees.
    let weights = matcher.clone_weights();
    weights
        .check_invariants()
        .map_err(|e| format!("weight table: {e}"))?;
    let freqs = weights.frequencies();
    fm_core::weights::BoundedWeightTable::new(freqs, 1024, 7)
        .check_consistent_with(freqs)
        .map_err(|e| format!("bounded weight table: {e}"))?;

    let dbreport = db
        .check_invariants()
        .map_err(|e| format!("database: {e}"))?;
    println!(
        "deepcheck: database ok — {} tables, {} indexes, {} meta blobs",
        dbreport.tables, dbreport.indexes, dbreport.meta_blobs
    );
    Ok(())
}

/// Validate the WAL pager through a log-write/sync cycle.
fn check_wal_stack() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("fm-deepcheck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("wal-check.db");
    let result = (|| -> Result<(), String> {
        let pager = WalPager::open(&path).map_err(|e| e.to_string())?;
        let a = pager.allocate().map_err(|e| e.to_string())?;
        let b = pager.allocate().map_err(|e| e.to_string())?;
        pager
            .write_page(a, &[0xAB; PAGE_SIZE])
            .map_err(|e| e.to_string())?;
        pager
            .write_page(b, &[0xCD; PAGE_SIZE])
            .map_err(|e| e.to_string())?;
        pager
            .write_page(a, &[0xEF; PAGE_SIZE])
            .map_err(|e| e.to_string())?;
        let busy = pager
            .check_invariants()
            .map_err(|e| format!("wal (pre-sync): {e}"))?;
        if busy.records != 3 || busy.resident_pages != 2 {
            return Err(format!(
                "wal should hold 3 records over 2 pages before sync, found {busy:?}"
            ));
        }
        pager.sync().map_err(|e| e.to_string())?;
        let clean = pager
            .check_invariants()
            .map_err(|e| format!("wal (post-sync): {e}"))?;
        if clean.records != 0 || clean.resident_pages != 0 {
            return Err(format!(
                "wal should be empty after checkpoint, found {clean:?}"
            ));
        }
        println!(
            "deepcheck: wal ok — checkpoint drained {} records",
            busy.records
        );
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Round-trip a durable database through close/reopen, validating after both.
fn check_durable_reopen() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("fm-deepcheck-db-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("durable.db");
    let result = (|| -> Result<(), String> {
        {
            let db = Database::open_file_durable(&path, 64).map_err(|e| e.to_string())?;
            let config = Config::default().with_columns(&CUSTOMER_COLUMNS);
            let reference = generate_customers(&GeneratorConfig::new(120, 9));
            let matcher = FuzzyMatcher::build(&db, "durable", reference.into_iter(), config)
                .map_err(|e| format!("durable build: {e}"))?;
            matcher
                .check_invariants()
                .map_err(|e| format!("durable matcher: {e}"))?;
            db.check_invariants()
                .map_err(|e| format!("durable database: {e}"))?;
            db.flush().map_err(|e| e.to_string())?;
        }
        let db = Database::open_file_durable(&path, 64).map_err(|e| e.to_string())?;
        let report = db
            .check_invariants()
            .map_err(|e| format!("database after reopen: {e}"))?;
        let matcher =
            FuzzyMatcher::open(&db, "durable").map_err(|e| format!("durable reopen: {e}"))?;
        matcher
            .check_invariants()
            .map_err(|e| format!("matcher after reopen: {e}"))?;
        println!(
            "deepcheck: durable reopen ok — {} tables, {} indexes survived",
            report.tables, report.indexes
        );
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}
