//! The shared-read lookup path: one matcher handle over one store,
//! shared by reference across many threads. The threads share the buffer
//! pool, the structural latches, the weight table, and the metrics
//! registry — so every test here asserts an *exact* property:
//! bitwise-identical results, invariant-clean interleavings, or
//! to-the-unit counter totals. "Close enough" from a thread means the
//! latching protocol is broken.

use fm_core::{FuzzyMatcher, MatchResult, Record};
use fm_datagen::{make_inputs, ErrorModel, ErrorSpec, D3_PROBS};
use fm_integration::{assert_registry_moved_by, build, customer_config, customers};

/// Full fingerprint of one answer: every match's tid and the exact bit
/// pattern of its similarity. Two fingerprints are equal only if the
/// lookups were indistinguishable.
fn fingerprint(result: &MatchResult) -> Vec<(u32, u64)> {
    result
        .matches
        .iter()
        .map(|m| (m.tid, m.similarity.to_bits()))
        .collect()
}

/// N threads × M lookups against a *small* file-backed pool, so
/// the sharded buffer pool's miss path (evict → write back → fault in,
/// all outside the shard lock) runs constantly under contention. Every
/// answer must be bitwise identical to the single-threaded baseline.
#[test]
fn shared_lookups_bitwise_identical_to_single_thread() {
    let mut path = std::env::temp_dir();
    path.push(format!("fm-int-{}-shared-stress.db", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let reference = customers(1000, 71);
    let db = fm_store::Database::open_file(&path, 64).expect("create");
    let matcher = FuzzyMatcher::build(&db, "cust", reference.iter().cloned(), customer_config())
        .expect("build");
    let ds = make_inputs(
        &reference,
        150,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 72),
    );

    let baseline: Vec<Vec<(u32, u64)>> = ds
        .inputs
        .iter()
        .map(|input| fingerprint(&matcher.lookup(input, 2, 0.0).expect("baseline lookup")))
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (matcher, ds, baseline) = (&matcher, &ds, &baseline);
                scope.spawn(move || {
                    // Each thread walks the inputs from a different phase
                    // so distinct threads fault distinct pages at once.
                    for step in 0..ds.inputs.len() {
                        let i = (step + t * 37) % ds.inputs.len();
                        let got =
                            fingerprint(&matcher.lookup(&ds.inputs[i], 2, 0.0).expect("lookup"));
                        assert_eq!(
                            got, baseline[i],
                            "thread {t} diverged from the baseline at input {i}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("lookup thread");
        }
    });

    drop(matcher);
    drop(db);
    let _ = std::fs::remove_file(&path);
}

/// Reader threads racing `insert_reference`/`delete_reference` rounds,
/// with `check_invariants()` after every round: interleavings may change
/// *which* matches a reader sees mid-maintenance, but never hand out a
/// torn page, a similarity outside [0, 1], or a structurally invalid
/// ETI/weight table.
#[test]
fn readers_vs_maintenance_interleaving_keeps_invariants() {
    let reference = customers(700, 73);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        90,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 74),
    );

    for round in 0..5u32 {
        std::thread::scope(|scope| {
            // Maintenance through the same handle: insert a batch, delete
            // every other new tid, while the readers below are running.
            let writer = &matcher;
            scope.spawn(move || {
                for i in 0..8u32 {
                    let tid = writer
                        .insert_reference(&Record::new(&[
                            &format!("round{round} venture {i}"),
                            "olympia",
                            "wa",
                            &format!("98{i:03}"),
                        ]))
                        .expect("insert");
                    if i % 2 == 0 {
                        writer.delete_reference(tid).expect("delete");
                    }
                }
            });
            for t in 0..3usize {
                let (matcher, ds) = (&matcher, &ds);
                scope.spawn(move || {
                    for step in 0..30 {
                        let i = (step * 7 + t) % ds.inputs.len();
                        match matcher.lookup(&ds.inputs[i], 2, 0.0) {
                            Ok(result) => {
                                result.trace.check_consistent().expect("trace invariants");
                                for m in &result.matches {
                                    assert!((0.0..=1.0).contains(&m.similarity));
                                    assert!(m.tid >= 1);
                                    assert_eq!(m.record.arity(), 4);
                                }
                            }
                            // A candidate deleted between its ETI hit and
                            // the reference fetch surfaces as NotFound —
                            // an accepted outcome of the race, never a
                            // torn result.
                            Err(fm_core::CoreError::Store(fm_store::StoreError::NotFound(_))) => {}
                            Err(e) => panic!("reader failed: {e}"),
                        }
                    }
                });
            }
        });
        matcher
            .check_invariants()
            .unwrap_or_else(|e| panic!("invariants broken after round {round}: {e}"));
    }
}

/// Property, over several generator seeds and split shapes: a batch
/// split across threads (each part running concurrently through the one
/// handle) equals a single `lookup_batch`, fingerprint for fingerprint,
/// in input order.
#[test]
fn batch_split_across_threads_equals_single_batch() {
    for seed in [75u64, 76, 77] {
        let reference = customers(900, seed);
        let (_db, matcher) = build(&reference, customer_config());
        let ds = make_inputs(
            &reference,
            96,
            &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, seed + 100),
        );

        let single: Vec<Vec<(u32, u64)>> = matcher
            .lookup_batch(&ds.inputs, 2, 0.0, 1)
            .expect("single batch")
            .iter()
            .map(fingerprint)
            .collect();

        // Derive an uneven, seed-dependent 3-way split (cut points vary
        // per seed, parts are non-empty and ordered).
        let n = ds.inputs.len();
        let cut1 = 1 + (seed as usize * 29) % (n / 2);
        let cut2 = cut1 + 1 + (seed as usize * 13) % (n - cut1 - 1);
        let parts = [
            &ds.inputs[..cut1],
            &ds.inputs[cut1..cut2],
            &ds.inputs[cut2..],
        ];

        let split: Vec<Vec<(u32, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|part| {
                    let matcher = &matcher;
                    scope.spawn(move || {
                        matcher
                            .lookup_batch(part, 2, 0.0, 2)
                            .expect("part batch")
                            .iter()
                            .map(fingerprint)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("batch thread"))
                .collect()
        });

        assert_eq!(
            split, single,
            "seed {seed}: batch split at ({cut1}, {cut2}) across threads \
             differs from one lookup_batch"
        );
    }
}

/// Trace aggregation under contention: after 8 threads hammer one
/// handle, its registry delta must equal the sum of every returned
/// per-query trace EXACTLY — a lost or double-counted update anywhere
/// shows up as an off-by-n here.
#[test]
fn metrics_totals_exact_across_eight_threads() {
    let reference = customers(1100, 79);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        240,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 80),
    );

    let before = matcher.metrics_snapshot();
    let traces: Vec<fm_core::LookupTrace> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let (matcher, ds) = (&matcher, &ds);
                scope.spawn(move || {
                    // Contiguous chunk per thread: all 240 inputs exactly
                    // once across the 8 threads.
                    let chunk = ds.inputs.len() / 8;
                    (t * chunk..(t + 1) * chunk)
                        .map(|i| matcher.lookup(&ds.inputs[i], 2, 0.0).expect("lookup").trace)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("lookup thread"))
            .collect()
    });
    let after = matcher.metrics_snapshot();

    assert_eq!(traces.len(), 240);
    assert_registry_moved_by(&before, &after, &traces);
    after.check_invariants().expect("snapshot invariants");
}
