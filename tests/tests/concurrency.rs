//! Concurrency: one matcher served from many threads (the online
//! data-cleaning deployment shape), including lookups racing maintenance.

use std::sync::atomic::{AtomicUsize, Ordering};

use fm_core::Record;
use fm_datagen::{make_inputs, ErrorModel, ErrorSpec, D3_PROBS};
use fm_integration::{assert_registry_moved_by, build, customer_config, customers};

#[test]
fn parallel_lookups_equal_serial_lookups() {
    let reference = customers(1500, 31);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        200,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 32),
    );
    // Serial ground truth.
    let serial: Vec<Option<(u32, u64)>> = ds
        .inputs
        .iter()
        .map(|input| {
            matcher
                .lookup(input, 1, 0.0)
                .expect("lookup")
                .matches
                .first()
                .map(|m| (m.tid, m.similarity.to_bits()))
        })
        .collect();
    // Parallel re-run with a shared cursor.
    type Answer = Option<(u32, u64)>;
    let results: Vec<std::sync::Mutex<Option<Answer>>> = (0..ds.inputs.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ds.inputs.len() {
                    break;
                }
                let got = matcher
                    .lookup(&ds.inputs[i], 1, 0.0)
                    .expect("lookup")
                    .matches
                    .first()
                    .map(|m| (m.tid, m.similarity.to_bits()));
                *results[i].lock().unwrap() = Some(got);
            });
        }
    });
    for (i, cell) in results.iter().enumerate() {
        let got = cell.lock().unwrap().expect("every input processed");
        assert_eq!(got, serial[i], "parallel result differs at input {i}");
    }
}

#[test]
fn lookups_racing_maintenance_stay_valid() {
    let reference = customers(800, 33);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        300,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 34),
    );
    let done = fm_store::lockorder::Flag::new(false);
    std::thread::scope(|scope| {
        // Writer: stream of new reference tuples.
        let writer_matcher = &matcher;
        let writer_done = &done;
        scope.spawn(move || {
            for i in 0..80 {
                writer_matcher
                    .insert_reference(&Record::new(&[
                        &format!("race{i} industries"),
                        "tacoma",
                        "wa",
                        &format!("98{i:03}"),
                    ]))
                    .expect("insert");
            }
            writer_done.store(true);
        });
        // Readers: every answer must be internally consistent.
        let done = &done;
        let matcher = &matcher;
        let ds = &ds;
        for t in 0..3usize {
            scope.spawn(move || {
                let mut i = t;
                while !done.load() || i < ds.inputs.len() {
                    if i >= ds.inputs.len() {
                        break;
                    }
                    let result = matcher.lookup(&ds.inputs[i], 2, 0.0).expect("lookup");
                    for m in &result.matches {
                        assert!((0.0..=1.0).contains(&m.similarity));
                        assert!(m.tid >= 1);
                        assert_eq!(m.record.arity(), 4);
                    }
                    i += 3;
                }
            });
        }
    });
    assert_eq!(matcher.relation_size(), 880);
    // All maintained tuples findable afterwards.
    let result = matcher
        .lookup(
            &Record::new(&["race79 industries", "tacoma", "wa", "98079"]),
            1,
            0.0,
        )
        .expect("lookup");
    assert_eq!(result.matches[0].record.get(0), Some("race79 industries"));
}

#[test]
fn metrics_snapshot_equals_sum_of_batch_traces() {
    // The registry aggregates with relaxed atomics across lookup_batch's
    // worker threads; no update may be lost or double-counted, so the
    // snapshot delta must equal the sum of the per-query traces exactly.
    let reference = customers(1200, 36);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        160,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 37),
    );
    let before = matcher.metrics_snapshot();
    let results = matcher.lookup_batch(&ds.inputs, 2, 0.0, 8).expect("batch");
    let after = matcher.metrics_snapshot();

    let traces: Vec<_> = results.iter().map(|r| r.trace).collect();
    assert_registry_moved_by(&before, &after, &traces);
    after.check_invariants().expect("snapshot invariants");
}

#[test]
fn lock_order_holds_under_lookup_maintenance_mix() {
    // `fm_store::lockorder` asserts (under debug_assertions, which is how
    // this test runs) that every thread acquires the ranked locks in the
    // canonical order `lockorder::ORDER`. Drive every ranked lock
    // concurrently: a file-backed durable database so page
    // writebacks append to the WAL, a small pool so lookups evict (state →
    // wal while holding the pool mutex), lookups (weights → latch → state),
    // maintenance (weights → latch → tail_hint), checkpoints (wal held
    // across main-file writeback), and catalog metadata traffic (objects).
    // Any out-of-order acquisition panics the offending thread and fails
    // the test.
    let mut path = std::env::temp_dir();
    path.push(format!("fm-int-{}-lockorder.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let wal_path = {
        let mut w = path.clone().into_os_string();
        w.push(".wal");
        std::path::PathBuf::from(w)
    };
    let _ = std::fs::remove_file(&wal_path);

    let reference = customers(600, 39);
    let db = fm_store::Database::open_file_durable(&path, 64).expect("create");
    let matcher =
        fm_core::FuzzyMatcher::build(&db, "cust", reference.iter().cloned(), customer_config())
            .expect("build");
    let ds = make_inputs(
        &reference,
        120,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 40),
    );

    std::thread::scope(|scope| {
        let matcher = &matcher;
        let db = &db;
        let ds = &ds;
        // Maintenance: inserts and deletes take the weight-table write lock,
        // then the tid/frequency index latches and the heap tail hint.
        scope.spawn(move || {
            for i in 0..40u32 {
                let tid = matcher
                    .insert_reference(&Record::new(&[
                        &format!("order{i} llc"),
                        "spokane",
                        "wa",
                        &format!("99{i:03}"),
                    ]))
                    .expect("insert");
                if i % 2 == 0 {
                    matcher.delete_reference(tid).expect("delete");
                }
            }
        });
        // Checkpointer: flush writes dirty frames (state, then wal per
        // page) and then checkpoints, holding the wal mutex across the
        // main-file writeback; metadata puts exercise the catalog mutex.
        scope.spawn(move || {
            for j in 0..10u32 {
                db.flush().expect("flush");
                db.put_meta("lockorder-beat", &j.to_le_bytes())
                    .expect("put_meta");
                assert!(db.get_meta("lockorder-beat").is_some());
            }
        });
        // Readers.
        for t in 0..3usize {
            scope.spawn(move || {
                let mut i = t;
                while i < ds.inputs.len() {
                    // A candidate tid harvested from the ETI may be deleted
                    // before its reference row is fetched; that surfaces as
                    // NotFound and is an accepted outcome of this race — the
                    // test is about lock ordering, not snapshot isolation.
                    match matcher.lookup(&ds.inputs[i], 2, 0.0) {
                        Ok(result) => {
                            for m in &result.matches {
                                assert!((0.0..=1.0).contains(&m.similarity));
                            }
                        }
                        Err(fm_core::CoreError::Store(fm_store::StoreError::NotFound(_))) => {}
                        Err(e) => panic!("lookup: {e}"),
                    }
                    i += 3;
                }
            });
        }
    });
    // Full sweeps nest objects → latch → state and weights → latch → state.
    db.check_invariants().expect("db invariants");
    matcher.check_invariants().expect("matcher invariants");
    assert_eq!(matcher.relation_size(), 600 + 20);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn lock_order_holds_on_the_miss_path_under_a_tiny_pool() {
    // The FRAME rank (state < frame-data < wal) is only exercised when
    // frames actually fault in and write back: the pin_frame miss path
    // takes the victim's write latch inside the shard lock, drops the
    // shard lock across the IO, and must drop the frame token before
    // re-taking the shard lock to publish. A 32-frame durable pool under
    // 600 references guarantees every thread below evicts constantly, so
    // any inversion in that window asserts (debug_assertions) and fails
    // the test. The stats check proves the window ran — a pool big enough
    // to never miss would make this test vacuously green.
    let mut path = std::env::temp_dir();
    path.push(format!("fm-int-{}-misspath.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let wal_path = {
        let mut w = path.clone().into_os_string();
        w.push(".wal");
        std::path::PathBuf::from(w)
    };
    let _ = std::fs::remove_file(&wal_path);

    let reference = customers(600, 47);
    let db = fm_store::Database::open_file_durable(&path, 32).expect("create");
    let matcher =
        fm_core::FuzzyMatcher::build(&db, "cust", reference.iter().cloned(), customer_config())
            .expect("build");
    let ds = make_inputs(
        &reference,
        60,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 48),
    );
    let before = db.stats();

    std::thread::scope(|scope| {
        let matcher = &matcher;
        let db = &db;
        let ds = &ds;
        // Maintenance dirties pages so concurrent evictions write back
        // (FRAME → WAL inside the miss window).
        scope.spawn(move || {
            for i in 0..30u32 {
                matcher
                    .insert_reference(&Record::new(&[
                        &format!("evict{i} inc"),
                        "tacoma",
                        "wa",
                        &format!("98{i:03}"),
                    ]))
                    .expect("insert");
            }
        });
        // Flusher: the write-back read latch is the other FRAME window.
        scope.spawn(move || {
            for _ in 0..6 {
                db.flush().expect("flush");
            }
        });
        // Readers fault pages in and park on loading frames.
        for t in 0..3usize {
            scope.spawn(move || {
                let mut i = t;
                while i < ds.inputs.len() {
                    match matcher.lookup(&ds.inputs[i], 2, 0.0) {
                        Ok(result) => {
                            for m in &result.matches {
                                assert!((0.0..=1.0).contains(&m.similarity));
                            }
                        }
                        Err(fm_core::CoreError::Store(fm_store::StoreError::NotFound(_))) => {}
                        Err(e) => panic!("lookup: {e}"),
                    }
                    i += 3;
                }
            });
        }
    });
    let after = db.stats();
    assert!(
        after.misses > before.misses,
        "the tiny pool must fault pages in ({} → {})",
        before.misses,
        after.misses
    );
    assert!(
        after.pages_written > before.pages_written,
        "evictions must write dirty pages back ({} → {})",
        before.pages_written,
        after.pages_written
    );
    db.check_invariants().expect("db invariants");
    matcher.check_invariants().expect("matcher invariants");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn many_threads_hammering_one_hot_input() {
    let reference = customers(500, 35);
    let (_db, matcher) = build(&reference, customer_config());
    let input = Record::new(&[
        reference[0].get(0).unwrap(),
        reference[0].get(1).unwrap(),
        reference[0].get(2).unwrap(),
        reference[0].get(3).unwrap(),
    ]);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..100 {
                    let result = matcher.lookup(&input, 1, 0.0).expect("lookup");
                    let top = result.matches.first().expect("exact match exists");
                    assert!((top.similarity - 1.0).abs() < 1e-12);
                }
            });
        }
    });
}
