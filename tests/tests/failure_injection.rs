//! Failure injection: I/O faults must surface as errors, never as panics
//! or silent corruption.

use fm_core::{CoreError, FuzzyMatcher};
use fm_integration::{customer_config, customers};
use fm_store::{Database, FaultPager, MemPager, StoreError};

fn faulty_db(budget: u64) -> fm_store::Result<Database> {
    Database::with_pager(Box::new(FaultPager::new(MemPager::new(), budget)), 256)
}

#[test]
fn build_with_exhausted_io_budget_fails_cleanly() {
    let reference = customers(500, 41);
    // Sweep budgets so the fault lands in different build phases: database
    // init, table creation, row insertion, ETI write.
    let mut saw_fault = false;
    let mut saw_success = false;
    for budget in [0u64, 2, 5, 20, 200, 2000, 20_000] {
        match faulty_db(budget) {
            Err(StoreError::InjectedFault) => {
                saw_fault = true;
                continue;
            }
            Err(e) => panic!("unexpected database error {e}"),
            Ok(db) => {
                match FuzzyMatcher::build(&db, "cust", reference.iter().cloned(), customer_config())
                {
                    Err(CoreError::Store(StoreError::InjectedFault)) => saw_fault = true,
                    Err(e) => panic!("unexpected build error {e}"),
                    Ok(matcher) => {
                        saw_success = true;
                        assert_eq!(matcher.relation_size(), 500);
                        // A build that survived its faults must be coherent.
                        matcher.check_invariants().expect("matcher invariants");
                        db.check_invariants().expect("database invariants");
                    }
                }
            }
        }
    }
    assert!(saw_fault, "no budget hit the fault path");
    assert!(saw_success, "no budget allowed a full build");
}

#[test]
fn query_time_fault_surfaces_as_error() {
    // Pick a budget where the build succeeds but a flood of queries on a
    // tiny (always-missing) buffer pool eventually faults: errors must
    // propagate as `CoreError::Store(InjectedFault)`, never panic.
    // Enough reference tuples that one lookup's working set (many distinct
    // ETI leaves) exceeds the 8-frame pool, forcing I/O per query.
    // Cycling over many *different* inputs keeps rotating distinct ETI
    // leaves through the tiny pool, so queries must keep reading pages.
    let reference = customers(2500, 42);
    let mut exercised = false;
    let mut budget = 50_000u64;
    for _ in 0..12 {
        let db = match Database::with_pager(
            Box::new(FaultPager::new(MemPager::new(), budget)),
            8, // tiny pool: every lookup faults pages in
        ) {
            Ok(db) => db,
            Err(StoreError::InjectedFault) => {
                budget *= 2;
                continue;
            }
            Err(e) => panic!("unexpected db error {e}"),
        };
        match FuzzyMatcher::build(&db, "cust", reference.iter().cloned(), customer_config()) {
            Err(CoreError::Store(StoreError::InjectedFault)) => {
                budget *= 2;
                continue;
            }
            Err(e) => panic!("unexpected build error {e}"),
            Ok(matcher) => {
                // Build fit in the budget; queries must eventually exhaust
                // the remainder.
                let mut faulted = false;
                'outer: for _ in 0..200 {
                    for r in &reference {
                        let input = fm_core::Record::new(&[
                            r.get(0).unwrap(),
                            r.get(1).unwrap(),
                            r.get(2).unwrap(),
                            r.get(3).unwrap(),
                        ]);
                        match matcher.lookup(&input, 1, 0.0) {
                            Ok(result) => {
                                let top = result.matches.first().expect("exact match");
                                assert!((top.similarity - 1.0).abs() < 1e-12);
                            }
                            Err(CoreError::Store(StoreError::InjectedFault)) => {
                                faulted = true;
                                break 'outer;
                            }
                            Err(e) => panic!("unexpected lookup error {e}"),
                        }
                    }
                }
                assert!(faulted, "queries never exhausted the I/O budget");
                exercised = true;
                break;
            }
        }
    }
    assert!(exercised, "no budget allowed build-then-query-fault");
}

#[test]
fn tiny_buffer_pool_still_correct() {
    // Not a fault, but the adjacent resource-exhaustion path: a pool barely
    // larger than the B+-tree depth must still answer correctly (it just
    // thrashes).
    let reference = customers(400, 43);
    let db = Database::with_pager(Box::new(MemPager::new()), 8).expect("db");
    let matcher = FuzzyMatcher::build(&db, "cust", reference.iter().cloned(), customer_config())
        .expect("build");
    let exact = &reference[7];
    let input = fm_core::Record::new(&[
        exact.get(0).unwrap(),
        exact.get(1).unwrap(),
        exact.get(2).unwrap(),
        exact.get(3).unwrap(),
    ]);
    let result = matcher.lookup(&input, 1, 0.0).expect("lookup");
    assert!((result.matches[0].similarity - 1.0).abs() < 1e-12);
    // The validators walk every page, so they double as a thrash test for
    // the 8-frame pool.
    matcher
        .check_invariants()
        .expect("matcher invariants under tiny pool");
    db.check_invariants()
        .expect("database invariants under tiny pool");
}

#[test]
fn fault_mid_maintenance_leaves_queries_working_for_old_data() {
    let reference = customers(300, 44);
    // Plenty for the build (300 tuples fit the 64-frame pool); maintenance
    // exhausts it after a few thousand inserts. Sized to the store's own
    // I/O: bit-packed posting chunks keep the fillers' rows small enough
    // that 200 000 inserts fit in 20 000 operations.
    let budget = 500u64;
    let db =
        Database::with_pager(Box::new(FaultPager::new(MemPager::new(), budget)), 64).expect("db");
    let matcher = FuzzyMatcher::build(&db, "cust", reference.iter().cloned(), customer_config())
        .expect("build");
    // Exhaust the budget with maintenance inserts until one faults.
    let mut faulted = false;
    for i in 0..200_000 {
        match matcher.insert_reference(&fm_core::Record::new(&[
            &format!("filler{i} corp"),
            "seattle",
            "wa",
            "98001",
        ])) {
            Ok(_) => {}
            Err(CoreError::Store(StoreError::InjectedFault)) => {
                faulted = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(faulted, "budget never exhausted");
    // Cached pages may still serve reads; whatever happens must be an
    // error or a valid answer — never a panic.
    let input = fm_core::Record::new(&[
        reference[0].get(0).unwrap(),
        reference[0].get(1).unwrap(),
        reference[0].get(2).unwrap(),
        reference[0].get(3).unwrap(),
    ]);
    match matcher.lookup(&input, 1, 0.0) {
        Ok(result) => {
            for m in result.matches {
                assert!((0.0..=1.0).contains(&m.similarity));
            }
        }
        Err(CoreError::Store(StoreError::InjectedFault)) => {}
        Err(e) => panic!("unexpected error {e}"),
    }
}
