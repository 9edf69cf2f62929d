//! Moderate-scale end-to-end checks: accuracy floors, stats sanity, batch
//! parallel matching, and the spill-forced build at a few thousand tuples.
//! (The full 100k-tuple evaluation lives in the `fm-bench` binaries; these
//! tests guard against regressions at a size the test suite can afford.)

use fm_core::{QueryMode, Record};
use fm_datagen::{make_inputs, ErrorModel, ErrorSpec, D2_PROBS, D3_PROBS};
use fm_integration::{build, customer_config, customers};

#[test]
fn five_k_accuracy_floor_d3() {
    let reference = customers(5000, 61);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        300,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 62),
    );
    let mut correct = 0;
    let mut total_lookups = 0u64;
    let mut total_fetches = 0u64;
    for (i, input) in ds.inputs.iter().enumerate() {
        let result = matcher.lookup(input, 1, 0.0).expect("lookup");
        if let Some(m) = result.matches.first() {
            let t = ds.targets[i];
            if m.tid as usize == t + 1 || m.record.values() == reference[t].values() {
                correct += 1;
            }
        }
        total_lookups += result.trace.qgrams_probed;
        total_fetches += result.trace.candidates_fetched;
    }
    let accuracy = correct as f64 / ds.inputs.len() as f64;
    assert!(accuracy > 0.85, "D3 accuracy {accuracy:.3} below floor");
    // At 5k tuples the ETI has real depth and chunked tid-lists; make the
    // validators walk all of it.
    matcher
        .check_invariants()
        .expect("matcher invariants at 5k");
    // Efficiency sanity: far fewer fetches than reference tuples.
    let avg_fetches = total_fetches as f64 / ds.inputs.len() as f64;
    assert!(avg_fetches < 100.0, "avg fetches {avg_fetches:.1} too high");
    assert!(total_lookups > 0);
}

#[test]
fn five_k_type_ii_errors_still_match() {
    let reference = customers(5000, 63);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        200,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeII, 64),
    );
    let mut correct = 0;
    for (i, input) in ds.inputs.iter().enumerate() {
        let result = matcher.lookup(input, 1, 0.0).expect("lookup");
        if let Some(m) = result.matches.first() {
            let t = ds.targets[i];
            if m.tid as usize == t + 1 || m.record.values() == reference[t].values() {
                correct += 1;
            }
        }
    }
    let accuracy = correct as f64 / ds.inputs.len() as f64;
    assert!(
        accuracy > 0.80,
        "Type II accuracy {accuracy:.3} below floor"
    );
}

#[test]
fn batch_parallel_equals_serial_at_scale() {
    let reference = customers(3000, 65);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        120,
        &ErrorSpec::new(&D3_PROBS, ErrorModel::TypeI, 66),
    );
    let serial = matcher.lookup_batch(&ds.inputs, 1, 0.0, 1).expect("serial");
    let parallel = matcher
        .lookup_batch(&ds.inputs, 1, 0.0, 4)
        .expect("parallel");
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.matches.first().map(|m| (m.tid, m.similarity.to_bits())),
            p.matches.first().map(|m| (m.tid, m.similarity.to_bits())),
            "divergence at input {i}"
        );
    }
}

#[test]
fn basic_and_osc_equal_quality_at_scale() {
    let reference = customers(3000, 67);
    let (_db, matcher) = build(&reference, customer_config());
    let ds = make_inputs(
        &reference,
        150,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, 68),
    );
    for input in &ds.inputs {
        let b = matcher
            .lookup_with(input, 1, 0.0, QueryMode::Basic)
            .expect("basic");
        let o = matcher
            .lookup_with(input, 1, 0.0, QueryMode::Osc)
            .expect("osc");
        match (b.matches.first(), o.matches.first()) {
            (Some(x), Some(y)) => assert!(
                (x.similarity - y.similarity).abs() < 1e-9,
                "quality mismatch on {input}"
            ),
            (None, None) => {}
            other => panic!("presence mismatch {other:?}"),
        }
    }
}

#[test]
fn duplicate_heavy_reference_is_handled() {
    // Many exact duplicates: tid-lists get long, ties everywhere; matching
    // must stay correct and deterministic.
    let mut reference: Vec<Record> = Vec::new();
    for i in 0..50 {
        for _ in 0..20 {
            reference.push(Record::new(&[
                &format!("dupe{i} corporation"),
                "seattle",
                "wa",
                "98001",
            ]));
        }
    }
    let (_db, matcher) = build(&reference, customer_config());
    let result = matcher
        .lookup(
            &Record::new(&["dupe7 corp", "seattle", "wa", "98001"]),
            3,
            0.0,
        )
        .expect("lookup");
    assert_eq!(result.matches.len(), 3);
    for m in &result.matches {
        assert_eq!(m.record.get(0), Some("dupe7 corporation"));
    }
    // 20 duplicates of 50 rows chunk the tid-lists aggressively; the ETI
    // validator proves the chunk chains stayed sorted and contiguous.
    matcher
        .check_invariants()
        .expect("matcher invariants with heavy duplicates");
    // Deterministic tie-break: lowest tids first among equals.
    let tids: Vec<u32> = result.matches.iter().map(|m| m.tid).collect();
    let mut sorted = tids.clone();
    sorted.sort_unstable();
    assert_eq!(tids, sorted);
}
