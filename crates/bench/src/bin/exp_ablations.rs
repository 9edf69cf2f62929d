//! Ablations of the design choices DESIGN.md §10 calls out:
//!
//! 1. query algorithm: basic vs OSC(sound) vs OSC(paper-example) —
//!    accuracy / fetches / short-circuit rate (the trade-off behind the
//!    paper's §4.3.2 and our `OscStopping` knob);
//! 2. candidate cap sweep (`max_candidates`);
//! 3. stop q-gram threshold sweep;
//! 4. `c_ins` (token insertion factor) sweep;
//! 5. token transposition operation on/off, on a transposition-heavy
//!    error mix (§5.3);
//! 6. column weights on/off with a deliberately noisy column (§5.2).

use fm_bench::{make_dataset, write_csv, Opts, Table};
use fm_core::{Config, FuzzyMatcher, OscStopping, QueryMode, Record, TranspositionCost};
use fm_datagen::{generate_customers, GeneratorConfig, CUSTOMER_COLUMNS, D2_PROBS};
use fm_datagen::{ErrorModel, InputDataset};
use fm_store::Database;

struct Ctx {
    reference: Vec<Record>,
    dataset: InputDataset,
    opts: Opts,
}

fn accuracy_and_stats(matcher: &FuzzyMatcher, ctx: &Ctx, mode: QueryMode) -> (f64, f64, f64) {
    let mut correct = 0usize;
    let mut fetches = 0u64;
    let mut successes = 0usize;
    for (i, input) in ctx.dataset.inputs.iter().enumerate() {
        let result = matcher.lookup_with(input, 1, 0.0, mode).expect("lookup");
        let m = result.matches.first();
        if fm_bench::answer_correct(
            &ctx.reference,
            ctx.dataset.targets[i],
            m.map(|m| m.tid),
            m.map(|m| &m.record),
        ) {
            correct += 1;
        }
        fetches += result.trace.candidates_fetched;
        successes += usize::from(result.trace.osc_succeeded());
    }
    let n = ctx.dataset.inputs.len() as f64;
    (correct as f64 / n, fetches as f64 / n, successes as f64 / n)
}

fn base_config(opts: &Opts) -> Config {
    Config::default()
        .with_columns(&CUSTOMER_COLUMNS)
        .with_seed(opts.seed)
}

fn build(db: &Database, prefix: &str, ctx: &Ctx, config: Config) -> FuzzyMatcher {
    FuzzyMatcher::build(db, prefix, ctx.reference.iter().cloned(), config).expect("build")
}

fn main() {
    let mut opts = Opts::from_args();
    if opts.ref_size == Opts::default().ref_size {
        opts.ref_size = 20_000; // ablations sweep many configs; keep each cheap
    }
    if opts.inputs == Opts::default().inputs {
        opts.inputs = 400;
    }
    let reference = generate_customers(&GeneratorConfig::new(opts.ref_size, opts.seed));
    let dataset = make_dataset(
        &reference,
        opts.inputs,
        &D2_PROBS,
        ErrorModel::TypeI,
        opts.seed + 50,
    );
    let ctx = Ctx {
        reference,
        dataset,
        opts: opts.clone(),
    };
    let db = Database::in_memory().expect("db");

    // 1. Query algorithm / OSC stopping flavor.
    let mut t1 = Table::new(
        "Ablation 1 — query algorithm (D2-style errors)",
        &["algorithm", "accuracy", "avg fetches", "OSC success"],
    );
    let sound = build(&db, "a1s", &ctx, base_config(&opts));
    let paper = build(
        &db,
        "a1p",
        &ctx,
        base_config(&opts).with_osc_stopping(OscStopping::PaperExample),
    );
    for (name, matcher, mode) in [
        ("basic", &sound, QueryMode::Basic),
        ("osc (sound bound)", &sound, QueryMode::Osc),
        ("osc (paper-example bound)", &paper, QueryMode::Osc),
    ] {
        let (acc, fetches, succ) = accuracy_and_stats(matcher, &ctx, mode);
        t1.row(vec![
            name.to_string(),
            format!("{:.1}%", acc * 100.0),
            format!("{fetches:.1}"),
            format!("{succ:.2}"),
        ]);
    }
    write_csv(&t1, &opts.out, "ablation1_algorithm");

    // 2. Candidate cap sweep.
    let mut t2 = Table::new(
        "Ablation 2 — verification cap (max_candidates)",
        &["cap", "accuracy", "avg fetches"],
    );
    for cap in [4usize, 16, 64, 256, 0] {
        let m = build(
            &db,
            &format!("a2_{cap}"),
            &ctx,
            base_config(&opts).with_max_candidates(cap),
        );
        let (acc, fetches, _) = accuracy_and_stats(&m, &ctx, QueryMode::Osc);
        t2.row(vec![
            if cap == 0 {
                "unlimited".into()
            } else {
                cap.to_string()
            },
            format!("{:.1}%", acc * 100.0),
            format!("{fetches:.1}"),
        ]);
    }
    write_csv(&t2, &opts.out, "ablation2_candidate_cap");

    // 3. Stop q-gram threshold sweep.
    let mut t3 = Table::new(
        "Ablation 3 — stop q-gram threshold",
        &["threshold", "accuracy", "eti entries"],
    );
    for threshold in [50usize, 500, 10_000, usize::MAX / 2] {
        let m = build(
            &db,
            &format!("a3_{threshold}"),
            &ctx,
            base_config(&opts).with_stop_threshold(threshold),
        );
        let (acc, _, _) = accuracy_and_stats(&m, &ctx, QueryMode::Osc);
        t3.row(vec![
            if threshold > 1_000_000 {
                "disabled".into()
            } else {
                threshold.to_string()
            },
            format!("{:.1}%", acc * 100.0),
            m.eti_entry_count().expect("count").to_string(),
        ]);
    }
    write_csv(&t3, &opts.out, "ablation3_stop_threshold");

    // 4. cins sweep.
    let mut t4 = Table::new(
        "Ablation 4 — token insertion factor c_ins",
        &["cins", "accuracy"],
    );
    for cins in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let m = build(
            &db,
            &format!("a4_{}", (cins * 100.0) as u32),
            &ctx,
            base_config(&opts).with_cins(cins),
        );
        let (acc, _, _) = accuracy_and_stats(&m, &ctx, QueryMode::Osc);
        t4.row(vec![format!("{cins:.2}"), format!("{:.1}%", acc * 100.0)]);
    }
    write_csv(&t4, &opts.out, "ablation4_cins");

    // 5. Transposition op on a transposition-heavy error mix: corrupt only
    //    by swapping adjacent name tokens, then compare.
    let mut swapped_inputs = Vec::new();
    let mut swapped_targets = Vec::new();
    for (i, r) in ctx.reference.iter().enumerate().take(opts.inputs) {
        let name = r.get(0).unwrap();
        let mut tokens: Vec<&str> = name.split(' ').collect();
        if tokens.len() >= 2 {
            tokens.swap(0, 1);
            swapped_inputs.push(Record::new(&[
                &tokens.join(" "),
                r.get(1).unwrap_or(""),
                r.get(2).unwrap_or(""),
                r.get(3).unwrap_or(""),
            ]));
            swapped_targets.push(i);
        }
    }
    let mut t5 = Table::new(
        "Ablation 5 — token transposition op (§5.3) on swapped-token inputs",
        &["transposition", "accuracy", "mean fms(target)"],
    );
    for (name, config) in [
        ("off", base_config(&opts)),
        (
            "constant 0.25",
            base_config(&opts).with_transposition(TranspositionCost::Constant(0.25)),
        ),
        (
            "average",
            base_config(&opts).with_transposition(TranspositionCost::Average),
        ),
        (
            "min",
            base_config(&opts).with_transposition(TranspositionCost::Min),
        ),
    ] {
        let m = build(
            &db,
            &format!("a5_{}", name.replace([' ', '.'], "_")),
            &ctx,
            config,
        );
        let mut correct = 0usize;
        let mut fms_sum = 0.0;
        for (input, &target) in swapped_inputs.iter().zip(&swapped_targets) {
            let result = m.lookup(input, 1, 0.0).expect("lookup");
            if let Some(top) = result.matches.first() {
                if fm_bench::answer_correct(
                    &ctx.reference,
                    target,
                    Some(top.tid),
                    Some(&top.record),
                ) {
                    correct += 1;
                }
            }
            fms_sum += m.fms(input, &ctx.reference[target]);
        }
        let n = swapped_inputs.len() as f64;
        t5.row(vec![
            name.to_string(),
            format!("{:.1}%", correct as f64 / n * 100.0),
            format!("{:.3}", fms_sum / n),
        ]);
    }
    write_csv(&t5, &opts.out, "ablation5_transposition");

    // 6. Column weights with a noisy column: zero out the zip column's
    //    information by corrupting it always, then see whether down-weighting
    //    it helps.
    let noisy = make_dataset(
        &ctx.reference,
        opts.inputs,
        &[0.5, 0.3, 0.3, 1.0], // zip always corrupted
        ErrorModel::TypeI,
        opts.seed + 60,
    );
    let noisy_ctx = Ctx {
        reference: ctx.reference.clone(),
        dataset: noisy,
        opts: opts.clone(),
    };
    let mut t6 = Table::new(
        "Ablation 6 — column weights (§5.2) when one column is pure noise",
        &["column weights [name,city,state,zip]", "accuracy"],
    );
    for (name, config) in [
        ("uniform", base_config(&opts)),
        (
            "[2.0, 1.0, 1.0, 0.25]",
            base_config(&opts).with_column_weights(&[2.0, 1.0, 1.0, 0.25]),
        ),
    ] {
        let m = build(&db, &format!("a6_{}", name.len()), &noisy_ctx, config);
        let (acc, _, _) = accuracy_and_stats(&m, &noisy_ctx, QueryMode::Osc);
        t6.row(vec![name.to_string(), format!("{:.1}%", acc * 100.0)]);
    }
    write_csv(&t6, &opts.out, "ablation6_column_weights");

    let _ = ctx.opts;
}
