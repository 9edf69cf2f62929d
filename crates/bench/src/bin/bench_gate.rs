//! CI bench gate: a small deterministic fig6/fig8/fig9 micro-harness.
//!
//! Runs three representative strategies over one Type-I dataset and writes
//! a machine-readable JSON report with per-strategy counters, batch
//! timings, per-phase span totals from the flight recorder, and a
//! telemetry-overhead measurement (the same matcher + store served by 2
//! worker/replica pairs to 4 closed-loop clients, with the sampler at
//! aggressive 25 ms windows vs sampler-off). `cargo xtask bench` runs this
//! binary and fails on >20% regressions of the deterministic counters
//! against the committed `BENCH_baseline.json`. Tracing overhead is
//! measured at 10^5 tuples by the benchmark (`bench.trace_overhead_pct`).
//!
//! Counters are exactly reproducible given `--seed`; wall-clock numbers
//! are environment-dependent and only warned about by the gate.

use std::fmt::Write as _;
use std::time::Instant;

use fm_bench::{make_dataset, run_strategy, Strategy, Workbench};
use fm_core::{QueryMode, SignatureScheme};
use fm_datagen::ErrorModel;

struct GateOpts {
    quick: bool,
    out: String,
    reps: usize,
    seed: u64,
}

fn parse_args() -> GateOpts {
    let mut opts = GateOpts {
        quick: false,
        out: "target/bench_gate.json".to_string(),
        reps: 3,
        seed: 2003,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                opts.quick = true;
                opts.reps = opts.reps.max(5);
            }
            "--out" => {
                i += 1;
                opts.out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("missing value for --out");
                    std::process::exit(2);
                });
            }
            "--reps" => {
                i += 1;
                opts.reps = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--reps N");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                i += 1;
                opts.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed N");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: [--quick] [--out FILE] [--reps N] [--seed N]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    opts
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push('0');
    }
}

fn main() {
    let gate = parse_args();
    let (ref_size, inputs) = if gate.quick {
        (5_000, 400)
    } else {
        (50_000, 1655)
    };
    let opts = fm_bench::Opts {
        ref_size,
        inputs,
        seed: gate.seed,
        naive_samples: 1,
        out: "results".to_string(),
    };

    fm_core::tracing::set_enabled(true);
    fm_core::tracing::recorder().clear();

    let bench = Workbench::new(&opts);
    let dataset = make_dataset(
        &bench.reference,
        opts.inputs,
        &fm_datagen::D2_PROBS,
        ErrorModel::TypeI,
        opts.seed,
    );

    // fig6/fig8/fig9 micro-harness: one light, one medium, one heavy
    // signature strategy.
    let strategies = [
        Strategy {
            scheme: SignatureScheme::QGrams,
            h: 1,
        },
        Strategy {
            scheme: SignatureScheme::QGramsPlusToken,
            h: 2,
        },
        Strategy {
            scheme: SignatureScheme::QGramsPlusToken,
            h: 3,
        },
    ];
    let mut rows = Vec::new();
    for s in &strategies {
        let row = run_strategy(&bench, s, &dataset, QueryMode::Osc);
        eprintln!(
            "[gate] {:>6}: accuracy {:.1}%, batch {:.1} ms, {:.2} fetches/input, {:.1} tids/input",
            row.strategy,
            row.accuracy * 100.0,
            row.batch_time.as_secs_f64() * 1e3,
            row.avg_fetches,
            row.avg_tids,
        );
        rows.push(row);
    }

    // Per-phase span totals over whatever the flight recorder retained.
    let mut phases: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for trace in fm_core::tracing::recorder().all() {
        for span in &trace.spans {
            *phases.entry(span.name).or_default() += span.duration_us();
        }
    }

    let (_, build_time) = bench.matcher(&strategies[2]);

    // The served workload: the same matcher + store behind 2
    // worker/replica pairs, hammered by 4 closed-loop clients.
    let served_requests: usize = if gate.quick { 100 } else { 250 };
    let served_db =
        std::sync::Arc::new(fm_store::Database::in_memory().expect("in-memory database"));
    let (served_matcher, _) =
        fm_bench::build_matcher(&served_db, &bench.reference, &strategies[2], gate.seed);
    let served_matcher = std::sync::Arc::new(served_matcher);
    let measure_qps = |telemetry_window_ms: u64| -> f64 {
        let server = fm_server::Server::start(
            "127.0.0.1:0",
            std::sync::Arc::clone(&served_matcher),
            std::sync::Arc::clone(&served_db),
            fm_server::ServerConfig {
                workers: 2,
                replicas: 2,
                telemetry_window_ms,
                ..fm_server::ServerConfig::default()
            },
        )
        .expect("bench server");
        let addr = server.local_addr().to_string();
        let start = Instant::now();
        let answered: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4usize)
                .map(|t| {
                    let addr = &addr;
                    let inputs = &dataset.inputs;
                    scope.spawn(move || {
                        let mut client = fm_server::Client::connect(addr).expect("connect");
                        let mut ok = 0u64;
                        for i in 0..served_requests {
                            let input = &inputs[(t * served_requests + i) % inputs.len()];
                            if client.lookup(input, 1, 0.0).expect("lookup reply").ok {
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .sum()
        });
        let wall = start.elapsed().as_secs_f64();
        server.shutdown();
        assert_eq!(
            answered,
            4 * served_requests as u64,
            "served run dropped lookups"
        );
        answered as f64 / wall.max(1e-9)
    };
    // Telemetry overhead: the same served workload with the sampler off
    // (`telemetry_window_ms: 0`) vs aggressively on (25 ms windows —
    // 40x the default sampling rate, so the gate bounds a worst case).
    // Paired interleaved reps: scheduling and frequency noise on a shared
    // box hits both sides of a back-to-back pair roughly equally, so the
    // minimum per-pair ratio is the signal.
    let _ = measure_qps(0); // warmup
    let mut telemetry_off_qps = 0.0f64;
    let mut telemetry_on_qps = 0.0f64;
    let mut telemetry_best_ratio = f64::INFINITY;
    for _ in 0..gate.reps.max(1) {
        let off = measure_qps(0);
        let on = measure_qps(25);
        telemetry_off_qps = telemetry_off_qps.max(off);
        telemetry_on_qps = telemetry_on_qps.max(on);
        telemetry_best_ratio = telemetry_best_ratio.min(off / on.max(1e-9));
    }
    let telemetry_overhead_pct = ((telemetry_best_ratio - 1.0) * 100.0).max(0.0);
    eprintln!(
        "[gate] telemetry overhead: sampler on {telemetry_on_qps:.1} qps vs off \
         {telemetry_off_qps:.1} qps ({telemetry_overhead_pct:.2}% at 25 ms windows)"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": 1,\n  \"quick\": {},", gate.quick);
    let _ = writeln!(
        json,
        "  \"ref_size\": {ref_size},\n  \"inputs\": {inputs},\n  \"seed\": {},",
        gate.seed
    );
    json.push_str("  \"build_ms\": ");
    push_f64(&mut json, build_time.as_secs_f64() * 1e3);
    json.push_str(",\n  \"strategies\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let batch_ms = r.batch_time.as_secs_f64() * 1e3;
        let throughput = inputs as f64 / r.batch_time.as_secs_f64().max(1e-9);
        let _ = write!(json, "    {{\"strategy\": \"{}\", ", r.strategy);
        json.push_str("\"batch_ms\": ");
        push_f64(&mut json, batch_ms);
        json.push_str(", \"throughput_per_s\": ");
        push_f64(&mut json, throughput);
        for (key, v) in [
            ("accuracy", r.accuracy),
            ("avg_fetches", r.avg_fetches),
            ("avg_tids", r.avg_tids),
            ("avg_eti_lookups", r.avg_eti_lookups),
            ("avg_eti_rows", r.avg_eti_rows),
            ("avg_fms_evals", r.avg_fms_evals),
            ("avg_apx_pruned", r.avg_apx_pruned),
        ] {
            let _ = write!(json, ", \"{key}\": ");
            push_f64(&mut json, v);
        }
        json.push('}');
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"telemetry\": {\"qps_on\": ");
    push_f64(&mut json, telemetry_on_qps);
    json.push_str(", \"qps_off\": ");
    push_f64(&mut json, telemetry_off_qps);
    json.push_str(", \"overhead_pct\": ");
    push_f64(&mut json, telemetry_overhead_pct);
    json.push_str(", \"window_ms\": 25");
    json.push_str("},\n  \"phases_us\": {");
    for (i, (name, us)) in phases.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{name}\": {us}");
    }
    json.push_str("}\n}\n");

    std::fs::write(&gate.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", gate.out);
        std::process::exit(1);
    });
    eprintln!("[gate] wrote {}", gate.out);
}
