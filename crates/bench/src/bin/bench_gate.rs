//! Telemetry-sampler overhead gate.
//!
//! Serves the 5k-tuple Q+T_3 matcher (seed 2003) with 2 workers to 4
//! closed-loop clients × 100 lookups, once with the sampler off and once
//! at 25 ms windows (40x the default rate, so this bounds a worst case).
//! After one warm-up run it takes 5 interleaved off/on pairs: scheduling
//! and frequency noise on a shared box hits both sides of a back-to-back
//! pair roughly equally, so the minimum per-pair ratio is the signal.
//! Prints both rates and exits 1 when the overhead exceeds 5%.
//!
//! The quick corpus's deterministic counters are the
//! `strategy_counters` test's; tracing overhead is the benchmark's
//! `bench.trace_overhead_pct`.

use std::sync::Arc;
use std::time::Instant;

use fm_bench::{make_dataset, Opts, Strategy, Workbench};
use fm_core::{FuzzyMatcher, SignatureScheme};
use fm_datagen::ErrorModel;
use fm_server::{Client, Server, ServerConfig};
use fm_store::Database;

const SEED: u64 = 2003;
const CLIENTS: usize = 4;
const REQUESTS: usize = 100;
const REPS: usize = 5;
const WINDOW_MS: u64 = 25;
const MAX_OVERHEAD_PCT: f64 = 5.0;

/// Sampler overhead in percent from paired `(off, on)` qps: the smallest
/// off/on ratio over the pairs, floored at 0.
fn overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    let ratio = pairs
        .iter()
        .map(|&(off, on)| off / on.max(1e-9))
        .fold(f64::INFINITY, f64::min);
    ((ratio - 1.0) * 100.0).max(0.0)
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("bench_gate takes no arguments, got {arg}");
        std::process::exit(2);
    }
    let opts = Opts {
        ref_size: 5_000,
        inputs: 400,
        seed: SEED,
        ..Opts::default()
    };
    let bench = Workbench::new(&opts);
    let inputs = make_dataset(
        &bench.reference,
        opts.inputs,
        &fm_datagen::D2_PROBS,
        ErrorModel::TypeI,
        SEED,
    )
    .inputs;
    let strategy = Strategy {
        scheme: SignatureScheme::QGramsPlusToken,
        h: 3,
    };
    let db = Arc::new(Database::in_memory().expect("in-memory database"));
    let matcher = FuzzyMatcher::build(
        &db,
        "gate",
        bench.reference.iter().cloned(),
        strategy.config(SEED),
    );
    let matcher = Arc::new(matcher.expect("matcher build"));

    let measure_qps = |telemetry_window_ms: u64| -> f64 {
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&matcher),
            Arc::clone(&db),
            ServerConfig {
                workers: 2,
                telemetry_window_ms,
                ..ServerConfig::default()
            },
        )
        .expect("bench server");
        let addr = server.local_addr().to_string();
        let start = Instant::now();
        let answered: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let (addr, inputs) = (&addr, &inputs);
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        (0..REQUESTS)
                            .filter(|i| {
                                let input = &inputs[(t * REQUESTS + i) % inputs.len()];
                                client.lookup(input, 1, 0.0).expect("lookup reply").ok
                            })
                            .count()
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
        assert_eq!(answered, CLIENTS * REQUESTS, "served run dropped lookups");
        answered as f64 / wall.max(1e-9)
    };

    let _ = measure_qps(0); // warm-up
    let pairs: Vec<(f64, f64)> = (0..REPS)
        .map(|_| (measure_qps(0), measure_qps(WINDOW_MS)))
        .collect();
    let best = |side: fn(&(f64, f64)) -> f64| pairs.iter().map(side).fold(0.0, f64::max);
    let pct = overhead_pct(&pairs);
    println!(
        "bench_gate: sampler on {:.1} qps vs off {:.1} qps: {pct:.2}% overhead at \
         {WINDOW_MS} ms windows (limit {MAX_OVERHEAD_PCT}%)",
        best(|p| p.1),
        best(|p| p.0),
    );
    if pct > MAX_OVERHEAD_PCT {
        eprintln!("bench_gate: FAIL sampler overhead {pct:.2}% exceeds {MAX_OVERHEAD_PCT}%");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_the_best_pair_and_arms_at_5pct() {
        // The best pair decides: one noisy pair does not fail the gate.
        let ok = overhead_pct(&[(1024.0, 1000.0), (1300.0, 1000.0)]);
        assert!((ok - 2.4).abs() < 1e-9 && ok <= MAX_OVERHEAD_PCT);
        let slow = overhead_pct(&[(1071.0, 1000.0), (1100.0, 1000.0)]);
        assert!((slow - 7.1).abs() < 1e-9 && slow > MAX_OVERHEAD_PCT);
        // Sampler-on faster than off is no overhead, not a negative one.
        assert_eq!(overhead_pct(&[(900.0, 1000.0)]), 0.0);
    }
}
