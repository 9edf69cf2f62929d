//! End-to-end protocol tests against a real listening server: framing
//! errors, deadlines, overload, the keys the benchmark reads, and the
//! lossless shutdown drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use fm_core::telemetry::{histogram_from_samples, parse_exposition, sample_value};
use fm_core::{Config, FuzzyMatcher, Record};
use fm_server::{Client, ClientError, Json, Server, ServerConfig};
use fm_store::lockorder::Flag;
use fm_store::Database;

/// Table-1-style reference data (paper §1).
fn reference_rows() -> Vec<Record> {
    vec![
        Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
        Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
        Record::new(&["Casual Corner", "Redmond", "WA", "98052"]),
        Record::new(&["Company Boeing", "Bellevue", "WA", "98004"]),
        Record::new(&["Microsoft Corporation", "Redmond", "WA", "98052"]),
        Record::new(&["Nordstrom Incorporated", "Seattle", "WA", "98101"]),
    ]
}

fn dirty_input() -> Record {
    Record::new(&["Beoing Company", "Seattle", "WA", "98004"])
}

/// An in-memory database with a matcher over [`reference_rows`].
fn build_matcher() -> (Arc<FuzzyMatcher>, Arc<Database>) {
    let db = Arc::new(Database::in_memory().expect("in-memory db"));
    let core_config = Config::default().with_columns(&["name", "city", "state", "zip"]);
    let matcher = Arc::new(
        FuzzyMatcher::build(&db, "reference", reference_rows().into_iter(), core_config)
            .expect("build matcher"),
    );
    (matcher, db)
}

/// Build an in-memory matcher and start a server over it.
fn start_server(config: ServerConfig) -> (Server, String) {
    let (matcher, db) = build_matcher();
    let server = Server::start("127.0.0.1:0", matcher, db, config).expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn shutdown_and_wait(server: Server, addr: &str) -> fm_server::ServerReport {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown verb");
    server.wait()
}

#[test]
fn lookup_round_trip_and_health() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.health().expect("health"), "serving");

    let reply = client.lookup(&dirty_input(), 1, 0.0).expect("lookup");
    assert!(reply.ok, "lookup failed: {}", reply.error);
    assert_eq!(reply.matches.len(), 1);
    assert_eq!(
        reply.matches[0].record[0].as_deref(),
        Some("Boeing Company"),
        "the dirty input must fuzzy-match its clean source tuple"
    );
    assert!(reply.matches[0].similarity > 0.5);
    assert!(reply.latency_us >= reply.lookup_us);

    let report = shutdown_and_wait(server, &addr);
    assert!(report.metrics.lookups >= 1);
    assert_eq!(report.counters.frames, report.counters.responses);
}

#[test]
fn malformed_frame_gets_400_and_connection_survives() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    let reply = client
        .request(&Json::obj(vec![("verb", Json::from("fly"))]))
        .expect("reply to bad verb");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(reply.get("code").and_then(Json::as_u64), Some(400));

    // Raw garbage payload inside a well-formed frame: still 400, and the
    // connection must stay usable afterwards.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let garbage = b"this is not json";
    raw.write_all(&(garbage.len() as u32).to_be_bytes())
        .expect("len");
    raw.write_all(garbage).expect("payload");
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("reply len");
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut payload).expect("reply payload");
    let text = String::from_utf8(payload).expect("utf-8 reply");
    assert!(text.contains("\"code\":400"), "got: {text}");
    drop(raw);

    // The first client's connection survived its own 400.
    assert_eq!(client.health().expect("health after 400"), "serving");

    let report = shutdown_and_wait(server, &addr);
    assert_eq!(report.counters.malformed, 2);
    assert_eq!(report.counters.frames, report.counters.responses);
}

#[test]
fn oversized_frame_gets_413_then_close() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut raw = TcpStream::connect(&addr).expect("connect");
    // Announce a 2 MiB payload; never send it.
    raw.write_all(&(2u32 << 20).to_be_bytes()).expect("len");
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("reply len");
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut payload).expect("reply payload");
    let text = String::from_utf8(payload).expect("utf-8 reply");
    assert!(text.contains("\"code\":413"), "got: {text}");
    // The server must close: the stream position is unrecoverable.
    let n = raw.read(&mut [0u8; 16]).expect("read after 413");
    assert_eq!(n, 0, "connection should be closed after an oversized frame");

    let report = shutdown_and_wait(server, &addr);
    assert_eq!(report.counters.oversized, 1);
    assert_eq!(report.counters.frames, report.counters.responses);
}

#[test]
fn queued_request_past_deadline_gets_408() {
    let config = ServerConfig {
        workers: 1,
        allow_sleep: true,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(config);

    // Occupy the only worker for 400 ms from one connection...
    let addr_sleeper = addr.clone();
    let sleeper = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_sleeper).expect("connect sleeper");
        client
            .lookup_with(&dirty_input(), 1, 0.0, None, 400)
            .expect("sleeper lookup")
    });
    std::thread::sleep(Duration::from_millis(100));

    // ...so this 50 ms-deadline request expires while queued.
    let mut client = Client::connect(&addr).expect("connect");
    let reply = client
        .lookup_with(&dirty_input(), 1, 0.0, Some(50), 0)
        .expect("deadline lookup");
    assert!(!reply.ok);
    assert_eq!(
        reply.code, 408,
        "expected deadline_exceeded: {}",
        reply.error
    );

    let slept = sleeper.join().expect("sleeper thread");
    assert!(slept.ok, "sleeper should still succeed: {}", slept.error);

    let report = shutdown_and_wait(server, &addr);
    assert_eq!(report.counters.deadline_expired, 1);
    assert_eq!(report.counters.frames, report.counters.responses);
}

#[test]
fn overload_beyond_queue_depth_gets_503() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        max_inflight: 10, // out of the way: the queue is the limiter here
        allow_sleep: true,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(config);

    let addr_sleeper = addr.clone();
    let sleeper = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_sleeper).expect("connect sleeper");
        client
            .lookup_with(&dirty_input(), 1, 0.0, None, 400)
            .expect("sleeper lookup")
    });
    std::thread::sleep(Duration::from_millis(100)); // sleeper now holds the worker

    // Fills the depth-1 queue and blocks awaiting the worker.
    let addr_queued = addr.clone();
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_queued).expect("connect queued");
        client
            .lookup(&dirty_input(), 1, 0.0)
            .expect("queued lookup")
    });
    std::thread::sleep(Duration::from_millis(100));

    // Queue full → explicit overload reply, immediately.
    let mut client = Client::connect(&addr).expect("connect");
    let reply = client
        .lookup(&dirty_input(), 1, 0.0)
        .expect("overload lookup");
    assert!(!reply.ok);
    assert_eq!(reply.code, 503, "expected overload: {}", reply.error);
    assert!(reply.error.contains("overloaded"), "got: {}", reply.error);

    assert!(sleeper.join().expect("sleeper").ok);
    assert!(queued.join().expect("queued").ok);

    let report = shutdown_and_wait(server, &addr);
    assert_eq!(report.counters.rejected_overload, 1);
    assert_eq!(report.counters.frames, report.counters.responses);
}

#[test]
fn inflight_cap_rejects_before_queue() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 8,
        max_inflight: 1,
        allow_sleep: true,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(config);

    let addr_sleeper = addr.clone();
    let sleeper = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_sleeper).expect("connect sleeper");
        client
            .lookup_with(&dirty_input(), 1, 0.0, None, 300)
            .expect("sleeper lookup")
    });
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(&addr).expect("connect");
    let reply = client
        .lookup(&dirty_input(), 1, 0.0)
        .expect("capped lookup");
    assert!(!reply.ok);
    assert_eq!(reply.code, 503);
    assert!(reply.error.contains("in flight"), "got: {}", reply.error);

    assert!(sleeper.join().expect("sleeper").ok);
    let report = shutdown_and_wait(server, &addr);
    assert_eq!(report.counters.rejected_overload, 1);
}

#[test]
fn lookup_batch_verb_returns_per_input_results() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let inputs = Json::Arr(vec![
        fm_server::record_to_json(&dirty_input()),
        fm_server::record_to_json(&Record::new(&["Microsoft Corp", "Redmond", "WA", "98052"])),
    ]);
    let reply = client
        .request(&Json::obj(vec![
            ("verb", Json::from("lookup_batch")),
            ("inputs", inputs),
            ("k", Json::from(1u64)),
        ]))
        .expect("batch reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let results = reply
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(results.len(), 2);
    for result in results {
        let matches = result
            .get("matches")
            .and_then(Json::as_arr)
            .expect("matches");
        assert_eq!(matches.len(), 1);
    }
    shutdown_and_wait(server, &addr);
}

#[test]
fn trace_slowest_sees_server_traffic() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..3 {
        assert!(client.lookup(&dirty_input(), 1, 0.0).expect("lookup").ok);
    }
    let reply = client.trace_slowest(16).expect("trace_slowest");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let traces = reply
        .get("traces")
        .and_then(Json::as_arr)
        .expect("traces array");
    let query = traces
        .iter()
        .find(|t| t.get("kind").and_then(Json::as_str) == Some("query"))
        .expect("server-originated query spans must reach the flight recorder");
    let counters = query
        .get("counters")
        .expect("a query trace carries counters");
    for (name, _) in fm_core::LookupTrace::default().named() {
        assert!(counters.get(name).is_some(), "trace counters lack {name}");
    }
    shutdown_and_wait(server, &addr);
}

#[test]
fn stats_verb_reports_metrics_store_and_server_counters() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    assert!(client.lookup(&dirty_input(), 1, 0.0).expect("lookup").ok);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let metrics = stats.get("metrics").expect("metrics section");
    assert!(metrics.get("lookups").and_then(Json::as_u64) >= Some(1));
    assert!(metrics.get("qgrams_probed").and_then(Json::as_u64) >= Some(1));
    let store = stats.get("store").expect("store section");
    assert!(store.get("hits").and_then(Json::as_u64).is_some());
    let counters = stats.get("server").expect("server section");
    assert!(counters.get("frames").and_then(Json::as_u64) >= Some(1));
    shutdown_and_wait(server, &addr);
}

/// The benchmark package reads `server.batched_lookups` and
/// `server.max_queue_depth` from `stats`, and the `lookup` verb's
/// queue/service/write phase histograms from `metrics`. After real
/// lookups through two workers they are all there, `batched_lookups`
/// reads 0 (no lookups are fused), and no per-replica family is left.
#[test]
fn stats_and_metrics_keep_the_keys_the_benchmark_reads() {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(config);
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..4 {
        assert!(client.lookup(&dirty_input(), 1, 0.0).expect("lookup").ok);
    }
    let stats = client.stats().expect("stats");
    let counters = stats.get("server").expect("server section");
    assert_eq!(
        counters.get("batched_lookups").and_then(Json::as_u64),
        Some(0)
    );
    assert!(counters.get("max_queue_depth").and_then(Json::as_u64) >= Some(1));
    let text = client.metrics_text().expect("metrics");
    for phase in ["queue", "service", "write"] {
        for suffix in ["sum", "count"] {
            let head = format!("fm_server_phase_us_{suffix}{{verb=\"lookup\",phase=\"{phase}\"}}");
            assert!(text.contains(&head), "no {head} in:\n{text}");
        }
    }
    assert!(
        !text.contains("replica"),
        "a replica family survives:\n{text}"
    );
    shutdown_and_wait(server, &addr);
}

/// The value of an *unlabelled* sample in Prometheus exposition text.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    let samples = parse_exposition(text).expect("exposition parses");
    sample_value(&samples, name, &[])
}

#[test]
fn metrics_exposition_matches_stats_exactly_when_quiesced() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..5 {
        assert!(client.lookup(&dirty_input(), 1, 0.0).expect("lookup").ok);
    }

    // Quiesced: this connection is the only client and every lookup has
    // been answered, so the scrape and the stats call read identical
    // matcher state.
    let text = client.metrics_text().expect("metrics");
    let summary = fm_core::telemetry::validate_exposition(&text).expect("exposition must validate");
    assert!(
        summary.samples > 20,
        "suspiciously small scrape: {summary:?}"
    );
    assert!(summary.histogram_series >= 2, "{summary:?}");

    let stats = client.stats().expect("stats");
    let metrics = stats.get("metrics").expect("metrics section");
    let latency = metrics.get("latency").expect("latency section");
    let count = latency.get("count").and_then(Json::as_u64).expect("count");
    let sum_us = latency
        .get("sum_us")
        .and_then(Json::as_u64)
        .expect("sum_us");
    assert_eq!(
        prom_value(&text, "fm_lookup_latency_us_count"),
        Some(count as f64)
    );
    assert_eq!(
        prom_value(&text, "fm_lookup_latency_us_sum"),
        Some(sum_us as f64)
    );
    // One counter list feeds both replies: every matcher counter is in
    // each, under the same name, with the same value; every serving
    // counter is in each too (those move with this very exchange).
    for (name, _) in fm_core::MetricsSnapshot::default().named() {
        let from_stats = metrics.get(name).and_then(Json::as_u64).expect(name);
        assert_eq!(
            prom_value(&text, &format!("fm_{name}_total")),
            Some(from_stats as f64),
            "counter {name} must agree between metrics and stats"
        );
    }
    for (name, _) in fm_server::CountersSnapshot::default().named() {
        let server = stats.get("server").expect("server section");
        assert!(server.get(name).is_some(), "stats has no server.{name}");
        assert!(prom_value(&text, &format!("fm_server_{name}_total")).is_some());
    }

    // The worker path fed the per-verb phase histograms.
    assert!(
        text.contains("fm_server_phase_us_bucket{verb=\"lookup\",phase=\"service\""),
        "missing lookup service histogram in:\n{text}"
    );
    assert!(
        text.contains("fm_server_phase_us_bucket{verb=\"lookup\",phase=\"write\""),
        "missing lookup write histogram"
    );
    let report = shutdown_and_wait(server, &addr);
    assert_eq!(report.counters.frames, report.counters.responses);
}

/// A window is the difference of two cumulative scrapes: across N
/// lookups `fm_lookups_total` and the lookup service histogram's count
/// move by exactly N, and across an idle gap by exactly 0.
#[test]
fn two_metrics_scrapes_differ_by_exactly_the_traffic_between_them() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let reading = |client: &mut Client| {
        let samples = parse_exposition(&client.metrics_text().expect("metrics")).expect("parses");
        let service = [("verb", "lookup"), ("phase", "service")];
        (
            sample_value(&samples, "fm_lookups_total", &[]).expect("lookup counter") as u64,
            histogram_from_samples(&samples, "fm_server_phase_us", &service)
                .unwrap_or_default()
                .count,
        )
    };
    assert!(client.lookup(&dirty_input(), 1, 0.0).expect("lookup").ok);
    let before = reading(&mut client);
    for _ in 0..8 {
        assert!(client.lookup(&dirty_input(), 1, 0.0).expect("lookup").ok);
    }
    let after = reading(&mut client);
    assert_eq!((after.0 - before.0, after.1 - before.1), (8, 8));
    std::thread::sleep(Duration::from_millis(100));
    let idle = reading(&mut client);
    assert_eq!(idle, after, "an idle gap moves no counter");
    shutdown_and_wait(server, &addr);
}

#[test]
fn queue_wait_and_slow_log_surface_in_stats() {
    let config = ServerConfig {
        workers: 1,
        allow_sleep: true,
        slow_us: 1000,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(config);

    // Occupy the only worker so the next lookup measurably queues.
    let addr_sleeper = addr.clone();
    let sleeper = std::thread::spawn(move || {
        let mut client = Client::connect(&addr_sleeper).expect("connect sleeper");
        client
            .lookup_with(&dirty_input(), 1, 0.0, None, 300)
            .expect("sleeper lookup")
    });
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(&addr).expect("connect");
    assert!(client.lookup(&dirty_input(), 1, 0.0).expect("queued").ok);
    assert!(sleeper.join().expect("sleeper").ok);

    let stats = client.stats().expect("stats");
    let server_section = stats.get("server").expect("server section");
    assert!(
        server_section.get("queue_waits").and_then(Json::as_u64) >= Some(1),
        "the queued lookup must be counted"
    );
    assert!(
        server_section.get("queue_wait_us").and_then(Json::as_u64) >= Some(50_000),
        "~200 ms of queueing must surface in queue_wait_us: {server_section}"
    );
    // The 300 ms sleeper blew the 1 ms slow threshold.
    assert!(
        server_section.get("slow_logged").and_then(Json::as_u64) >= Some(1),
        "slow requests must reach the slow-query log"
    );
    shutdown_and_wait(server, &addr);
}

/// A slow-log file that cannot be opened fails `start` and names the
/// path, rather than serving with a log that counts lines it never writes.
#[test]
fn an_unopenable_slow_log_fails_start_naming_the_path() {
    let path = std::env::temp_dir()
        .join(format!("fm-server-no-such-dir-{}", std::process::id()))
        .join("slow.jsonl");
    let (matcher, db) = build_matcher();
    let config = ServerConfig {
        slow_us: 1,
        slow_log: Some(path.clone()),
        ..ServerConfig::default()
    };
    let err = Server::start("127.0.0.1:0", matcher, db, config)
        .err()
        .expect("start must fail on an unopenable slow log");
    let message = err.to_string();
    assert!(
        message.contains("slow log") && message.contains(&path.display().to_string()),
        "got: {message}"
    );
    assert!(!path.exists());
}

/// The drain test: concurrent clients hammer `lookup` while one issues
/// `shutdown`, with lookups served in parallel by two workers. The drain
/// must complete, and no in-flight response may be lost — every frame
/// the server decoded gets exactly one response attempt.
#[test]
fn shutdown_drains_without_losing_inflight_responses() {
    let config = ServerConfig {
        workers: 2,
        queue_depth: 32,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(config);
    let draining = Arc::new(Flag::new(false));

    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let draining = Arc::clone(&draining);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect hammer");
                let mut answered = 0u64;
                let mut ok = 0u64;
                loop {
                    match client.lookup(&dirty_input(), 1, 0.0) {
                        Ok(reply) => {
                            answered += 1;
                            if reply.ok {
                                ok += 1;
                            } else {
                                // Overload or drain rejections are valid
                                // responses; stop once the drain begins.
                                assert_eq!(reply.code, 503, "unexpected: {}", reply.error);
                                if draining.load() {
                                    break;
                                }
                            }
                        }
                        // The connection closing is only acceptable once
                        // the drain is under way.
                        Err(ClientError::Disconnected) => {
                            assert!(
                                draining.load(),
                                "server closed a connection before shutdown"
                            );
                            break;
                        }
                        Err(e) => panic!("hammer request failed: {e}"),
                    }
                }
                (answered, ok)
            })
        })
        .collect();

    // Let the hammering build up real concurrency, then drain.
    std::thread::sleep(Duration::from_millis(200));
    {
        let mut client = Client::connect(&addr).expect("connect shutdown");
        draining.store(true);
        client.shutdown().expect("shutdown verb");
        assert_eq!(client.health().expect("health while draining"), "draining");
    }

    let mut answered = 0u64;
    let mut ok = 0u64;
    for hammer in hammers {
        let (a, o) = hammer.join().expect("hammer thread");
        answered += a;
        ok += o;
    }
    assert!(ok > 0, "hammers should have completed some lookups");

    let report = server.wait();
    assert!(
        report.counters.ledger_balanced(),
        "every decoded request frame must get exactly one response attempt: \
         {} frames vs {} responses + {} write failures",
        report.counters.frames,
        report.counters.responses,
        report.counters.write_failures
    );
    // The hammers here wait for every reply before disconnecting, so the
    // stronger invariant also holds in this test: no reply attempt ever
    // hit a closed socket.
    assert_eq!(
        report.counters.write_failures, 0,
        "no lost in-flight responses"
    );
    assert!(report.counters.responses >= answered);
    assert!(report.metrics.lookups >= ok);
}
