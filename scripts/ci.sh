#!/usr/bin/env sh
# The full pre-PR gate: fmt, clippy, xtask lint, the line budget, xtask
# deepcheck, tests (whose debug builds run the lock-order and
# blocking-point assertions) — then an end-to-end smoke test of the CLI
# observability surface (build a tiny database, run one traced lookup,
# print the stats report) and of the serving layer (fuzzymatch serve +
# ping/client/bench_load/remote traces/drain).
set -eu
cd "$(dirname "$0")/.."

# (`cargo xtask ci` ends by building and testing the benchmark package —
# crates/bench/src/bin/benchmark, outside the workspace — so an API break
# that would stop BENCHMARK.json's command from compiling fails here. Its
# workspace test step runs with --no-fail-fast, so one failing suite does
# not keep the later test binaries from reporting.)
cargo xtask ci

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT INT TERM

cat > "$smoke_dir/ref.csv" <<'EOF'
name,city,state,zip
Boeing Company,Seattle,WA,98004
Bon Corporation,Seattle,WA,98014
Microsoft Corp,Redmond,WA,98052
EOF

cargo run -q --release -p fm-cli -- build \
  --db "$smoke_dir/smoke.fmdb" --reference "$smoke_dir/ref.csv"
# Capture before grepping: `grep -q` exits on first match and the closed
# pipe would kill the still-printing CLI.
trace_out=$(cargo run -q --release -p fm-cli -- lookup \
  --db "$smoke_dir/smoke.fmdb" --input "Beoing Company,Seattle,WA,98004" --trace 2>&1)
printf '%s\n' "$trace_out" | grep -q "fms_evals" ||
  { echo "ci: traced lookup printed no trace" >&2; exit 1; }
stats_out=$(cargo run -q --release -p fm-cli -- stats --db "$smoke_dir/smoke.fmdb")
printf '%s\n' "$stats_out" | grep -q "wal_bytes" ||
  { echo "ci: stats printed no IO report" >&2; exit 1; }

echo "ci: traced-lookup smoke test ok"

# Structured tracing: export a Chrome trace through the CLI and check it
# parses (python if available, otherwise structural greps).
cargo run -q --release -p fm-cli -- trace export \
  --reference "$smoke_dir/ref.csv" \
  --input "Beoing Company,Seattle,WA,98004" \
  --out "$smoke_dir/trace.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir/trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
query = {e["name"] for e in events if e.get("cat") == "query"}
build = {e["name"] for e in events if e.get("cat") == "build"}
assert len(query) >= 6, f"only {len(query)} query phases: {sorted(query)}"
assert {"build", "pre_eti"} <= build, f"build spans missing: {sorted(build)}"
EOF
else
  grep -q '"traceEvents"' "$smoke_dir/trace.json" ||
    { echo "ci: trace export has no traceEvents" >&2; exit 1; }
  grep -q '"name":"probe"' "$smoke_dir/trace.json" ||
    { echo "ci: trace export has no probe span" >&2; exit 1; }
fi
echo "ci: chrome trace export smoke test ok"

# Serving-layer smoke: start fm-server on an ephemeral port, then drive
# it with the real binaries — ping, a client lookup, the remote flight
# recorder, and four concurrent bench_load clients which must see zero
# dropped responses — before asking it to drain.
cargo build -q --release -p fm-cli -p fm-bench --bin fuzzymatch --bin bench_load
./target/release/fuzzymatch serve --db "$smoke_dir/smoke.fmdb" \
  --addr 127.0.0.1:0 --port-file "$smoke_dir/port.txt" \
  --slow-us 1 --slow-log "$smoke_dir/slow.jsonl" &
server_pid=$!
i=0
while [ ! -s "$smoke_dir/port.txt" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "ci: server never wrote its port file" >&2; exit 1; }
  kill -0 "$server_pid" 2>/dev/null || { echo "ci: server died at startup" >&2; exit 1; }
  sleep 0.1
done
addr=$(cat "$smoke_dir/port.txt")

./target/release/fuzzymatch ping --addr "$addr" | grep -q "pong" ||
  { echo "ci: ping got no pong" >&2; exit 1; }
lookup_out=$(./target/release/fuzzymatch client lookup --addr "$addr" \
  --input "Beoing Company,Seattle,WA,98004" 2>&1)
printf '%s\n' "$lookup_out" | grep -q "Boeing Company" ||
  { echo "ci: client lookup found no match: $lookup_out" >&2; exit 1; }
./target/release/bench_load --addr "$addr" \
  --input "Beoing Company,Seattle,WA,98004" --clients 4 --requests 100 |
  grep -q "dropped responses: 0" ||
  { echo "ci: bench_load dropped responses" >&2; exit 1; }
# The stats verb must count the ETI probes the traffic just generated.
server_stats=$(./target/release/fuzzymatch client stats --addr "$addr")
printf '%s\n' "$server_stats" | grep -q '"qgrams_probed":[1-9]' ||
  { echo "ci: server stats counted no q-gram probes: $server_stats" >&2; exit 1; }
# The flight recorder is per-process: server-side query spans are only
# visible through the remote trace_slowest verb.
slowest_out=$(./target/release/fuzzymatch trace slowest 5 --addr "$addr")
printf '%s\n' "$slowest_out" | grep -q "query" ||
  { echo "ci: remote trace slowest shows no query spans: $slowest_out" >&2; exit 1; }
# Continuous telemetry: --check makes the CLI validate the exposition
# (cumulative-bucket monotonicity, +Inf/_count agreement, _sum present)
# before printing; then assert the lookup histogram actually saw the
# traffic the smoke generated.
metrics_out=$(./target/release/fuzzymatch metrics --addr "$addr" --check)
printf '%s\n' "$metrics_out" | grep -q '^fm_lookup_latency_us_bucket{le="0"}' ||
  { echo "ci: exposition has no lookup histogram buckets" >&2; exit 1; }
printf '%s\n' "$metrics_out" | grep -q '^fm_lookup_latency_us_count [1-9]' ||
  { echo "ci: lookup histogram count is zero after real traffic" >&2; exit 1; }
printf '%s\n' "$metrics_out" | grep -q '^fm_server_phase_us_bucket{verb="lookup",phase="service"' ||
  { echo "ci: per-verb phase histograms missing from the scrape" >&2; exit 1; }
# One refresh of the live top view: the difference of two scrapes.
top_out=$(./target/release/fuzzymatch top --addr "$addr" --iterations 1 --interval-ms 100)
printf '%s\n' "$top_out" | grep -q "qps" ||
  { echo "ci: top printed no qps line: $top_out" >&2; exit 1; }
./target/release/fuzzymatch client shutdown --addr "$addr" >/dev/null
wait "$server_pid" ||
  { echo "ci: server exited non-zero after drain" >&2; exit 1; }
echo "ci: serving smoke test ok"

# Concurrent read-path stress under release optimizations, with a
# wall-clock cap: the shared-handle suite must not just pass but finish
# promptly — a latching bug that deadlocks (readers parked on a loading
# frame that never publishes, a shard lock held across IO) would
# otherwise hang CI instead of failing it.
if command -v timeout >/dev/null 2>&1; then
  timeout 600 cargo test -q --release -p fm-integration --test concurrent_read ||
    { echo "ci: release concurrent stress failed or exceeded its 600s cap" >&2; exit 1; }
else
  cargo test -q --release -p fm-integration --test concurrent_read ||
    { echo "ci: release concurrent stress failed" >&2; exit 1; }
fi
echo "ci: release concurrent stress ok"
