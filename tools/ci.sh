#!/bin/sh
# Minimal CI for the repo: the tier-1 verify (ROADMAP.md), first on a
# clean export of HEAD (Release) and then in the working tree
# (RelWithDebInfo), both with warnings as errors, plus an ASan/UBSan or
# TSan build of the test suite.
#
#   tools/ci.sh          # tier-1 only
#   tools/ci.sh --asan   # tier-1, then rebuild and retest under ASan/UBSan
#   tools/ci.sh --tsan   # tier-1, then rebuild and retest under TSan
set -eu

cd "$(dirname "$0")/.."

echo "== clean export: tier-1 on a git archive of HEAD (Release) =="
# Builds and tests exactly what is committed, so an untracked or ignored
# file in the working tree cannot hide one the repository is missing.
EXPORT_DIR=$(mktemp -d)
trap 'rm -rf "$EXPORT_DIR"' EXIT
git archive HEAD | tar -x -C "$EXPORT_DIR"
# Warnings are errors in both tier-1 builds: a new warning fails CI instead
# of scrolling by. This one is Release, the build type perfbench uses,
# whose -O3 inlining raises warnings the working tree's RelWithDebInfo
# build does not.
cmake -B "$EXPORT_DIR/build" -S "$EXPORT_DIR" -DCMAKE_BUILD_TYPE=Release \
  -DSPRITE_WERROR=ON >/dev/null
cmake --build "$EXPORT_DIR/build" -j "$(nproc)"
(cd "$EXPORT_DIR/build" && ctest --output-on-failure -j "$(nproc)")
rm -rf "$EXPORT_DIR"

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSPRITE_WERROR=ON \
  >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== observability smoke: metrics + trace exports parse =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
./build/bench/fig4a_num_answers --docs=200 --peers=16 \
  --metrics-json="$SMOKE_DIR/metrics.json" \
  --trace-json="$SMOKE_DIR/trace.json" \
  --trace-jsonl="$SMOKE_DIR/trace.jsonl" >/dev/null
python3 -m json.tool "$SMOKE_DIR/metrics.json" >/dev/null
python3 -m json.tool "$SMOKE_DIR/trace.json" >/dev/null
python3 - "$SMOKE_DIR/trace.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert lines, "empty trace.jsonl"
assert lines[0].get("format") == "sprite-trace-jsonl", lines[0]
assert any("dur_ms" in rec for rec in lines[1:]), "no span records"
EOF
./build/tools/sprite_cli trace-report "$SMOKE_DIR/trace.jsonl" --top=3 \
  >/dev/null
echo "observability smoke OK"

echo "== cache smoke: hit rate, cache=off parity, determinism =="
./build/bench/cache_effect --docs=200 --peers=16 --cache=on \
  --metrics-json="$SMOKE_DIR/cache_on.json" \
  --trace-json="$SMOKE_DIR/cache_on_trace.json" \
  --trace-jsonl="$SMOKE_DIR/cache_on_trace.jsonl" >/dev/null
./build/bench/cache_effect --docs=200 --peers=16 --cache=off \
  --metrics-json="$SMOKE_DIR/cache_off.json" >/dev/null
python3 - "$SMOKE_DIR/cache_on.json" "$SMOKE_DIR/cache_off.json" <<'EOF'
import json, sys
def gauges(path):
    with open(path) as f:
        return {g["name"]: g["value"] for g in json.load(f)["gauges"]}
on, off = gauges(sys.argv[1]), gauges(sys.argv[2])
assert on["bench.repeat.hit_rate"] > 0, on["bench.repeat.hit_rate"]
assert on["bench.repeat.results_identical"] == 1.0
assert on["bench.repeat.net_bytes.cached"] < on["bench.repeat.net_bytes.baseline"]
assert off["bench.repeat.hit_rate"] == 0, off["bench.repeat.hit_rate"]
EOF
# Same seed twice with caching on must produce byte-identical dumps.
./build/bench/cache_effect --docs=200 --peers=16 --cache=on \
  --metrics-json="$SMOKE_DIR/cache_on2.json" \
  --trace-json="$SMOKE_DIR/cache_on2_trace.json" \
  --trace-jsonl="$SMOKE_DIR/cache_on2_trace.jsonl" >/dev/null
cmp "$SMOKE_DIR/cache_on.json" "$SMOKE_DIR/cache_on2.json"
cmp "$SMOKE_DIR/cache_on_trace.json" "$SMOKE_DIR/cache_on2_trace.json"
cmp "$SMOKE_DIR/cache_on_trace.jsonl" "$SMOKE_DIR/cache_on2_trace.jsonl"
echo "cache smoke OK"

echo "== perf smoke: hot-path speedups and ranked-output identity =="
# hotpath_micro exits non-zero itself when the legacy and fast pipelines'
# ranked lists differ; the JSON check below additionally insists every
# measured speedup is at least break-even on this small corpus.
./build/bench/hotpath_micro --docs=300 --peers=16 --rounds=2 \
  --out="$SMOKE_DIR/hotpath.json" >/dev/null
python3 - "$SMOKE_DIR/hotpath.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["end_to_end"]["identical_results"] is True, report["end_to_end"]
for section, body in report["micro"].items():
    assert body["speedup"] >= 1.0, (section, body)
assert report["end_to_end"]["speedup"] >= 1.0, report["end_to_end"]
EOF
echo "perf smoke OK"

echo "== telemetry smoke: per-round time series, SLO alert, determinism =="
# One time-series record per learning round; the final record's recall
# gauge must equal the end-state metrics gauge exactly; the seeded
# recall-drop rule ("improve by >= 0.02 each round") fires exactly once
# at this scale (the round-3 flattening tail).
./build/bench/fig4a_num_answers --docs=200 --peers=16 \
  --timeseries-jsonl="$SMOKE_DIR/ts.jsonl" \
  --timeseries-csv="$SMOKE_DIR/ts.csv" \
  --slo-recall-drop=-0.02 --slo-jsonl="$SMOKE_DIR/slo.jsonl" \
  --metrics-json="$SMOKE_DIR/ts_metrics.json" >/dev/null
python3 - "$SMOKE_DIR/ts.jsonl" "$SMOKE_DIR/slo.jsonl" \
  "$SMOKE_DIR/ts_metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert lines[0].get("format") == "sprite-timeseries-jsonl", lines[0]
points = lines[1:]
assert [p["round"] for p in points] == [0, 1, 2, 3], points
with open(sys.argv[3]) as f:
    gauges = {g["name"]: g["value"] for g in json.load(f)["gauges"]}
final = points[-1]["gauges"]["bench.recall_ratio"]
assert final == gauges["bench.recall_ratio"], (final, gauges["bench.recall_ratio"])
with open(sys.argv[2]) as f:
    slo = [json.loads(line) for line in f if line.strip()]
assert slo[0].get("format") == "sprite-slo-jsonl", slo[0]
alerts = [a for a in slo[1:] if a.get("rule") == "recall-drop"]
assert len(alerts) == 1, alerts
EOF
# Same seed twice must produce byte-identical telemetry dumps.
./build/bench/fig4a_num_answers --docs=200 --peers=16 \
  --timeseries-jsonl="$SMOKE_DIR/ts2.jsonl" \
  --timeseries-csv="$SMOKE_DIR/ts2.csv" \
  --slo-recall-drop=-0.02 --slo-jsonl="$SMOKE_DIR/slo2.jsonl" >/dev/null
cmp "$SMOKE_DIR/ts.jsonl" "$SMOKE_DIR/ts2.jsonl"
cmp "$SMOKE_DIR/ts.csv" "$SMOKE_DIR/ts2.csv"
cmp "$SMOKE_DIR/slo.jsonl" "$SMOKE_DIR/slo2.jsonl"
echo "telemetry smoke OK"

echo "== perf-json smoke: sidecar schema, bench_compare, profiling identity =="
# Every bench accepts --perf-json; the sidecar is the ONLY place wall-clock
# data may appear (DESIGN.md §13). Validate the schema, check bench_compare
# against itself (clean) and against an injected regression (caught), and
# confirm profiling on/off leaves the deterministic dumps byte-identical.
./build/bench/fig4a_num_answers --docs=200 --peers=16 \
  --perf-json="$SMOKE_DIR/perf.json" --perf-warmup=1 --perf-reps=3 \
  --metrics-json="$SMOKE_DIR/prof_on.json" \
  --trace-jsonl="$SMOKE_DIR/prof_on_trace.jsonl" >/dev/null
python3 - "$SMOKE_DIR/perf.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["schema"] == "sprite-perf-v1", report.get("schema")
env = report["env"]
for key in ("bench", "git_commit", "build_type", "threads", "nproc",
            "warmup", "measured_reps"):
    assert key in env, key
assert env["measured_reps"] >= 3, env
phases = report["phases"]
assert phases, "no phase records"
for p in phases:
    assert p["reps"] >= 3, p
    assert p["min_ms"] <= p["median_ms"] <= p["max_ms"], p
    assert p["stddev_ms"] >= 0, p
    assert p["peak_rss_mb"] > 0, p
assert "wall" in report and "workers" in report, list(report)
EOF
# Self-comparison must be clean; an inflated median must be caught.
./build/tools/bench_compare "$SMOKE_DIR/perf.json" "$SMOKE_DIR/perf.json" \
  >/dev/null
python3 - "$SMOKE_DIR/perf.json" "$SMOKE_DIR/perf_slow.json" <<'EOF'
import sys
with open(sys.argv[1]) as f:
    lines = f.read().splitlines(keepends=True)
out, inflated = [], False
for line in lines:
    if not inflated and '"phase":' in line and '"median_ms":' in line:
        import json
        rec = json.loads(line.rstrip().rstrip(','))
        rec["median_ms"] = rec["median_ms"] * 10 + 100.0
        rec["max_ms"] = max(rec["max_ms"], rec["median_ms"])
        line = json.dumps(rec, separators=(",", ":")) + ",\n"
        inflated = True
    out.append(line)
assert inflated, "no phase line found to inflate"
with open(sys.argv[2], "w") as f:
    f.writelines(out)
EOF
if ./build/tools/bench_compare "$SMOKE_DIR/perf.json" \
    "$SMOKE_DIR/perf_slow.json" >/dev/null; then
  echo "bench_compare missed an injected regression" >&2
  exit 1
fi
echo "bench_compare OK (clean self-diff, injected regression caught)"
# Profiling must not perturb any deterministic stream: the same bench run
# without --perf-json produces byte-identical metrics and trace dumps.
./build/bench/fig4a_num_answers --docs=200 --peers=16 \
  --metrics-json="$SMOKE_DIR/prof_off.json" \
  --trace-jsonl="$SMOKE_DIR/prof_off_trace.jsonl" >/dev/null
cmp "$SMOKE_DIR/prof_on.json" "$SMOKE_DIR/prof_off.json"
cmp "$SMOKE_DIR/prof_on_trace.jsonl" "$SMOKE_DIR/prof_off_trace.jsonl"
# On multi-core hosts, print a threads=1 vs threads=4 wall-time table.
# bench_compare warns about the thread-count mismatch but exits 0 unless
# threads=4 is strictly slower — i.e. parallelism actively hurt.
if [ "$(nproc)" -gt 1 ]; then
  ./build/bench/fig4a_num_answers --docs=200 --peers=16 --threads=4 \
    --perf-json="$SMOKE_DIR/perf_t4.json" --perf-warmup=1 --perf-reps=3 \
    >/dev/null
  ./build/tools/bench_compare "$SMOKE_DIR/perf.json" "$SMOKE_DIR/perf_t4.json"
else
  echo "single-core host (nproc=1): skipping threads=1 vs 4 scaling table"
fi
echo "perf-json smoke OK"

echo "== parallel smoke: threads=1 vs threads=4 dumps are byte-identical =="
# The epoch engine's contract (DESIGN.md §12): for a given seed, every
# thread count produces the same metrics, trace, and time-series bytes.
./build/bench/fig4a_num_answers --docs=200 --peers=16 --threads=1 \
  --metrics-json="$SMOKE_DIR/par1.json" \
  --trace-jsonl="$SMOKE_DIR/par1_trace.jsonl" \
  --timeseries-csv="$SMOKE_DIR/par1_ts.csv" >"$SMOKE_DIR/par1.out"
./build/bench/fig4a_num_answers --docs=200 --peers=16 --threads=4 \
  --metrics-json="$SMOKE_DIR/par4.json" \
  --trace-jsonl="$SMOKE_DIR/par4_trace.jsonl" \
  --timeseries-csv="$SMOKE_DIR/par4_ts.csv" >"$SMOKE_DIR/par4.out"
cmp "$SMOKE_DIR/par1.json" "$SMOKE_DIR/par4.json"
cmp "$SMOKE_DIR/par1_trace.jsonl" "$SMOKE_DIR/par4_trace.jsonl"
cmp "$SMOKE_DIR/par1_ts.csv" "$SMOKE_DIR/par4_ts.csv"
grep -v 'written to' "$SMOKE_DIR/par1.out" >"$SMOKE_DIR/par1.tbl"
grep -v 'written to' "$SMOKE_DIR/par4.out" >"$SMOKE_DIR/par4.tbl"
cmp "$SMOKE_DIR/par1.tbl" "$SMOKE_DIR/par4.tbl"
echo "parallel smoke OK"

echo "== sim golden guard: dumps byte-identical to goldens, trace hash pinned =="
# The transport refactor's core promise (ISSUE 8): with the sim backend —
# the default everywhere — every metric and time-series dump is byte-for-
# byte what the pre-Transport code produced. The goldens were captured
# before the seam went in; any accounting drift fails this cmp.
./build/bench/fig4a_num_answers --docs=200 --peers=16 \
  --metrics-json="$SMOKE_DIR/golden_metrics.json" \
  --timeseries-csv="$SMOKE_DIR/golden_ts.csv" >/dev/null
cmp tests/golden/fig4a_d200_p16_metrics.json "$SMOKE_DIR/golden_metrics.json"
cmp tests/golden/fig4a_d200_p16_timeseries.csv "$SMOKE_DIR/golden_ts.csv"
# Traces too: the same workload's trace JSONL (11 MB, identical from run to
# run) must hash to the recorded digest, so no span name, peer or
# annotation drifts.
./build/bench/fig4a_num_answers --docs=200 --peers=16 \
  --trace-jsonl="$SMOKE_DIR/golden_trace.jsonl" >/dev/null
trace_sha=$(sha256sum "$SMOKE_DIR/golden_trace.jsonl" | cut -d' ' -f1)
if [ "$trace_sha" != "$(cat tests/golden/fig4a_d200_p16_trace.sha256)" ]; then
  echo "fig4a trace JSONL sha256 $trace_sha differs from" \
    "tests/golden/fig4a_d200_p16_trace.sha256" >&2
  exit 1
fi
echo "sim golden guard OK"

echo "== cluster smoke: three live daemons vs the simulation =="
# Multi-process: three sprite_daemon processes on loopback (UDP control +
# TCP bulk + HTTP frontend) join into a cluster, publish/record/learn, and
# their search rankings must match `sprite_cli batch` — the same workload
# through the in-process simulation — score for score. The daemons run
# with --trace, and the smoke's observability leg (DESIGN.md §16) curls
# /health and /metrics (JSON + Prometheus text) from all three, runs
# `sprite_cli cluster-report`, asserts at least one search trace stitches
# spans from >=2 distinct daemons, and drains /trace as JSONL.
python3 tools/cluster_smoke.py build
echo "cluster smoke OK"

echo "== storage smoke: flush, cold-restart recovery, ranked identity =="
# DESIGN.md §15: a --flush-to run persists every peer's primary index into
# compressed segments; a fresh process started with --recover-from answers
# the same queries without retraining, and its ranked result lines must be
# byte-identical — same docs, same 17-digit scores, same order.
cat >"$SMOKE_DIR/corpus.tsv" <<'EOF'
Distributed hash tables	distributed hash table routing protocols scale lookup chord pastry peer structured overlay routing lookup
Text retrieval systems	text retrieval ranking relevance vector model cosine similarity document term weighting retrieval ranking
Peer to peer search	peer search network overlay gnutella flooding query distributed search peer network
Machine learning basics	machine learning model training gradient feature weight learning model training data
Information retrieval evaluation	information retrieval evaluation precision recall benchmark trec judgment relevance evaluation precision
Query driven learning	query learning feedback cached history adaptive index term selection query feedback learning
EOF
cat >"$SMOKE_DIR/queries.txt" <<'EOF'
distributed hash table lookup
text retrieval ranking
peer network search
query learning feedback
EOF
./build/tools/sprite_cli batch "$SMOKE_DIR/corpus.tsv" \
  "$SMOKE_DIR/queries.txt" --train=3 --iters=2 --k=10 \
  --flush-to="$SMOKE_DIR/store" >"$SMOKE_DIR/batch_flush.out"
./build/tools/sprite_cli batch "$SMOKE_DIR/corpus.tsv" \
  "$SMOKE_DIR/queries.txt" --train=3 --iters=2 --k=10 \
  --recover-from="$SMOKE_DIR/store" >"$SMOKE_DIR/batch_recover.out"
grep '^result ' "$SMOKE_DIR/batch_flush.out" >"$SMOKE_DIR/ranked_flush.txt"
grep '^result ' "$SMOKE_DIR/batch_recover.out" \
  >"$SMOKE_DIR/ranked_recover.txt"
grep -q ':' "$SMOKE_DIR/ranked_flush.txt"  # at least one scored result
cmp "$SMOKE_DIR/ranked_flush.txt" "$SMOKE_DIR/ranked_recover.txt"
# Compression gate: the block codec must hold >= 4x over raw structs on a
# mid-size corpus (the committed BENCH_storage.json documents fig4a scale;
# storage_micro also exits non-zero if recovery loses any posting).
./build/bench/storage_micro --docs=1000 --peers=32 --min-ratio=4 \
  --out="$SMOKE_DIR/storage.json" >/dev/null
echo "storage smoke OK"

echo "== CLI error smoke: bad flags exit 2, unwritable dumps exit 1 =="
# A mistyped flag is a usage error, never a silent default, and a dump the
# caller asked for must not be lost without a failing exit code.
# usage_error CMD...: CMD exits 2 and names its last argument, the
# malformed one, on stderr. Every binary parses its command line before
# any work, so the timeout only bounds one that wrongly started serving.
usage_error() {
  rc=0
  timeout 10 "$@" >/dev/null 2>"$SMOKE_DIR/usage.err" || rc=$?
  for last; do :; done
  if [ "$rc" -ne 2 ] || ! grep -qF -- "$last" "$SMOKE_DIR/usage.err"; then
    echo "$* exited $rc, want 2 naming $last" >&2
    exit 1
  fi
}
usage_error ./build/tools/sprite_cli batch "$SMOKE_DIR/corpus.tsv" \
  "$SMOKE_DIR/queries.txt" --trian=3
usage_error ./build/tools/sprite_cli search "$SMOKE_DIR/corpus.tsv" \
  "peer search" --cache=onn
usage_error ./build/tools/sprite_cli trace-report "$SMOKE_DIR/trace.jsonl" \
  --tpo=3
# Port 70000 must not wrap to 4464: join exits before it sends a frame.
usage_error ./build/tools/sprite_cli join 127.0.0.1:70000
usage_error ./build/bench/fig4a_num_answers --docs=200 --peers=16 --thread=4
usage_error ./build/bench/fig4a_num_answers --docs=200x
# A typo in the compression gate's flag must not switch the gate off.
usage_error ./build/bench/storage_micro --min_ratio=4
usage_error ./build/bench/hotpath_micro --rounds=2x
usage_error ./build/tools/bench_compare "$SMOKE_DIR/perf.json" \
  "$SMOKE_DIR/perf.json" --tolerance=1.5x
usage_error ./build/examples/p2p_search --docs=10x
if ./build/tools/sprite_cli search "$SMOKE_DIR/corpus.tsv" "peer search" \
    --metrics-json="$SMOKE_DIR/missing/dir/metrics.json" >/dev/null 2>&1; then
  echo "sprite_cli search exited 0 with an unwritable --metrics-json" >&2
  exit 1
fi
if ./build/bench/fig4a_num_answers --docs=200 --peers=16 \
    --metrics-json="$SMOKE_DIR/missing/dir/metrics.json" >/dev/null 2>&1; then
  echo "fig4a_num_answers exited 0 with an unwritable --metrics-json" >&2
  exit 1
fi
# The daemon rejects a malformed number before binding anything.
usage_error ./build/tools/sprite_daemon --terms=5x
echo "CLI error smoke OK"

if [ "${1:-}" = "--tsan" ]; then
  echo "== sanitizers: TSan build, parallel suite at 4 threads, socket transport, daemons =="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
    >/dev/null
  cmake --build build-tsan -j --target parallel_test socket_transport_test \
    daemon_test fig4a_num_answers
  ./build-tsan/tests/parallel_test
  ./build-tsan/tests/socket_transport_test
  ./build-tsan/tests/daemon_test
  ./build-tsan/bench/fig4a_num_answers --docs=200 --peers=16 --threads=4 \
    >/dev/null
  echo "TSan OK"
fi

if [ "${1:-}" = "--asan" ]; then
  # Full suite under ASan/UBSan — including wire_test, so every frame
  # encoder/decoder and malformed-frame path runs with memory checking.
  echo "== sanitizers: ASan + UBSan build =="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    >/dev/null
  cmake --build build-asan -j
  (cd build-asan && ctest --output-on-failure -j)
fi

# Last, so that a gate failure does not keep the sanitizer steps from
# running; the script still exits non-zero when the gate fails.
echo "== hotpath perf gate: medians vs committed BENCH_hotpath.json =="
# The compressed store must not tax the search hot path: fetch/rank (and
# the other hotpath_micro phases) stay within tolerance of the committed
# pre-store baseline. bench_compare exits non-zero on any regression.
./build/bench/hotpath_micro --docs=300 --peers=16 --rounds=2 \
  --perf-warmup=1 --perf-reps=5 \
  --perf-json="$SMOKE_DIR/hotpath_perf.json" \
  --out="$SMOKE_DIR/hotpath_gate.json" >/dev/null
./build/tools/bench_compare BENCH_hotpath.json \
  "$SMOKE_DIR/hotpath_perf.json" --tolerance=0.25 --abs-slack-ms=2.0
echo "hotpath perf gate OK"

echo "CI OK"
