#!/usr/bin/env bash
# ci.sh — the full verification pipeline: build + test every preset
# (default, asan, ubsan, tsan), smoke an audited oversubscribed run under
# each sanitizer, then static analysis (uvmsim-analyze rule engine,
# clang-tidy when installed).
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --quick    # default preset + analysis only
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

presets=(default asan ubsan tsan)
[[ $quick -eq 1 ]] && presets=(default)

declare -A build_dir=(
  [default]=build [asan]=build-asan [ubsan]=build-ubsan [tsan]=build-tsan)

for preset in "${presets[@]}"; do
  echo "==> [$preset] configure + build"
  # The default build is warning-clean; -Werror keeps it that way.
  werror=OFF
  [[ $preset == default ]] && werror=ON
  cmake --preset "$preset" -DUVMSIM_WERROR="$werror" > /dev/null
  cmake --build --preset "$preset" -j "$jobs"

  echo "==> [$preset] ctest"
  ctest --preset "$preset" -j "$jobs"

  # Audit smoke: bfs at 75 % residency (working set / capacity = 4/3) with
  # the invariant auditor fail-fast — any violation fails the pipeline.
  echo "==> [$preset] audited oversubscription smoke"
  "${build_dir[$preset]}/tools/uvmsim" --workload bfs --policy adaptive \
      --oversub 1.3333 --scale 0.1 --audit | grep '^audit:'
done

echo "==> perf smoke (scripts/bench.sh --smoke)"
scripts/bench.sh --smoke --out build/BENCH_hotpath_smoke.json
python3 - build/BENCH_hotpath_smoke.json <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("eviction_microbench", "event_queue", "sim_wall_ms"):
    assert key in doc["current"], f"BENCH_hotpath missing {key}"
print("perf smoke: BENCH_hotpath JSON well-formed")
PY

# Bench smoke: run the hot-path benchmark binary directly and validate the
# full report schema — the headline rates (faults/accesses per second), the
# isolation microbenches, and the per-subsystem cycle attribution whose
# shares must cover sim_wall exactly (docs/PERF.md).
echo "==> bench smoke (perf_hotpath --smoke schema)"
build/bench/perf_hotpath --smoke > /tmp/uvmsim_bench_smoke.json
python3 - /tmp/uvmsim_bench_smoke.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("sim_runs", "sim_wall_ms", "faults_per_sec", "accesses_per_sec",
            "eviction_microbench", "event_queue", "event_queue_warp_ring",
            "driver_storm", "tlb_storm", "attribution", "peak_rss_kb"):
    assert key in doc, f"perf_hotpath report missing {key}"
assert doc["faults_per_sec"] > 0, "faults_per_sec must be positive"
assert doc["accesses_per_sec"] > 0, "accesses_per_sec must be positive"
assert doc["sim_runs"], "no sim rows"
for row in doc["sim_runs"]:
    for key in ("workload", "oversub", "wall_ms", "far_faults", "accesses"):
        assert key in row, f"sim row missing {key}: {row}"
att = doc["attribution"]
for lane in ("event_dispatch", "driver", "tlb_l2", "eviction", "other"):
    assert lane in att, f"attribution missing {lane} lane"
    assert "est_ms" in att[lane] and "est_share" in att[lane], att[lane]
    if lane != "other":
        assert "ns_per_op" in att[lane] and "ops" in att[lane], att[lane]
# The "other" lane is the remainder, so shares sum to ~1.0 (modulo rounding)
# unless the isolated per-op costs overshoot sim_wall — allow that skew but
# catch nonsense (negative lanes, wildly wrong scaling).
total_share = sum(l["est_share"] for l in att.values())
assert all(l["est_share"] >= 0 for l in att.values()), "negative attribution share"
assert 0.98 <= total_share <= 3.0, f"attribution shares sum to {total_share}"
print(f"bench smoke: schema ok, attribution covers "
      f"{total_share:.0%} of sim_wall")
PY

# Observability smoke: an audited oversubscribed run with the Chrome trace
# writer and the registry-complete metrics recorder attached must produce a
# parseable trace (monotone timestamps, every event family present) and a
# metrics CSV whose header carries the registry's cumulative+delta columns
# (docs/OBSERVABILITY.md).
echo "==> observability smoke (--chrome-trace / --metrics)"
build/tools/uvmsim --workload bfs --policy oversub --oversub 1.3333 \
    --scale 0.1 --audit --set mem.counter_count_bits=8 \
    --chrome-trace /tmp/uvmsim_trace.json --metrics /tmp/uvmsim_metrics.csv \
    | grep '^audit:'
python3 - /tmp/uvmsim_trace.json /tmp/uvmsim_metrics.csv <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
assert events, "trace has no events"
ts = [e["ts"] for e in events]
assert ts == sorted(ts), "trace timestamps are not monotone"
names = {e["name"] for e in events}
for need in ("fault_batch", "migrate", "evict", "counter_halving",
             "pcie_dma_occupancy"):
    assert need in names, f"trace is missing {need} events"
header = open(sys.argv[2]).readline().strip().split(",")
assert header[:2] == ["cycle", "occupancy"], header[:2]
assert "far_faults" in header and "far_faults_delta" in header, \
    "metrics CSV header is missing registry columns"
print(f"observability smoke: {len(events)} trace events, "
      f"{len(header)} metric columns")
PY

# Victim-parity audit: the auditor cross-validates the incremental eviction
# index against the reference scan (check_eviction_index); any divergence is
# a violation and fails the pipeline.
echo "==> victim-parity audit smoke"
build/tools/uvmsim --workload sssp --policy adaptive \
    --oversub 1.3333 --scale 0.1 --audit | grep '^audit:' | tee /tmp/parity_audit.log
grep -q 'violations=0' /tmp/parity_audit.log || {
  echo "victim-parity audit reported violations"; exit 1; }

# Differential fuzz smoke: N seeded sim-vs-model iterations must end with
# zero divergences (the oracle self-tests that prove the harness CAN detect
# divergences run inside ctest, tests/check/test_fuzz_selftest.cpp).
echo "==> fuzz smoke (differential oracle, seed 1)"
build/tools/uvmsim-fuzz --seed 1 --iters 500 --quiet
if [[ $quick -eq 0 ]]; then
  build-asan/tools/uvmsim-fuzz --seed 1 --iters 50 --quiet
fi
# The CLI must reject garbage flags loudly (exit 2), never run a degenerate
# campaign silently.
rc=0
build/tools/uvmsim-fuzz --seed nope > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-fuzz accepted a garbage --seed (rc=$rc, want 2)"; exit 1
fi
rc=0
build/tools/uvmsim-fuzz --policy no-such-policy > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-fuzz accepted an unknown --policy (rc=$rc, want 2)"; exit 1
fi

# Record/replay smoke (docs/TRACES.md): an oversubscribed bfs run recorded
# to a binary UVMTRB1 trace and replayed under the same configuration must
# report byte-identical JSON; the converter must round-trip a fuzz-corpus
# sidecar through the binary format with the content hash verifying; a
# trace-seeded fuzz campaign must stay divergence-free; and both CLIs must
# reject garbage trace files with exit 2.
echo "==> record/replay smoke (UVMTRB1 round trip)"
build/tools/uvmsim --workload bfs --policy adaptive --oversub 1.3333 \
    --scale 0.1 --record /tmp/uvmsim_ci.trb --json > /tmp/uvmsim_ci_rec.json
build/tools/uvmsim --replay /tmp/uvmsim_ci.trb --policy adaptive \
    --oversub 1.3333 --json > /tmp/uvmsim_ci_rep.json
cmp /tmp/uvmsim_ci_rec.json /tmp/uvmsim_ci_rep.json || {
  echo "replayed stats JSON differs from the recorded run"; exit 1; }
build/tools/uvmsim-trace verify /tmp/uvmsim_ci.trb > /dev/null
corpus_trc=$(ls tests/data/fuzz_corpus/*.trc | head -1)
build/tools/uvmsim-trace convert "$corpus_trc" /tmp/uvmsim_ci_corpus.trb
build/tools/uvmsim-trace verify /tmp/uvmsim_ci_corpus.trb > /dev/null
build/tools/uvmsim-trace convert /tmp/uvmsim_ci_corpus.trb /tmp/uvmsim_ci_corpus.trc
build/tools/uvmsim-fuzz --trace /tmp/uvmsim_ci.trb --iters 8 --quiet
echo "garbage" > /tmp/uvmsim_ci_garbage.trb
rc=0
build/tools/uvmsim --replay /tmp/uvmsim_ci_garbage.trb > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim --replay accepted a garbage trace (rc=$rc, want 2)"; exit 1
fi
rc=0
build/tools/uvmsim-trace verify /tmp/uvmsim_ci_garbage.trb > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-trace verify accepted a garbage trace (rc=$rc, want 2)"; exit 1
fi

# Granularity smoke (docs/GRANULARITY.md): the 2 MB coalescing state
# machine is off by default, so exercise it explicitly — an audited
# oversubscribed run with coalescing + splinter-on-evict must report zero
# violations (the granularity audit pass covers the read-mostly gate, the
# O(1) coalesced count and the conservation law), and targeted fuzz
# campaigns on the two churn stream families must stay divergence-free.
echo "==> granularity smoke (mem.coalescing audited + churn fuzz)"
build/tools/uvmsim --workload bfs --policy adaptive --oversub 1.3333 \
    --scale 0.1 --audit --set mem.coalescing=true \
    --set mem.splinter_on_evict=true | grep '^audit:' | tee /tmp/gran_audit.log
grep -q 'violations=0' /tmp/gran_audit.log || {
  echo "granularity audit reported violations"; exit 1; }
build/tools/uvmsim-fuzz --seed 1 --iters 200 --coalescing on \
    --pattern coalesce-churn --quiet
build/tools/uvmsim-fuzz --seed 1 --iters 200 --coalescing on \
    --pattern splinter-storm --quiet

# Adaptive-policy fuzz smoke: force every case onto an online-adaptive
# policy; the oracle runs in skip-decision mode (decisions adopted from the
# driver, memory-state invariants still verified) and must stay clean.
echo "==> fuzz smoke (adaptive policy, oracle skip-decision mode)"
build/tools/uvmsim-fuzz --seed 1 --iters 200 --policy learned --quiet

# Tournament smoke: a small grid over every registered policy must produce a
# schema-valid JSON leaderboard, and the CSV artifact must be byte-identical
# for --jobs 1 and --jobs 2 (determinism contract, docs/POLICIES.md).
echo "==> tournament smoke (all registered policies)"
build/tools/uvmsim-tournament --seed 1 --scenarios 4 --jobs 1 \
    --out-csv /tmp/uvmsim_tournament_j1.csv --out-json /tmp/uvmsim_tournament.json --quiet
build/tools/uvmsim-tournament --seed 1 --scenarios 4 --jobs 2 \
    --out-csv /tmp/uvmsim_tournament_j2.csv --quiet > /dev/null
cmp /tmp/uvmsim_tournament_j1.csv /tmp/uvmsim_tournament_j2.csv || {
  echo "tournament CSV differs between --jobs 1 and --jobs 2"; exit 1; }
python3 - /tmp/uvmsim_tournament.json /tmp/uvmsim_tournament_j1.csv <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("seed", "scenarios", "cells", "leaderboard"):
    assert key in doc, f"tournament JSON missing {key}"
assert any(s["thrash"] for s in doc["scenarios"]), "no oversubscribed thrash scenario"
policies = {row["policy"] for row in doc["leaderboard"]}
assert len(policies) >= 6, f"expected >=6 policies on the leaderboard, got {policies}"
assert len(doc["cells"]) == len(doc["scenarios"]) * len(doc["leaderboard"])
for cell in doc["cells"]:
    assert cell["ok"], f"tournament cell failed: {cell}"
ranks = [row["rank"] for row in doc["leaderboard"]]
assert ranks == list(range(1, len(ranks) + 1)), ranks
costs = [row["fault_cost"] for row in doc["leaderboard"]]
assert costs == sorted(costs), "leaderboard not ranked by fault_cost"
header = open(sys.argv[2]).readline().strip()
assert header.startswith("rank,policy,wins,failed,fault_cost"), header
print(f"tournament smoke: {len(doc['leaderboard'])} policies x "
      f"{len(doc['scenarios'])} scenarios ok")
PY
rc=0
build/tools/uvmsim-tournament --policies no-such-policy > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-tournament accepted an unknown --policies entry (rc=$rc, want 2)"; exit 1
fi

if [[ $quick -eq 0 ]]; then
  echo "==> coverage gate (src/policy + src/check vs scripts/coverage_baseline.txt)"
  scripts/coverage.sh
fi

# Static analysis (uvmsim-analyze, docs/ANALYSIS.md): the full rule set over
# the tree must be clean modulo the checked-in baseline — which ships empty,
# so in practice: clean. The JSON report must be byte-stable across runs
# (no timestamps, sorted findings) so CI artifacts diff cleanly, and the CLI
# must reject garbage flags with exit 2 like every other uvmsim tool.
echo "==> static analysis (uvmsim-analyze)"
build/tools/uvmsim-analyze --root . --baseline tools/uvmsim_analyze.baseline
build/tools/uvmsim-analyze --root . --json > /tmp/uvmsim_analyze_1.json
build/tools/uvmsim-analyze --root . --json > /tmp/uvmsim_analyze_2.json
cmp /tmp/uvmsim_analyze_1.json /tmp/uvmsim_analyze_2.json || {
  echo "uvmsim-analyze --json is not byte-stable across runs"; exit 1; }
rc=0
build/tools/uvmsim-analyze --rules no-such-rule > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-analyze accepted an unknown --rules entry (rc=$rc, want 2)"; exit 1
fi
rc=0
build/tools/uvmsim-analyze --max-findings nope > /dev/null 2>&1 || rc=$?
if [[ $rc -ne 2 ]]; then
  echo "uvmsim-analyze accepted a garbage --max-findings (rc=$rc, want 2)"; exit 1
fi

if command -v clang-tidy > /dev/null 2>&1; then
  echo "==> clang-tidy (curated checks over compile_commands.json)"
  # Presets export compile_commands.json; reconfigure only if it is missing.
  [[ -f build/compile_commands.json ]] || cmake --preset default > /dev/null
  # shellcheck disable=SC2046
  clang-tidy -p build --quiet $(find src tools -name '*.cpp') | tee /tmp/ct.log
  if grep -qE "error:|warning:" /tmp/ct.log; then
    echo "clang-tidy reported findings (curated set must stay clean)"
    exit 1
  fi
else
  echo "==> clang-tidy not installed; skipping (config: .clang-tidy)"
fi

echo "CI: all green"
