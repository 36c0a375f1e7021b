#!/usr/bin/env bash
# Tier-1 verification: configure + build + ctest, exactly as ROADMAP.md
# specifies, then a build (no run) of the perfbench binary into
# build-perfbench. Every suite runs under a ctest per-test timeout (set in
# CMakeLists.txt) so a hung test — e.g. a fan-out drain thread wedged in
# a lock wait — fails fast instead of stalling the whole run; on failure
# this script names the suites that timed out.
# With --bench-smoke, additionally runs a short bench_sql pass plus a
# fig6a concurrency point from a dedicated Release tree (build-bench) and
# emits BENCH_sql.json / BENCH_fig6a.json trajectory points in the repo
# root; one short point each of the fig6b (pending transactions) and
# fig6c (entanglement complexity) benches must also run without error,
# and bench_lock_manager must run all its cases.
# bench_sql prints a MetricsRegistry::DumpText() snapshot to stderr
# on exit, and the *MetricsOff ablation pair is diffed into an
# instrumentation-overhead table (budget: <= 5%). Debug binaries are never benched: the configuration is checked,
# bench_sql refuses to run without NDEBUG, and the emitted JSON is grepped
# for the release marker. bench_sql runs every row 5 times and the diff
# compares each row's median against the committed baseline's median, since
# one short run per row is noisy; a median more than 1.3x slower warns.
# Adding --bench-strict turns the diff into a gate: a median more than 1.5x
# slower fails the script (1.3x stays a warning).
# With --tsan, additionally builds a ThreadSanitizer tree (build-tsan) and
# races the lock/txn/sql/shard/mvcc/storage/eq/group_commit/etxn/
# session_server/integration/workload/repro_split/torture suites under it
# (lock_test repeated 20 times; etxn_test, session_server_test, the
# MvccGc*, ProbeDifferentialTest.* and GrounderProbeTest.* suites and the
# Router concurrency tests 10 times each) —
# the key-range
# lock conflict paths, concurrent heap scans under writers, the shard
# router's parallel fanout drains + concurrent-writer differential,
# the MVCC snapshot-vs-writer races, the inline version-GC drains against
# snapshot registration, the table's concurrent index maintenance through
# its one mutation path, the bind-driven probe fetch shared by SQL joins
# and grounding, locking-level grounding under concurrent writers,
# the one commit path (CommitGroup) under concurrent committers sharing a
# group-commit flush (appends racing the leader's fsync, and session-server
# workers each waiting on their own commit's ticket), the entangled engine's cross-thread edges (a run is
# single-threaded; Submit and handle waits race the scheduler thread, and
# RunOnce races the auto scheduler), and the fault-injected crash-recover
# cycles are all exercised by those binaries' concurrent tests.
# With --torture, runs the long crash-recover torture gate: >= 50 seeded
# randomized kill/recover cycles under a wall-clock budget. The seed is
# printed on entry and repeated on failure; --torture-seed N reruns a
# reported seed bit-exactly. The torture binary dumps the global metrics
# snapshot on exit and again (alongside the seed) on failure.
set -euo pipefail

cd "$(dirname "$0")/.."

bench_smoke=0
bench_strict=0
tsan=0
torture=0
# Default torture seed: wall clock, so every unpinned gate run explores a
# fresh schedule. Printed either way — failures are always reproducible.
torture_seed=$(date +%s)
while [[ $# -gt 0 ]]; do
  case "$1" in
  --bench-smoke) bench_smoke=1 ;;
  --bench-strict) bench_smoke=1; bench_strict=1 ;;
  --tsan) tsan=1 ;;
  --torture) torture=1 ;;
  --torture-seed)
    torture=1
    torture_seed="$2"
    shift
    ;;
  *)
    echo "unknown argument: $1 (expected --bench-smoke, --bench-strict," \
         "--tsan, --torture, and/or --torture-seed N)" >&2
    exit 1
    ;;
  esac
  shift
done

cmake -B build -S .
cmake --build build -j
ctest_log=$(mktemp)
if ! (cd build && ctest --output-on-failure -j 2>&1 | tee "${ctest_log}"); then
  if grep -q 'Timeout' "${ctest_log}"; then
    echo "== suites that timed out:" >&2
    grep -E '\*\*\*Timeout' "${ctest_log}" >&2
  fi
  rm -f "${ctest_log}"
  exit 1
fi
rm -f "${ctest_log}"

# The end-to-end benchmark wraps TxnEngine and TableCursor in decorators
# that override their virtuals: build it (never run it here) so a src/
# change that breaks those overrides fails now, not at benchmark time.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j --target perfbench

if [[ "${bench_smoke}" == 1 ]]; then
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release \
        -DYOUTOPIA_BUILD_TESTS=OFF -DYOUTOPIA_BUILD_EXAMPLES=OFF
  build_type=$(grep '^CMAKE_BUILD_TYPE' build-bench/CMakeCache.txt \
               | cut -d= -f2)
  if [[ "${build_type}" != "Release" ]]; then
    echo "refusing to bench: build-bench is '${build_type}', not Release" >&2
    exit 1
  fi
  cmake --build build-bench -j --target bench_sql bench_fig6a_concurrency \
        bench_fig6b_pending bench_fig6c_complexity bench_lock_manager
  # Keep the committed baseline around for the regression diff below.
  bench_baseline=$(mktemp)
  git show HEAD:BENCH_sql.json > "${bench_baseline}" 2>/dev/null || \
    : > "${bench_baseline}"
  ./build-bench/bench_sql \
    --benchmark_filter='BM_PointSelect|BM_PointSelectScan|BM_PointUpdate|BM_ThreeWayJoin|BM_ThreeWayJoinSnapshot|BM_GroundEntangled|BM_GroundEntangledSnapshot|BM_RangeSelect|BM_RangeSelectScan|BM_OrderByLimit|BM_OrderByLimitScan|BM_ConcurrentScans|BM_ShardedPointSelect|BM_ShardedScan|BM_ShardedScanFanout|BM_ShardedScanBatchSweep|BM_GroupByAggregate|BM_ReadMostlyMixed|BM_SnapshotScanUnderWriters|BM_GroupCommit|BM_ManySessions' \
    --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 \
    --benchmark_out=BENCH_sql.json \
    --benchmark_out_format=json
  if ! grep -q '"youtopia_build_type": "release"' BENCH_sql.json; then
    echo "BENCH_sql.json came from a non-release binary; discarding" >&2
    rm -f BENCH_sql.json
    exit 1
  fi
  echo "wrote BENCH_sql.json (Release)"
  # Diff the fresh run against the committed trajectory point: a table of
  # per-row median real-time ratios (a baseline recorded with one run per
  # row is its own median). A median more than 1.3x slower warns; under
  # --bench-strict, a median over 1.5x fails the script.
  python3 - "${bench_baseline}" BENCH_sql.json "${bench_strict}" <<'PYEOF'
import json, statistics, sys

def medians(path):
    """Median real time of each row's repetitions."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return {}
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "iteration":
            runs.setdefault(b.get("run_name", b["name"]), []).append(
                b["real_time"])
    return {name: statistics.median(ts) for name, ts in runs.items()}

old, new = medians(sys.argv[1]), medians(sys.argv[2])
strict = sys.argv[3] == "1"
common = [n for n in new if n in old]
if not common:
    print("no committed BENCH_sql.json baseline; skipping regression diff")
    sys.exit(0)
width = max(len(n) for n in common)
print(f"== bench regression table (medians vs committed BENCH_sql.json)")
print(f"{'benchmark':<{width}}  {'old_us':>10}  {'new_us':>10}  {'ratio':>6}")
regressed = []
failed = []
for name in common:
    ratio = new[name] / old[name] if old[name] > 0 else float("inf")
    flag = ""
    if ratio > 1.5:
        flag = "  <-- FAIL >1.5x" if strict else "  <-- WARN >1.5x"
        failed.append(name)
    elif ratio > 1.3:
        flag = "  <-- WARN >1.3x"
    if ratio > 1.3:
        regressed.append(name)
    print(f"{name:<{width}}  {old[name]:>10.1f}  {new[name]:>10.1f}"
          f"  {ratio:>6.2f}{flag}")
for name in sorted(set(new) - set(old)):
    print(f"{name:<{width}}  {'-':>10}  {new[name]:>10.1f}    new")
if regressed:
    print(f"WARNING: {len(regressed)} benchmark(s) regressed >1.3x: "
          + ", ".join(regressed))
if strict and failed:
    print(f"FAIL (--bench-strict): {len(failed)} benchmark(s) regressed "
          f">1.5x: " + ", ".join(failed))
    sys.exit(1)
PYEOF
  rm -f "${bench_baseline}"
  # Instrumentation overhead: each *MetricsOff ablation against its
  # metrics-on twin, median against median. Informational — the enabled
  # path's budget is <= 5%, but smoke boxes are too noisy to hard-gate
  # single-digit percentages.
  python3 - BENCH_sql.json <<'PYEOF'
import json, statistics, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
runs = {}
for b in doc.get("benchmarks", []):
    if b.get("run_type") == "iteration":
        runs.setdefault(b.get("run_name", b["name"]), []).append(b["real_time"])
times = {name: statistics.median(ts) for name, ts in runs.items()}
pairs = []
for name, t in times.items():
    if "MetricsOff" in name:
        on = name.replace("MetricsOff", "")
        if on in times:
            pairs.append((on, times[on], t))
if pairs:
    print("== instrumentation overhead (metrics on vs off)")
    for on, t_on, t_off in sorted(pairs):
        pct = (t_on / t_off - 1.0) * 100.0 if t_off > 0 else float("inf")
        flag = "  <-- WARN >5%" if pct > 5.0 else ""
        print(f"{on}: on={t_on:.2f}us off={t_off:.2f}us "
              f"overhead={pct:+.1f}%{flag}")
PYEOF
  # One fig6a point per workload extreme: many connections hammering the
  # same tables, plus the MVCC read-path ablation pair (NoSocial-T
  # re-leveled to kReadCommitted, snapshot reads on vs off).
  ./build-bench/bench_fig6a_concurrency \
    --benchmark_filter='Fig6a/(NoSocial-T|Entangled-Q|NoSocial-T-SnapRead|NoSocial-T-LockRead)/conns:50' \
    --benchmark_out=BENCH_fig6a.json \
    --benchmark_out_format=json
  if ! grep -q '"youtopia_build_type": "release"' BENCH_fig6a.json; then
    echo "BENCH_fig6a.json came from a non-release binary; discarding" >&2
    rm -f BENCH_fig6a.json
    exit 1
  fi
  echo "wrote BENCH_fig6a.json (Release)"
  # One short point of each remaining paper figure. The binaries exit 0
  # even when a run reports an error, so the JSON is checked too: no run
  # at all, or any errored run, fails the script.
  for point in "bench_fig6b_pending Fig6b/f:10/pending:10/" \
               "bench_fig6c_complexity Fig6c/Spoke-hub/f:10/k:2/"; do
    read -r bin filter <<< "${point}"
    point_json=$(mktemp)
    "./build-bench/${bin}" --benchmark_filter="${filter}" \
      --benchmark_out="${point_json}" --benchmark_out_format=json
    python3 - "${point_json}" "${bin} ${filter}" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    runs = json.load(f).get("benchmarks", [])
if not runs:
    sys.exit(f"{sys.argv[2]}: the filter matched no benchmark")
errored = [b["name"] for b in runs if b.get("error_occurred")]
if errored:
    sys.exit(f"{sys.argv[2]}: errored run(s): " + ", ".join(errored))
PYEOF
    rm -f "${point_json}"
  done
  echo "fig6b/fig6c smoke points passed"
  # The lock-manager microbenches (uncontended, hierarchical, contended,
  # deadlock-check paths) must run to completion.
  if ! ./build-bench/bench_lock_manager --benchmark_min_time=0.05; then
    echo "bench_lock_manager failed" >&2
    exit 1
  fi
fi

if [[ "${tsan}" == 1 ]]; then
  cmake -B build-tsan -S . -DYOUTOPIA_TSAN=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DYOUTOPIA_BUILD_BENCH=OFF -DYOUTOPIA_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j \
        --target lock_test txn_test sql_test shard_test mvcc_test torture_test \
                 storage_test eq_test group_commit_test etxn_test \
                 session_server_test integration_test workload_test \
                 repro_split
  # The lock manager's grant/wait races are timing-dependent: repeat them.
  echo "== tsan: lock_test (x20)"
  ./build-tsan/lock_test --gtest_repeat=20
  for t in txn_test sql_test shard_test mvcc_test storage_test eq_test \
           group_commit_test integration_test workload_test repro_split; do
    echo "== tsan: ${t}"
    ./build-tsan/${t}
  done
  # A run executes on one thread, but Submit and handle waits race the
  # scheduler thread, and RunOnce races the auto scheduler: repeat the
  # engine suite.
  echo "== tsan: etxn_test (x10)"
  ./build-tsan/etxn_test --gtest_repeat=10
  # Session-server workers commit concurrently into shared group-commit
  # flushes, with appends racing the leader's fsync: repeat the suite.
  echo "== tsan: session_server_test (x10)"
  ./build-tsan/session_server_test --gtest_repeat=10
  # Inline version GC drains race snapshot registration and each other:
  # repeat the GC suite (the registration/horizon race test included).
  echo "== tsan: mvcc_test MvccGc* (x10)"
  ./build-tsan/mvcc_test --gtest_filter='MvccGc*' --gtest_repeat=10
  # The bind-driven probe fetch shared by SQL joins and grounding runs
  # against concurrent writers in both differential suites: repeat them.
  echo "== tsan: sql_test ProbeDifferentialTest.* (x10)"
  ./build-tsan/sql_test --gtest_filter='ProbeDifferentialTest.*' \
    --gtest_repeat=10
  echo "== tsan: eq_test GrounderProbeTest.* (x10)"
  ./build-tsan/eq_test --gtest_filter='GrounderProbeTest.*' --gtest_repeat=10
  # Router calls share one routing step and one cursor wrapper while
  # concurrent writers, drain threads and cursor pulls race them: repeat
  # the Router concurrency tests.
  echo "== tsan: shard_test Router concurrency (x10)"
  router_races='ShardDifferentialTest.ConcurrentWritersConvergeToTheSameState'
  router_races+=':ShardAggregateTest.AggregatesStableUnderConcurrentWriters'
  router_races+=':FanoutDrainTest.*:RouterCursorTest.*'
  ./build-tsan/shard_test --gtest_filter="${router_races}" --gtest_repeat=10
  # A short torture slice under tsan: enough cycles to race the fault
  # probes, the crash latch, and recovery against the worker threads.
  echo "== tsan: torture_test (short slice)"
  YT_TORTURE_SEED="${torture_seed}" YT_TORTURE_CYCLES=8 \
    ./build-tsan/torture_test
  echo "tsan suites passed"
fi

if [[ "${torture}" == 1 ]]; then
  echo "== torture gate: seed=${torture_seed}" \
       "(rerun: scripts/check.sh --torture-seed ${torture_seed})"
  if ! YT_TORTURE_SEED="${torture_seed}" \
       YT_TORTURE_CYCLES=50 \
       YT_TORTURE_THREADS=4 \
       YT_TORTURE_TXNS=80 \
       YT_TORTURE_BUDGET_S=600 \
       ./build/torture_test --gtest_filter='TortureTest.*'; then
    echo "TORTURE FAILED — reproduce with:" \
         "scripts/check.sh --torture-seed ${torture_seed}" >&2
    exit 1
  fi
  # Ablation differential: the same gate with WAL group commit forced off
  # (flush-per-commit baseline). The main run's per-cycle coin flip covers
  # the mixed regime; this slice pins the ablation so a group-commit-only
  # bug cannot hide behind lucky flips.
  echo "== torture gate (group commit off): seed=${torture_seed}"
  if ! YT_TORTURE_SEED="${torture_seed}" \
       YT_TORTURE_CYCLES=12 \
       YT_TORTURE_THREADS=4 \
       YT_TORTURE_TXNS=80 \
       YT_TORTURE_BUDGET_S=180 \
       YT_TORTURE_GROUP_COMMIT=0 \
       ./build/torture_test --gtest_filter='TortureTest.*'; then
    echo "TORTURE (group commit off) FAILED — reproduce with:" \
         "YT_TORTURE_GROUP_COMMIT=0 scripts/check.sh --torture-seed" \
         "${torture_seed}" >&2
    exit 1
  fi
  echo "torture gate passed (seed=${torture_seed})"
fi
