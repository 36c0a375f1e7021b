// perfbench: the end-to-end benchmark binary. One process runs one
// workload once (the metrics registry is process-global, so workloads never
// share a process):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>]
//   perfbench --time-recovery wal|router <path> <reps> <shards>   (internal)
//   perfbench --time-setup <workload> <data-dir> <reps> <seed>     (internal)
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// runs an untraced pass and then a traced one on fresh state with the same
// inputs, and prints the per-layer metrics of the traced pass plus the
// tracing overhead (the traced pass's throughput loss). The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// A failed correctness or durability check prints its reasons to stderr,
// no JSON, and exits 1. perfbench/run.py builds and drives this binary.

#include <malloc.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/child_timing.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by --trace 0, in this order.
constexpr MetricDef kEndToEnd[] = {
    {"txn_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"setup_s", "s"},
    {"recover_s", "s"},
    {"wal_bytes_per_txn", "B"},
    {"rss_mb", "MiB"},
};

// Reported by --trace 1, in this order, on every workload. A layer a
// workload does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"etxn.participants_per_run", "count"},
    {"etxn.rounds_per_run", "count"},
    {"etxn.useful_frac", "ratio"},
    {"etxn.dormant_wait_ms_p50", "ms"},
    {"etxn.run_ms_p50", "ms"},
    {"eq.grounding_read_us_per_eq", "us"},
    {"eq.grounding_rows_per_eq", "count"},
    {"txn.commit_group_us_p50", "us"},
    {"txn.commit_group_us_p99", "us"},
    {"txn.readonly_commit_us_p99", "us"},
    {"txn.readonly_commit_slow_frac", "ratio"},
    {"txn.slow_commit_wall_frac", "ratio"},
    {"txn.slow_commit_stall_frac", "ratio"},
    {"txn.versions_pruned_per_commit", "count"},
    {"txn.commit_us_p50", "us"},
    {"txn.commit_us_p99", "us"},
    {"txn.aborts_per_commit", "ratio"},
    {"txn.index_lookups_per_stmt", "count"},
    {"txn.table_scans_per_stmt", "count"},
    {"storage.read_us_per_stmt", "us"},
    {"storage.rows_examined_per_row_returned", "ratio"},
    {"sql.parse_us", "us"},
    {"sql.statement_us_p50", "us"},
    {"sql.statement_us_p99", "us"},
    {"sql.self_us_per_stmt", "us"},
    {"sql.queue_us_per_stmt", "us"},
    {"sql.server.park_runs_per_commit", "ratio"},
    {"sql.retries_per_stmt", "ratio"},
    {"lock.wait_us_per_txn", "us"},
    {"lock.waits_per_txn", "ratio"},
    {"lock.timeouts", "count"},
    {"lock.deadlocks", "count"},
    {"wal.flushes_per_commit", "ratio"},
    {"wal.flush_us_p50", "us"},
    {"wal.group_commit_wait_us_p50", "us"},
    {"wal.group_commit_wait_us_p99", "us"},
    {"wal.batch_records_p50", "count"},
    {"wal.replay_mb_per_s", "MiB/s"},
    {"shard.two_phase_frac", "ratio"},
    {"shard.2pc_prepare_us_p50", "us"},
    {"shard.2pc_decision_us_p50", "us"},
    {"shard.2pc_phase2_us_p50", "us"},
    {"layer.client_us_per_txn", "us"},
    {"layer.begin_us_per_txn", "us"},
    {"layer.read_us_per_txn", "us"},
    {"layer.ground_us_per_txn", "us"},
    {"layer.write_us_per_txn", "us"},
    {"layer.commit_us_per_txn", "us"},
    {"layer.commit_group_us_per_txn", "us"},
    {"layer.abort_us_per_txn", "us"},
    {"layer.entangle_us_per_txn", "us"},
    {"layer.unattributed_us_per_txn", "us"},
    {"trace.self_sum_gap_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"tail.client_share", "ratio"},
    {"tail.read_share", "ratio"},
    {"tail.commit_share", "ratio"},
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

PassResult RunWorkload(const Options& o, bool traced) {
  if (o.workload == "entangled_travel") return RunEntangledTravel(o, traced);
  if (o.workload == "sql_transfer") return RunSqlTransfer(o, traced);
  return RunTravelReadMostly(o, traced);
}

void PrintReport(const char* title, const PassResult& r,
                 const std::vector<Metric>& metrics) {
  std::printf("== %s ==\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-40s %16.6f %s   (failed %llu of %llu attempted)\n",
              "failed_frac",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0,
              "ratio", static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
}

int Main(int argc, char** argv) {
  // Keep freed memory in the process: repeated set-ups and recoveries then
  // reuse warm pages instead of faulting in fresh ones from the host, whose
  // cost varies with the host's memory state rather than with the engine.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  if (argc == 6 && std::string(argv[1]) == "--time-recovery") {
    RecoveryTarget t;
    (std::string(argv[2]) == "router" ? t.router_dir : t.wal_path) = argv[3];
    t.shards = std::stoul(argv[5]);
    return RunRecoveryTiming(t, std::stoi(argv[4]));
  }
  if (argc == 6 && std::string(argv[1]) == "--time-setup") {
    Options o;
    o.workload = argv[2];
    o.data_dir = argv[3];
    o.seed = std::stoull(argv[5]);
    const int reps = std::stoi(argv[4]);
    if (o.workload == "entangled_travel") {
      return RunEntangledTravelSetupTiming(o, reps);
    }
    if (o.workload == "sql_transfer") return RunSqlTransferSetupTiming(o, reps);
    return RunTravelReadMostlySetupTiming(o, reps);
  }
  Options o;
  o.data_dir = ".bench_build/data";
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
    } else if (a == "--seconds") {
      o.seconds = std::stoi(next());
    } else if (a == "--trace") {
      trace = std::stoi(next());
    } else if (a == "--data-dir") {
      o.data_dir = next();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (o.workload != "entangled_travel" && o.workload != "sql_transfer" &&
      o.workload != "travel_read_mostly") {
    std::fprintf(stderr,
                 "--workload must be entangled_travel, sql_transfer or "
                 "travel_read_mostly\n");
    return 2;
  }
  if (o.seconds < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "--seconds must be >= 1 and --trace 0 or 1\n");
    return 2;
  }
  o.trace = trace == 1;
  std::printf("workload %s, seed %llu, seconds %d, trace %d, nproc %u\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, trace, std::thread::hardware_concurrency());
  ResetDir(o.data_dir);

  PassResult plain = RunWorkload(o, /*traced=*/false);
  PassResult traced;
  if (o.trace && plain.correct) {
    traced = RunWorkload(o, /*traced=*/true);
    const double base = plain.Get("txn_per_s");
    traced.Add(&traced.per_layer, "trace.overhead_frac",
               base > 0 ? 1.0 - traced.Get("txn_per_s") / base : 0.0,
               "ratio");
  }
  const PassResult& shown = o.trace ? traced : plain;

  if (!plain.correct || (o.trace && !traced.correct)) {
    std::fflush(stdout);
    for (const PassResult* r : {&plain, &traced}) {
      for (const std::string& f : r->check_failures) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
      }
    }
    return 1;
  }

  std::vector<Metric> metrics;
  const MetricDef* defs = o.trace ? kPerLayer : kEndToEnd;
  const size_t ndefs = o.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; i < ndefs; ++i) {
    metrics.push_back(Metric{defs[i].name, shown.Get(defs[i].name),
                             defs[i].unit});
  }
  if (o.trace) {
    PrintReport("untraced pass (end to end)", plain, plain.end_to_end);
  }
  PrintReport(o.trace ? "traced pass (per layer)" : "end to end", shown,
              metrics);

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(shown.attempted) +
                     ", \"failed\": " + std::to_string(shown.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to measure an assert-enabled build; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 1;
#else
  return perfbench::Main(argc, argv);
#endif
}
