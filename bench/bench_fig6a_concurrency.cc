// Reproduces Figure 6(a) "Concurrent transactions": total time to execute a
// fixed batch of travel-booking programs vs the number of concurrent DBMS
// connections, for the six workloads NoSocial/Social/Entangled x -T/-Q.
//
// Paper setup: 10,000 transactions, connections 10..100, MySQL middle tier;
// entangled transactions submitted so every one finds its partner within
// its batch. Here: scaled-down N with a simulated per-statement round trip
// (the paper's bottleneck is connection-bound, not CPU-bound). Expected
// shape: time inversely proportional to connections for every workload;
// Entangled-T sits marginally above NoSocial-T/Social-T, and the T-vs-Q gap
// for Entangled matches the pure entangled-query evaluation gap.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace youtopia::bench {
namespace {

constexpr size_t kTxns = 600;               // paper: 10,000
constexpr int64_t kLatencyMicros = 500;     // simulated client<->DBMS trip
constexpr size_t kBatch = 100;              // arrivals per run (all matched)

// Third arg: read-path ablation. 0 runs the generated specs as-is (their
// default kFullEntangled level, where MVCC snapshot reads are inert); 1
// re-levels every spec to kReadCommitted with snapshot reads ON (scans
// serve a versioned cut, no S locks); 2 is the same at snapshot reads OFF
// (scans back under shared locks). The 1-vs-2 gap is the fig. 6(a) delta
// attributable to readers never blocking writers.
enum class ReadMode : long { kDefault = 0, kSnapRead = 1, kLockRead = 2 };

void BM_Fig6a(benchmark::State& state) {
  auto type = static_cast<workload::WorkloadType>(state.range(0));
  size_t connections = static_cast<size_t>(state.range(1));
  auto read_mode = static_cast<ReadMode>(state.range(2));

  for (auto _ : state) {
    state.PauseTiming();
    // Small tables keep query CPU negligible next to the simulated round
    // trips (this host has few cores; the paper's bottleneck is
    // connections, not compute).
    workload::TravelDataOptions dopts;
    dopts.num_users = 300;
    dopts.edges_per_node = 3;
    dopts.num_cities = 6;
    auto stack = Stack::Create(dopts);
    if (!stack.ok()) {
      state.SkipWithError(stack.status().ToString().c_str());
      return;
    }
    etxn::EngineOptions eopts;
    eopts.auto_scheduler = true;
    eopts.num_connections = connections;
    eopts.statement_latency_micros = kLatencyMicros;
    eopts.run_frequency = static_cast<int>(kBatch);
    eopts.scheduler_poll_micros = 2000;
    eopts.default_timeout_micros = 60'000'000;
    etxn::EntangledTransactionEngine engine(stack.value()->tm.get(), eopts);
    workload::WorkloadGenerator gen(&stack.value()->data, 42);
    auto specs = gen.Generate(type, kTxns, 60'000'000);
    if (!specs.ok()) {
      state.SkipWithError(specs.status().ToString().c_str());
      return;
    }
    if (read_mode != ReadMode::kDefault) {
      stack.value()->tm->set_mvcc_reads_enabled(read_mode ==
                                                ReadMode::kSnapRead);
      for (auto& sp : specs.value()) {
        sp.isolation = IsolationLevel::kReadCommitted;
      }
    }
    state.ResumeTiming();
    double secs = RunSpecs(&engine, std::move(specs).value());
    state.PauseTiming();
    state.counters["time_s"] = secs;
    state.counters["txn_per_s"] = kTxns / secs;
    state.counters["committed"] =
        static_cast<double>(engine.stats().committed.load());
    const TxnStats& tstats = stack.value()->tm->stats();
    state.counters["snapshot_reads"] =
        static_cast<double>(tstats.snapshot_reads.load());
    state.ResumeTiming();
  }
}

void RegisterAll() {
  using workload::WorkloadType;
  for (WorkloadType type :
       {WorkloadType::kNoSocialT, WorkloadType::kSocialT,
        WorkloadType::kEntangledT, WorkloadType::kNoSocialQ,
        WorkloadType::kSocialQ, WorkloadType::kEntangledQ}) {
    for (int conns : {10, 25, 50, 100}) {
      std::string name = std::string("Fig6a/") +
                         workload::WorkloadTypeName(type) + "/conns:" +
                         std::to_string(conns);
      benchmark::RegisterBenchmark(name.c_str(), BM_Fig6a)
          ->Args({static_cast<long>(type), conns,
                  static_cast<long>(ReadMode::kDefault)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
  // Read-path ablation points: NoSocial-T at 50 connections with its specs
  // re-leveled to kReadCommitted, snapshot reads on vs off.
  for (ReadMode mode : {ReadMode::kSnapRead, ReadMode::kLockRead}) {
    std::string name =
        std::string("Fig6a/NoSocial-T-") +
        (mode == ReadMode::kSnapRead ? "SnapRead" : "LockRead") + "/conns:50";
    benchmark::RegisterBenchmark(name.c_str(), BM_Fig6a)
        ->Args({static_cast<long>(WorkloadType::kNoSocialT), 50,
                static_cast<long>(mode)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace youtopia::bench

int main(int argc, char** argv) {
  youtopia::bench::RegisterAll();
#ifdef NDEBUG
  benchmark::AddCustomContext("youtopia_build_type", "release");
#else
  benchmark::AddCustomContext("youtopia_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf(
      "\nFigure 6(a) notes: expect time ~ 1/connections for all series;\n"
      "Entangled-T above NoSocial-T by roughly the Entangled-Q vs "
      "NoSocial-Q gap\n(entanglement overhead = entangled-query evaluation, "
      "not transactional machinery).\n");
  benchmark::Shutdown();
  return 0;
}
