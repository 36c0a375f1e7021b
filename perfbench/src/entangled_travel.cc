// entangled_travel: the paper's Fig. 6(a) Entangled-T §D booking pairs
// (WorkloadGenerator::Generate(kEntangledT)) on a durable single-node
// TransactionManager over 20k users, through EntangledTransactionEngine
// (4 connections, a run every 8 arrivals, no modeled statement latency).
// One generator thread keeps 16 programs outstanding, in batches of 8. The only
// workload that drives etxn runs/rounds/retries, eq grounding and joint
// evaluation, and CommitGroup with ENTANGLE/GROUP_COMMIT records; bypasses
// shard and the SQL session layer.

#include <deque>
#include <map>
#include <memory>

#include "perfbench/src/analysis.h"
#include "perfbench/src/child_timing.h"
#include "perfbench/src/tracing.h"
#include "perfbench/src/travel_stack.h"
#include "perfbench/src/workloads.h"
#include "src/common/fault.h"
#include "src/etxn/engine.h"
#include "src/wal/recovery.h"
#include "src/workload/workloads.h"

namespace perfbench {

namespace {

using youtopia::Status;
using youtopia::etxn::TxnHandle;

constexpr int kSetupReps = 8;
constexpr int kRecoverReps = 12;
constexpr size_t kUsers = 20'000;
constexpr int kRunFrequency = 8;  ///< engine starts a run every 8 arrivals
constexpr size_t kBatchPairs = kRunFrequency / 2;
constexpr size_t kBatchesOutstanding = 2;  ///< 16 programs in the engine
constexpr int64_t kTimeoutMicros = 10'000'000;
/// Timed programs per requested second (fixed work, see workloads.h).
constexpr uint64_t kTxnsPerSecond = 4'000;

youtopia::etxn::EngineOptions EngineOpts() {
  youtopia::etxn::EngineOptions o;
  o.num_connections = 4;
  o.run_frequency = kRunFrequency;
  o.statement_latency_micros = 0;
  o.default_timeout_micros = kTimeoutMicros;
  return o;
}

/// One submitted booking pair and how it ended: each program's handle and
/// the time the client saw it resolve.
struct PairRun {
  struct Program {
    std::shared_ptr<TxnHandle> handle;
    int64_t done_ns = 0;  ///< 0 until the client has seen it resolve
  };
  int64_t submit_ns = 0;
  Program a, b;
};

/// What the client learned from the pairs it ran.
struct ClientLog {
  std::vector<PairRun> pairs;
  std::vector<std::string> texts;  ///< program statement texts (parse timing)
  std::vector<std::string> failures;
};

/// Closed loop in batches of one run's worth: the generator submits
/// kBatchPairs pairs (run_frequency programs) at once and keeps
/// kBatchesOutstanding batches in the engine, so one batch runs while the
/// next waits in the dormant pool and every run starts on a full batch.
/// The generator blocks on the oldest unresolved program; when it wakes it
/// stamps that program and every other outstanding one that has resolved
/// meanwhile (a run resolves its groups one after another, microseconds
/// apart). When the oldest batch has resolved, a new batch is submitted.
/// Specs are generated just before submission from one seeded generator,
/// so the inputs depend only on the seed and the pair count.
ClientLog RunPairs(youtopia::etxn::EntangledTransactionEngine* engine,
                   youtopia::workload::WorkloadGenerator* gen, size_t npairs,
                   bool keep_texts) {
  ClientLog log;
  log.pairs.reserve(npairs);
  std::deque<size_t> batches;  ///< first pair index of each outstanding batch
  size_t next = 0;
  auto submit_batch = [&]() -> bool {
    batches.push_back(next);
    const size_t end = std::min(npairs, next + kBatchPairs);
    for (; next < end; ++next) {
      auto specs = gen->Generate(youtopia::workload::WorkloadType::kEntangledT,
                                 2, kTimeoutMicros);
      if (!specs.ok() || specs.value().size() != 2) {
        log.failures.push_back("workload generation failed: " +
                               specs.status().ToString());
        return false;
      }
      if (keep_texts && log.texts.size() < 4000) {
        for (const auto& spec : specs.value()) {
          for (const auto& st : spec.statements) log.texts.push_back(st.text);
        }
      }
      PairRun p;
      p.submit_ns = NowNanos();
      p.a.handle = engine->Submit(std::move(specs.value()[0]));
      p.b.handle = engine->Submit(std::move(specs.value()[1]));
      log.pairs.push_back(std::move(p));
    }
    return true;
  };
  // The first program of the batch starting at `first` not yet seen
  // resolved, or nullptr.
  auto unresolved = [&](size_t first) -> PairRun::Program* {
    const size_t end = std::min(log.pairs.size(), first + kBatchPairs);
    for (size_t i = first; i < end; ++i) {
      for (PairRun::Program* p : {&log.pairs[i].a, &log.pairs[i].b}) {
        if (p->done_ns == 0) return p;
      }
    }
    return nullptr;
  };
  while (next < npairs || !batches.empty()) {
    while (batches.size() < kBatchesOutstanding && next < npairs) {
      if (!submit_batch()) break;
    }
    if (!log.failures.empty() || batches.empty()) break;
    PairRun::Program* oldest = unresolved(batches.front());
    (void)oldest->handle->Wait();
    const int64_t now = NowNanos();
    oldest->done_ns = now;
    for (size_t i = batches.front(); i < log.pairs.size(); ++i) {
      for (PairRun::Program* p : {&log.pairs[i].a, &log.pairs[i].b}) {
        if (p->done_ns == 0 && p->handle->done()) p->done_ns = now;
      }
    }
    while (!batches.empty() && unresolved(batches.front()) == nullptr) {
      batches.pop_front();
    }
  }
  return log;
}

/// Engine counters summed over the timed segments' engines.
struct EngineTotals {
  uint64_t runs = 0;
  uint64_t eval_rounds = 0;
  uint64_t committed = 0;
  uint64_t retried = 0;
  uint64_t participants = 0;  ///< participant outcomes of all runs
};

/// Checks every pair (both partners committed with the same destination,
/// or neither) and adds the committed bookings to `expected`.
void CheckPairs(const ClientLog& log, PassResult* res,
                std::map<std::pair<int64_t, int64_t>, int>* expected,
                uint64_t* committed, uint64_t* failed) {
  size_t reported = 0;
  auto fail = [&](const std::string& why) {
    if (reported++ < 10) res->Fail(why);
  };
  for (const PairRun& p : log.pairs) {
    const bool a_ok = p.a.handle->Wait().ok();
    const bool b_ok = p.b.handle->Wait().ok();
    if (a_ok != b_ok) {
      fail("widowed entangled transaction: one partner committed alone");
      continue;
    }
    if (!a_ok) {
      *failed += 2;
      continue;
    }
    const auto va = p.a.handle->final_vars();
    const auto vb = p.b.handle->final_vars();
    auto get = [](const youtopia::sql::VarEnv& v, const char* k) {
      auto it = v.find(k);
      return it == v.end() ? youtopia::Value::Null() : it->second;
    };
    const youtopia::Value da = get(va, "destination");
    if (da.is_null() || !(da == get(vb, "destination"))) {
      fail("partners committed with different @destination");
      continue;
    }
    for (const auto* v : {&va, &vb}) {
      const youtopia::Value uid = get(*v, "uid");
      const youtopia::Value fid = get(*v, "fid");
      if (uid.is_null() || fid.is_null()) {
        fail("committed booking without @uid/@fid");
        continue;
      }
      ++(*expected)[{uid.as_int(), fid.as_int()}];
    }
    *committed += 2;
  }
}

/// The set-up: a durable TransactionManager over seeded TravelData.
youtopia::StatusOr<std::unique_ptr<TravelStack>> BuildStack(const Options& o) {
  youtopia::workload::TravelDataOptions dopts;
  dopts.num_users = kUsers;
  dopts.edges_per_node = 4;
  dopts.num_cities = 10;
  dopts.seed = o.seed;
  return TravelStack::Build(o.data_dir + "/entangled_travel", dopts,
                            youtopia::IsolationLevel::kFullEntangled);
}

}  // namespace

int RunEntangledTravelSetupTiming(const Options& o, int reps) {
  std::unique_ptr<TravelStack> stack;
  return RunSetupTiming(
      reps, [&] { stack.reset(); },
      [&]() -> Status {
        YT_ASSIGN_OR_RETURN(stack, BuildStack(o));
        return Status::Ok();
      });
}

PassResult RunEntangledTravel(const Options& opts, bool traced) {
  PassResult res;
  const std::string dir = opts.data_dir + "/entangled_travel";
  std::string setup_error;
  std::vector<double> setups =
      TimeSetupsInChild(opts, kSetupReps, &setup_error);
  if (setups.empty()) {
    res.Fail("timed set-up: " + setup_error);
    return res;
  }
  auto built = BuildStack(opts);
  if (!built.ok()) {
    res.Fail("set-up failed: " + built.status().ToString());
    return res;
  }
  std::unique_ptr<TravelStack> stack = std::move(built).value();

  const uint64_t timed_txns = TimedOps(kTxnsPerSecond, opts.seconds);
  const size_t timed_pairs = timed_txns / 2;
  const size_t warm_pairs =
      static_cast<size_t>(static_cast<double>(timed_pairs) * kWarmupShare);

  SpanRecorder recorder;
  TracingEngine tracing(stack->tm.get(), &recorder);
  youtopia::TxnEngine* engine =
      traced ? static_cast<youtopia::TxnEngine*>(&tracing) : stack->tm.get();
  youtopia::workload::WorkloadGenerator gen(&stack->data, opts.seed);

  // Warm-up on its own engine (untraced: its spans would belong to no
  // request), then kSegments timed segments, each on a freshly started
  // engine (connection pool and scheduler threads).
  auto run_engine = [&](youtopia::TxnEngine* on, size_t npairs,
                        bool keep_texts, EngineTotals* totals) {
    youtopia::etxn::EntangledTransactionEngine etxn(on, EngineOpts());
    ClientLog log = RunPairs(&etxn, &gen, npairs, keep_texts);
    const youtopia::etxn::EngineStats& es = etxn.stats();
    if (totals != nullptr) {
      totals->runs += es.runs.load();
      totals->eval_rounds += es.eval_rounds.load();
      totals->committed += es.committed.load();
      totals->retried += es.retried.load();
      totals->participants += es.committed.load() + es.retried.load() +
                              es.failed.load() + es.timed_out.load();
    }
    return log;
  };
  ClientLog warm = run_engine(stack->tm.get(), warm_pairs, false, nullptr);
  const uint64_t wal_before = DirBytes(dir);
  const TxnCounts counts_before =
      TxnCounts::Capture(stack->tm.get(), {stack->tm.get()});
  const RegistrySnapshot before = RegistrySnapshot::Take();
  EngineTotals totals;
  std::vector<ClientLog> logs;
  std::vector<Segment> segments;
  for (int k = 0; k < kSegments; ++k) {
    const size_t npairs = timed_pairs * (k + 1) / kSegments -
                          timed_pairs * k / kSegments;
    Segment seg;
    seg.t0_ns = NowNanos();
    logs.push_back(run_engine(engine, npairs, k == 0, &totals));
    seg.t1_ns = NowNanos();
    segments.push_back(std::move(seg));
  }
  const RegistrySnapshot after = RegistrySnapshot::Take();
  const TxnCounts counts_after =
      TxnCounts::Capture(stack->tm.get(), {stack->tm.get()});
  const uint64_t wal_after = DirBytes(dir);
  for (const std::string& f : warm.failures) res.Fail(f);

  // --- Client-side results and the pair checks.
  std::map<std::pair<int64_t, int64_t>, int> expected;
  uint64_t warm_committed = 0, warm_failed = 0, committed = 0, failed = 0;
  CheckPairs(warm, &res, &expected, &warm_committed, &warm_failed);
  std::vector<Request> requests;
  for (size_t k = 0; k < logs.size(); ++k) {
    const ClientLog& log = logs[k];
    for (const std::string& f : log.failures) res.Fail(f);
    CheckPairs(log, &res, &expected, &committed, &failed);
    res.attempted += 2 * log.pairs.size();
    for (const PairRun& p : log.pairs) {
      for (const PairRun::Program* prog : {&p.a, &p.b}) {
        if (!prog->handle->Wait().ok()) continue;
        segments[k].txns.emplace_back(p.submit_ns, prog->done_ns);
        Request r;
        r.submit_ns = p.submit_ns;
        r.done_ns = prog->done_ns;
        r.txn_id = prog->handle->committed_txn_id();
        requests.push_back(r);
      }
    }
  }
  res.failed = failed;
  AddLatencyMetrics(&res, segments);
  if (std::string why = CompareReserve(ReserveRows(stack->db), expected);
      !why.empty()) {
    res.Fail("live state: " + why);
  }

  // --- Per-layer metrics.
  auto& pl = res.per_layer;
  const double nruns =
      totals.runs > 0 ? static_cast<double>(totals.runs) : 1.0;
  res.Add(&pl, "etxn.participants_per_run",
          static_cast<double>(totals.participants) / nruns, "count");
  res.Add(&pl, "etxn.rounds_per_run",
          static_cast<double>(totals.eval_rounds) / nruns, "count");
  res.Add(&pl, "etxn.useful_frac",
          totals.committed + totals.retried > 0
              ? static_cast<double>(totals.committed) /
                    static_cast<double>(totals.committed + totals.retried)
              : 0.0,
          "ratio");
  const TxnCounts delta = counts_after - counts_before;
  // A program's statements are its client statements here.
  AddEngineLayerMetrics(before, after, delta, committed, committed, &res);
  res.Add(&pl, "sql.parse_us", MedianParseMicros(logs.front().texts), "us");
  if (traced) {
    TraceInputs in;
    in.spans = recorder.Collect();
    in.requests = std::move(requests);
    in.by_context = false;
    in.client_layer = "etxn";
    in.statements = committed;
    in.chrome_path = opts.data_dir + "/trace-entangled_travel.json";
    AnalyzeTrace(in, &res);
  }

  // --- Crash. Recovery is timed kRecoverReps times in a fresh process,
  // then run once more here and checked.
  const uint64_t wal_bytes = DirBytes(dir);
  const std::string wal_path = stack->wal_path();
  youtopia::FaultInjector::Global()->ForceCrash("end of benchmark run");
  stack.reset();
  youtopia::FaultInjector::Global()->Reset();
  std::string recover_error;
  const std::vector<double> recoveries = TimeRecoveryInChild(
      RecoveryTarget{.wal_path = wal_path}, kRecoverReps, &recover_error);
  if (recoveries.empty()) res.Fail("timed recovery: " + recover_error);
  {
    auto recovered = youtopia::RecoveryManager::Recover(wal_path);
    if (!recovered.ok()) {
      res.Fail("recovery failed: " + recovered.status().ToString());
    } else if (std::string why = CompareReserve(
                   ReserveRows(*recovered.value().db), expected);
               !why.empty()) {
      res.Fail("after crash recovery (all-or-none groups): " + why);
    }
  }

  // --- Set-ups again, after the run (see workloads.h).
  const std::vector<double> late =
      TimeSetupsInChild(opts, kSetupReps, &setup_error);
  if (late.empty()) res.Fail("timed set-up: " + setup_error);
  setups.insert(setups.end(), late.begin(), late.end());
  AddDurabilityMetrics(setups, recoveries, wal_bytes, wal_after - wal_before,
                       committed, &res);
  res.notes.push_back("flush policy: WAL fflush per group-commit batch, no "
                      "fsync (sync_on_flush=false), group commit on");
  res.notes.push_back("timed programs: " + std::to_string(res.attempted) +
                      " (one generator thread, " +
                      std::to_string(2 * kBatchPairs * kBatchesOutstanding) +
                      " programs outstanding in batches of " +
                      std::to_string(2 * kBatchPairs) +
                      "; engine: 4 connections, a run every " +
                      std::to_string(kRunFrequency) +
                      " arrivals, a fresh engine per segment)");
  RemoveDir(dir);
  return res;
}

}  // namespace perfbench
