// sql_transfer: a durable 4-shard Router holding 200k acct(id PK, bal)
// rows, driven through a SessionServer (2 workers, 4 sessions). 80% of the
// transactions are single-row autocommit UPDATEs (one-phase commit on one
// shard), 20% explicit BEGIN; UPDATE a; UPDATE b; COMMIT transfers between
// random accounts (two-phase commit when a and b live on different shards).
// Exercises sql, SessionServer park-don't-block, shard routing and 2PC, WAL
// group commit and the lock manager; bypasses eq/etxn and scans.

#include <memory>

#include "perfbench/src/analysis.h"
#include "perfbench/src/child_timing.h"
#include "perfbench/src/sql_client.h"
#include "perfbench/src/tracing.h"
#include "perfbench/src/workloads.h"
#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/shard/router.h"

namespace perfbench {

namespace {

using youtopia::Row;
using youtopia::Status;
using youtopia::Value;
using youtopia::shard::Router;

constexpr int kSetupReps = 4;
constexpr int kRecoverReps = 8;
constexpr int64_t kAccounts = 200'000;
constexpr int64_t kLoadBatch = 1000;  ///< rows per set-up transaction
constexpr int64_t kInitialBalance = 1000;
constexpr size_t kShards = 4;
constexpr size_t kSessions = 4;
constexpr size_t kServerThreads = 2;
constexpr double kTransferShare = 0.2;
/// Timed transactions per requested second: the operation count is fixed
/// by --seconds, never by how fast the engine runs.
constexpr uint64_t kOpsPerSecond = 9'000;

Router::Options RouterOptions(const std::string& dir) {
  Router::Options o;
  o.num_shards = kShards;
  o.dir = dir;
  o.sync_on_flush = false;  // fflush per group-commit batch, no fsync
  return o;
}

/// Fresh durable router whose accounts arrive through committed
/// kLoadBatch-row transactions, so the WAL alone can rebuild them.
youtopia::StatusOr<std::unique_ptr<Router>> BuildRouter(
    const std::string& dir) {
  ResetDir(dir);
  YT_ASSIGN_OR_RETURN(std::unique_ptr<Router> r,
                      Router::Open(RouterOptions(dir)));
  youtopia::Schema schema(
      {{"id", youtopia::TypeId::kInt64}, {"bal", youtopia::TypeId::kInt64}});
  schema.set_primary_key({0});
  YT_RETURN_IF_ERROR(r->CreateTable("acct", schema).status());
  for (int64_t lo = 0; lo < kAccounts; lo += kLoadBatch) {
    auto txn = r->Begin();
    for (int64_t id = lo; id < std::min(kAccounts, lo + kLoadBatch); ++id) {
      YT_RETURN_IF_ERROR(
          r->Insert(txn.get(), "acct",
                    Row({Value::Int(id), Value::Int(kInitialBalance)}))
              .status());
    }
    YT_RETURN_IF_ERROR(r->Commit(txn.get()));
  }
  return r;
}

/// Every account's balance, read through the engine in one transaction.
youtopia::StatusOr<std::vector<int64_t>> ReadBalances(Router* r) {
  std::vector<int64_t> bal(kAccounts, INT64_MIN);
  auto txn = r->Begin();
  {
    YT_ASSIGN_OR_RETURN(auto cursor,
                        r->OpenCursor(txn.get(), "acct",
                                      youtopia::AccessPlan::TableScan(),
                                      youtopia::ReadOrigin::kStatement));
    YT_RETURN_IF_ERROR(cursor->DrainRef([&](youtopia::RowId, const Row& row) {
      const int64_t id = row[0].as_int();
      if (id >= 0 && id < kAccounts) bal[id] = row[1].as_int();
      return true;
    }));
  }
  YT_RETURN_IF_ERROR(r->Commit(txn.get()));
  return bal;
}

/// One seeded transaction: an autocommit delta on `a`, or a transfer of
/// `amount` from `a` to `b`.
struct Txn {
  bool transfer = false;
  int64_t a = 0, b = 0, amount = 0;
};

SqlOp ToSql(const Txn& t) {
  auto update = [](int64_t id, int64_t delta) {
    return "UPDATE acct SET bal = bal " + std::string(delta < 0 ? "- " : "+ ") +
           std::to_string(delta < 0 ? -delta : delta) +
           " WHERE id = " + std::to_string(id);
  };
  SqlOp op;
  if (!t.transfer) {
    op.statements = {update(t.a, t.amount)};
    return op;
  }
  // Lower id first: every transfer locks its two rows in one global order,
  // so transfers never deadlock across shards.
  std::string debit = update(t.a, -t.amount), credit = update(t.b, t.amount);
  if (t.b < t.a) std::swap(debit, credit);
  op.statements = {"BEGIN", debit, credit, "COMMIT"};
  return op;
}

std::vector<std::vector<Txn>> GenerateTxns(uint64_t seed, size_t per_session) {
  std::vector<std::vector<Txn>> out(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    youtopia::Rng rng(seed * 1'000'003 + s);
    for (size_t i = 0; i < per_session; ++i) {
      Txn t;
      t.transfer = rng.Bernoulli(kTransferShare);
      t.a = rng.Uniform(0, kAccounts - 1);
      if (t.transfer) {
        do {
          t.b = rng.Uniform(0, kAccounts - 1);
        } while (t.b == t.a);
        t.amount = rng.Uniform(1, 100);
      } else {
        t.amount = rng.Uniform(1, 9) * (rng.Bernoulli(0.5) ? 1 : -1);
      }
      out[s].push_back(t);
    }
  }
  return out;
}

/// Applies every acknowledged transaction to the expected balances.
void ApplyAcked(const std::vector<Txn>& txns,
                const std::vector<SqlOutcome>& outcomes,
                std::vector<int64_t>* expected) {
  for (size_t i = 0; i < txns.size(); ++i) {
    if (!outcomes[i].ok) continue;
    const Txn& t = txns[i];
    if (t.transfer) {
      (*expected)[t.a] -= t.amount;
      (*expected)[t.b] += t.amount;
    } else {
      (*expected)[t.a] += t.amount;
    }
  }
}

/// Compares balances; returns "" when they match.
std::string CompareBalances(const std::vector<int64_t>& got,
                            const std::vector<int64_t>& want) {
  int64_t got_sum = 0, want_sum = 0;
  size_t mismatches = 0;
  int64_t first = -1;
  for (int64_t id = 0; id < kAccounts; ++id) {
    got_sum += got[id];
    want_sum += want[id];
    if (got[id] != want[id]) {
      if (first < 0) first = id;
      ++mismatches;
    }
  }
  if (mismatches == 0) return "";
  return std::to_string(mismatches) + " balances differ (first: id " +
         std::to_string(first) + " has " + std::to_string(got[first]) +
         ", expected " + std::to_string(want[first]) + "); total " +
         std::to_string(got_sum) + " vs expected " + std::to_string(want_sum);
}

}  // namespace

int RunSqlTransferSetupTiming(const Options& o, int reps) {
  std::unique_ptr<Router> router;
  return RunSetupTiming(
      reps, [&] { router.reset(); },
      [&]() -> Status {
        YT_ASSIGN_OR_RETURN(router, BuildRouter(o.data_dir + "/sql_transfer"));
        return Status::Ok();
      });
}

PassResult RunSqlTransfer(const Options& opts, bool traced) {
  PassResult res;
  const std::string dir = opts.data_dir + "/sql_transfer";

  // --- Set-up, timed in a fresh process (see workloads.h), then built here.
  std::string setup_error;
  std::vector<double> setups =
      TimeSetupsInChild(opts, kSetupReps, &setup_error);
  if (setups.empty()) {
    res.Fail("timed set-up: " + setup_error);
    return res;
  }
  auto built = BuildRouter(dir);
  if (!built.ok()) {
    res.Fail("set-up failed: " + built.status().ToString());
    return res;
  }
  std::unique_ptr<Router> router = std::move(built).value();

  const uint64_t timed_ops = TimedOps(kOpsPerSecond, opts.seconds);
  const size_t warm_per_session =
      static_cast<size_t>(static_cast<double>(timed_ops) * kWarmupShare) /
      kSessions;
  const size_t timed_per_session = timed_ops / kSessions;
  auto all = GenerateTxns(opts.seed, warm_per_session + timed_per_session);
  std::vector<std::vector<Txn>> warm(kSessions), timed(kSessions);
  std::vector<std::vector<SqlOp>> warm_ops(kSessions), timed_ops_sql(kSessions);
  std::vector<std::string> texts;
  for (size_t s = 0; s < kSessions; ++s) {
    warm[s].assign(all[s].begin(), all[s].begin() + warm_per_session);
    timed[s].assign(all[s].begin() + warm_per_session, all[s].end());
    for (const Txn& t : warm[s]) warm_ops[s].push_back(ToSql(t));
    for (const Txn& t : timed[s]) {
      timed_ops_sql[s].push_back(ToSql(t));
      if (texts.size() < 4000) {
        for (const std::string& q : timed_ops_sql[s].back().statements) {
          texts.push_back(q);
        }
      }
    }
  }

  SpanRecorder recorder;
  TracingEngine tracing(router.get(), &recorder);
  youtopia::TxnEngine* engine =
      traced ? static_cast<youtopia::TxnEngine*>(&tracing) : router.get();
  std::vector<youtopia::TxnEngine*> shards;
  for (size_t s = 0; s < router->num_shards(); ++s) {
    shards.push_back(router->shard_tm(s));
  }

  RegistrySnapshot before, after;
  TxnCounts counts_before, counts_after;
  // The warm-up runs untraced: its spans would belong to no request.
  const SqlRun warm_run =
      RunSqlSegments(router.get(), kServerThreads, nullptr, warm_ops, 1);
  const uint64_t wal_before = DirBytes(dir);
  counts_before = TxnCounts::Capture(router.get(), shards);
  before = RegistrySnapshot::Take();
  const SqlRun run = RunSqlSegments(engine, kServerThreads,
                              traced ? &recorder : nullptr, timed_ops_sql,
                              kSegments);
  after = RegistrySnapshot::Take();
  counts_after = TxnCounts::Capture(router.get(), shards);
  const uint64_t wal_after = DirBytes(dir);
  for (const SqlRun* r : {&warm_run, &run}) {
    for (const std::string& f : r->check_failures) res.Fail(f);
  }

  // --- Client-side results.
  uint64_t rows_returned = 0;
  std::vector<Request> requests =
      AcknowledgedRequests(run, &res, &rows_returned);
  const uint64_t committed = requests.size();
  AddLatencyMetrics(&res, run.segments);

  // --- Correctness: every acknowledged transaction applied exactly once.
  std::vector<int64_t> expected(kAccounts, kInitialBalance);
  for (size_t s = 0; s < kSessions; ++s) {
    ApplyAcked(warm[s], warm_run.outcomes[s], &expected);
    ApplyAcked(timed[s], run.outcomes[s], &expected);
  }
  auto live = ReadBalances(router.get());
  if (!live.ok()) {
    res.Fail("reading balances failed: " + live.status().ToString());
  } else if (std::string why = CompareBalances(live.value(), expected);
             !why.empty()) {
    res.Fail("live state: " + why);
  }

  // --- Per-layer metrics.
  const TxnCounts delta = counts_after - counts_before;
  AddEngineLayerMetrics(before, after, delta, committed, run.statements,
                        &res);
  res.Add(&res.per_layer, "sql.parse_us", MedianParseMicros(texts), "us");
  if (traced) {
    TraceInputs in;
    in.spans = recorder.Collect();
    in.requests = std::move(requests);
    in.by_context = true;
    in.client_layer = "sql+queue";
    in.statements = run.statements;
    in.rows_returned = rows_returned;
    in.statement_us_sum = static_cast<double>(
        after.HistogramDelta(before, "sql.statement_micros").sum);
    in.chrome_path = opts.data_dir + "/trace-sql_transfer.json";
    AnalyzeTrace(in, &res);
  }

  // --- Crash. Recovery is timed kRecoverReps times in a fresh process,
  // then run once more here and checked.
  const uint64_t wal_bytes = DirBytes(dir);
  youtopia::FaultInjector::Global()->ForceCrash("end of benchmark run");
  router.reset();
  youtopia::FaultInjector::Global()->Reset();
  std::string recover_error;
  const std::vector<double> recoveries = TimeRecoveryInChild(
      RecoveryTarget{.router_dir = dir, .shards = kShards}, kRecoverReps,
      &recover_error);
  if (recoveries.empty()) res.Fail("timed recovery: " + recover_error);
  {
    auto recovered = Router::Recover(RouterOptions(dir));
    if (!recovered.ok()) {
      res.Fail("recovery failed: " + recovered.status().ToString());
    } else {
      auto got = ReadBalances(recovered.value().get());
      if (!got.ok()) {
        res.Fail("reading recovered balances failed: " +
                 got.status().ToString());
      } else if (std::string why = CompareBalances(got.value(), expected);
                 !why.empty()) {
        res.Fail("after crash recovery: " + why);
      }
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
  res.notes.push_back("timed transactions: " + std::to_string(res.attempted) +
                      " (" + std::to_string(kSessions) + " sessions on " +
                      std::to_string(kServerThreads) +
                      " server threads, closed loop; a fresh server per "
                      "segment)");
  RemoveDir(dir);
  return res;
}

}  // namespace perfbench
