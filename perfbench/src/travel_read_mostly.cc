// travel_read_mostly: a durable single-node TransactionManager at
// kReadCommitted (MVCC snapshot reads) over the §D travel database with
// 100k users (about 1M rows, well past the L2 cache), driven through a
// SessionServer (2 workers, 4 sessions). Every statement autocommits:
// point selects by uid, the §D social three-way join, flight lookups, and
// 5% Reserve inserts. Exercises the planner/executor, the index/cursor read
// path and snapshot reads; barely touches the WAL, never shard/eq/etxn.

#include <map>
#include <memory>
#include <set>

#include "perfbench/src/analysis.h"
#include "perfbench/src/child_timing.h"
#include "perfbench/src/sql_client.h"
#include "perfbench/src/tracing.h"
#include "perfbench/src/travel_stack.h"
#include "perfbench/src/workloads.h"
#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/wal/recovery.h"

namespace perfbench {

namespace {

using youtopia::Row;
using youtopia::Status;
using youtopia::sql::QueryResult;

constexpr int kSetupReps = 4;
constexpr int kRecoverReps = 8;
constexpr size_t kUsers = 100'000;
constexpr size_t kSessions = 4;
constexpr size_t kServerThreads = 2;
/// Statement mix (cumulative shares): point select, social join, flight
/// lookup, Reserve insert.
constexpr double kPointShare = 0.40;
constexpr double kJoinShare = 0.30;
constexpr double kFlightShare = 0.25;
/// Timed statements per requested second (fixed work, see workloads.h).
constexpr uint64_t kOpsPerSecond = 1'100;
/// Reserve fids written by this workload start here; each insert gets its
/// own, so acknowledged inserts can be matched one to one after recovery.
constexpr int64_t kFidBase = 10'000'000;

using FlightMap = std::map<std::pair<std::string, std::string>,
                           std::set<int64_t>>;

FlightMap Flights(const youtopia::Database& db) {
  FlightMap m;
  auto t = db.GetTable("Flight");
  if (!t.ok()) return m;
  t.value()->Scan([&](youtopia::RowId, const Row& row) {
    m[{row[0].as_string(), row[1].as_string()}].insert(row[2].as_int());
    return true;
  });
  return m;
}

struct Generated {
  std::vector<std::vector<SqlOp>> ops;
  /// (uid, fid) of every insert, by [session][op] (fid 0 = not an insert).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> inserts;
};

Generated GenerateOps(uint64_t seed, size_t first, size_t per_session,
                      const youtopia::workload::TravelData* data,
                      const FlightMap* flights) {
  Generated g;
  g.ops.resize(kSessions);
  g.inserts.resize(kSessions);
  const auto& cities = data->cities();
  for (size_t s = 0; s < kSessions; ++s) {
    youtopia::Rng rng(seed * 1'000'003 + s);
    // Skip the draws of the ops before `first` so warm-up and timed ops
    // continue one seeded stream.
    for (size_t i = 0; i < first + per_session; ++i) {
      const double pick = rng.NextDouble();
      const uint32_t u = static_cast<uint32_t>(rng.Index(data->num_users()));
      const size_t src = rng.Index(cities.size());
      size_t dst = rng.Index(cities.size() - 1);
      if (dst >= src) ++dst;
      if (i < first) continue;
      SqlOp op;
      std::pair<int64_t, int64_t> ins{0, 0};
      if (pick < kPointShare) {
        op.statements = {youtopia::StrFormat(
            "SELECT hometown FROM User WHERE uid = %u", u)};
        op.check = [data, u](const QueryResult& r) -> std::string {
          if (r.rows.size() == 1 && r.rows[0][0].as_string() ==
                                        data->hometown_of(u)) {
            return "";
          }
          return youtopia::StrFormat("point select of uid %u returned %zu "
                                     "rows / wrong hometown", u,
                                     r.rows.size());
        };
      } else if (pick < kPointShare + kJoinShare) {
        op.statements = {youtopia::StrFormat(
            "SELECT uid2 FROM Friends, User u1, User u2 "
            "WHERE Friends.uid1 = %u AND Friends.uid2 = u2.uid "
            "AND u1.uid = %u AND u1.hometown = u2.hometown LIMIT 1",
            u, u)};
        op.check = [data, u](const QueryResult& r) -> std::string {
          const auto& friends = data->graph().FriendsOf(u);
          bool any = false;
          for (uint32_t f : friends) {
            any |= data->hometown_of(f) == data->hometown_of(u);
          }
          if (r.rows.empty()) {
            return any ? youtopia::StrFormat(
                             "social join for uid %u missed a same-town "
                             "friend", u)
                       : "";
          }
          const int64_t f = r.rows[0][0].as_int();
          if (r.rows.size() == 1 && data->graph().AreFriends(u, f) &&
              data->hometown_of(static_cast<uint32_t>(f)) ==
                  data->hometown_of(u)) {
            return "";
          }
          return youtopia::StrFormat("social join for uid %u returned a "
                                     "wrong row", u);
        };
      } else if (pick < kPointShare + kJoinShare + kFlightShare) {
        const std::string& a = cities[src];
        const std::string& b = cities[dst];
        op.statements = {youtopia::StrFormat(
            "SELECT fid FROM Flight WHERE source = '%s' AND destination = "
            "'%s' LIMIT 1",
            a.c_str(), b.c_str())};
        const std::set<int64_t>* fids = &flights->at({a, b});
        op.check = [fids](const QueryResult& r) -> std::string {
          if (r.rows.size() == 1 && fids->count(r.rows[0][0].as_int()) > 0) {
            return "";
          }
          return "flight lookup returned a wrong row";
        };
      } else {
        const int64_t fid = kFidBase + static_cast<int64_t>(s) * 100'000'000 +
                            static_cast<int64_t>(i);
        op.statements = {youtopia::StrFormat(
            "INSERT INTO Reserve (uid, fid) VALUES (%u, %lld)", u,
            static_cast<long long>(fid))};
        ins = {u, fid};
      }
      g.ops[s].push_back(std::move(op));
      g.inserts[s].push_back(ins);
    }
  }
  return g;
}

void AddAckedInserts(const Generated& g,
                     const std::vector<std::vector<SqlOutcome>>& out,
                     std::map<std::pair<int64_t, int64_t>, int>* expected) {
  for (size_t s = 0; s < g.ops.size(); ++s) {
    for (size_t i = 0; i < g.ops[s].size(); ++i) {
      if (out[s][i].ok && g.inserts[s][i].second != 0) {
        ++(*expected)[g.inserts[s][i]];
      }
    }
  }
}

/// Every user's hometown matches the generator's (recovered state check).
std::string CheckUsers(const youtopia::Database& db,
                       const youtopia::workload::TravelData& data) {
  auto t = db.GetTable("User");
  if (!t.ok()) return "User table missing";
  size_t seen = 0, wrong = 0;
  t.value()->Scan([&](youtopia::RowId, const Row& row) {
    ++seen;
    const int64_t uid = row[0].as_int();
    if (uid < 0 || static_cast<size_t>(uid) >= data.num_users() ||
        row[1].as_string() != data.hometown_of(static_cast<uint32_t>(uid))) {
      ++wrong;
    }
    return true;
  });
  if (seen == data.num_users() && wrong == 0) return "";
  return "User table has " + std::to_string(seen) + " rows, " +
         std::to_string(wrong) + " wrong";
}

/// The set-up: a durable TransactionManager at kReadCommitted over seeded
/// TravelData.
youtopia::StatusOr<std::unique_ptr<TravelStack>> BuildStack(const Options& o) {
  youtopia::workload::TravelDataOptions dopts;
  dopts.num_users = kUsers;
  dopts.edges_per_node = 4;
  dopts.num_cities = 10;
  dopts.seed = o.seed;
  return TravelStack::Build(o.data_dir + "/travel_read_mostly", dopts,
                            youtopia::IsolationLevel::kReadCommitted);
}

}  // namespace

int RunTravelReadMostlySetupTiming(const Options& o, int reps) {
  std::unique_ptr<TravelStack> stack;
  return RunSetupTiming(
      reps, [&] { stack.reset(); },
      [&]() -> Status {
        YT_ASSIGN_OR_RETURN(stack, BuildStack(o));
        return Status::Ok();
      });
}

PassResult RunTravelReadMostly(const Options& opts, bool traced) {
  PassResult res;
  const std::string dir = opts.data_dir + "/travel_read_mostly";
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

  const FlightMap flights = Flights(stack->db);
  const uint64_t timed_total = TimedOps(kOpsPerSecond, opts.seconds);
  const size_t warm_per_session =
      static_cast<size_t>(static_cast<double>(timed_total) * kWarmupShare) /
      kSessions;
  const size_t timed_per_session = timed_total / kSessions;
  const Generated warm = GenerateOps(opts.seed, 0, warm_per_session,
                                     &stack->data, &flights);
  const Generated timed = GenerateOps(opts.seed, warm_per_session,
                                      timed_per_session, &stack->data,
                                      &flights);
  std::vector<std::string> texts;
  for (const auto& lane : timed.ops) {
    for (const SqlOp& op : lane) {
      if (texts.size() < 4000) texts.push_back(op.statements[0]);
    }
  }

  SpanRecorder recorder;
  TracingEngine tracing(stack->tm.get(), &recorder);
  youtopia::TxnEngine* engine =
      traced ? static_cast<youtopia::TxnEngine*>(&tracing) : stack->tm.get();

  RegistrySnapshot before, after;
  TxnCounts counts_before, counts_after;
  // The warm-up runs untraced: its spans would belong to no request.
  const SqlRun warm_run =
      RunSqlSegments(stack->tm.get(), kServerThreads, nullptr, warm.ops, 1);
  const uint64_t wal_before = DirBytes(dir);
  counts_before = TxnCounts::Capture(stack->tm.get(), {stack->tm.get()});
  before = RegistrySnapshot::Take();
  const SqlRun run = RunSqlSegments(engine, kServerThreads,
                              traced ? &recorder : nullptr, timed.ops,
                              kSegments);
  after = RegistrySnapshot::Take();
  counts_after = TxnCounts::Capture(stack->tm.get(), {stack->tm.get()});
  const uint64_t wal_after = DirBytes(dir);
  for (const SqlRun* r : {&warm_run, &run}) {
    for (const std::string& f : r->check_failures) res.Fail(f);
  }

  uint64_t rows_returned = 0;
  std::vector<Request> requests =
      AcknowledgedRequests(run, &res, &rows_returned);
  const uint64_t committed = requests.size();
  AddLatencyMetrics(&res, run.segments);

  std::map<std::pair<int64_t, int64_t>, int> expected;
  AddAckedInserts(warm, warm_run.outcomes, &expected);
  AddAckedInserts(timed, run.outcomes, &expected);
  if (std::string why = CompareReserve(ReserveRows(stack->db), expected);
      !why.empty()) {
    res.Fail("live state: " + why);
  }

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
    in.chrome_path = opts.data_dir + "/trace-travel_read_mostly.json";
    AnalyzeTrace(in, &res);
  }

  // --- Crash. Recovery is timed kRecoverReps times in a fresh process,
  // then run once more here and checked.
  const uint64_t wal_bytes = DirBytes(dir);
  const std::string wal_path = stack->wal_path();
  const youtopia::workload::TravelData data = stack->data;
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
    } else {
      const youtopia::Database& db = *recovered.value().db;
      if (std::string why = CompareReserve(ReserveRows(db), expected);
          !why.empty()) {
        res.Fail("after crash recovery: " + why);
      }
      if (std::string why = CheckUsers(db, data); !why.empty()) {
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
  res.notes.push_back("timed statements: " + std::to_string(res.attempted) +
                      " (" + std::to_string(kSessions) + " sessions on " +
                      std::to_string(kServerThreads) +
                      " server threads, closed loop, a fresh server per "
                      "segment; each statement autocommits)");
  RemoveDir(dir);
  return res;
}

}  // namespace perfbench
