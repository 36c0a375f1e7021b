#include <gtest/gtest.h>

#include <cstdio>

#include "src/etxn/engine.h"
#include "src/isolation/checker.h"
#include "src/isolation/recorder.h"
#include "src/wal/recovery.h"
#include "src/workload/workloads.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using etxn::EngineOptions;
using etxn::EntangledTransactionEngine;
using workload::TravelData;
using workload::TravelDataOptions;
using workload::WorkloadGenerator;
using workload::WorkloadType;

/// End-to-end: run a mixed entangled workload on the real engine with the
/// schedule recorder attached, then machine-check that the recorded
/// execution is entangled-isolated (Definition C.5). This ties the
/// execution model of §4 to the formal model of Appendix C.
TEST(IntegrationTest, RealExecutionsAreEntangledIsolated) {
  Database db;
  LockManager locks;
  iso::ScheduleRecorder recorder;
  TransactionManager::Options topts;
  topts.observer = &recorder;
  TransactionManager tm(&db, &locks, nullptr, topts);

  TravelDataOptions dopts;
  dopts.num_users = 200;
  dopts.edges_per_node = 4;
  dopts.num_cities = 4;
  ASSERT_OK_AND_ASSIGN(TravelData data, TravelData::Build(&tm, dopts));
  recorder.Clear();  // setup writes are not part of the analyzed schedule

  EngineOptions opts;
  opts.auto_scheduler = false;
  opts.num_connections = 8;
  opts.default_timeout_micros = 5'000'000;
  EntangledTransactionEngine engine(&tm, opts);

  WorkloadGenerator gen(&data, 3);
  ASSERT_OK_AND_ASSIGN(auto entangled,
                       gen.Generate(WorkloadType::kEntangledT, 12, 5'000'000));
  ASSERT_OK_AND_ASSIGN(auto classical,
                       gen.Generate(WorkloadType::kNoSocialT, 6, 5'000'000));
  std::vector<std::shared_ptr<etxn::TxnHandle>> handles;
  for (auto& s : entangled) handles.push_back(engine.Submit(std::move(s)));
  for (auto& s : classical) handles.push_back(engine.Submit(std::move(s)));
  engine.WaitAll(handles);
  for (auto& h : handles) EXPECT_OK(h->Wait());

  ASSERT_OK_AND_ASSIGN(iso::Schedule sched, recorder.Finish());
  EXPECT_GT(sched.size(), 50u);
  iso::IsolationReport report = iso::IsolationChecker::Check(sched);
  EXPECT_TRUE(report.entangled_isolated) << report.ToString();
}

/// A widow-prevention cascade in the live engine still yields an
/// entangled-isolated recorded schedule: when a partner dies, the engine
/// aborts the whole group, so no E op ends up with a commit+abort split.
TEST(IntegrationTest, WidowCascadeKeepsScheduleIsolated) {
  Database db;
  LockManager locks;
  iso::ScheduleRecorder recorder;
  TransactionManager::Options topts;
  topts.observer = &recorder;
  TransactionManager tm(&db, &locks, nullptr, topts);
  ASSERT_OK(TravelData::BuildFigure1Tables(&tm));
  ASSERT_OK(tm.CreateTable("Bookings", Schema({{"name", TypeId::kString},
                                               {"ref", TypeId::kInt64}}))
                .status());
  recorder.Clear();

  EngineOptions opts;
  opts.auto_scheduler = false;
  opts.num_connections = 4;
  EntangledTransactionEngine engine(&tm, opts);

  auto make = [&](const std::string& me, const std::string& partner,
                  bool fail) {
    etxn::EntangledTransactionSpec spec;
    spec.name = me;
    spec.transactional = true;
    spec.timeout_micros = 50'000;
    spec.statements.push_back(
        etxn::Statement::Sql(
            "SELECT '" + me + "', fno, fdate AS @ArrivalDay "
            "INTO ANSWER FlightRes "
            "WHERE fno, fdate IN (SELECT fno, fdate FROM Flights "
            "WHERE dest='LA') "
            "AND ('" + partner + "', fno, fdate) IN ANSWER FlightRes "
            "CHOOSE 1")
            .value());
    spec.statements.push_back(
        etxn::Statement::Sql("INSERT INTO Bookings (name, ref) VALUES ('" +
                             me + "', @ArrivalDay)")
            .value());
    if (fail) {
      spec.statements.push_back(etxn::Statement::Sql("ROLLBACK").value());
    }
    return spec;
  };
  auto hm = engine.Submit(make("Mickey", "Minnie", false));
  auto hn = engine.Submit(make("Minnie", "Mickey", true));
  engine.RunOnce();
  SystemClock::Default()->SleepMicros(60'000);
  engine.RunOnce();  // Mickey's retry times out
  EXPECT_EQ(hn->Wait().code(), StatusCode::kAborted);
  EXPECT_EQ(hm->Wait().code(), StatusCode::kTimedOut);

  ASSERT_OK_AND_ASSIGN(iso::Schedule sched, recorder.Finish());
  iso::IsolationReport report = iso::IsolationChecker::Check(sched);
  EXPECT_TRUE(report.entangled_isolated) << report.ToString();
  EXPECT_FALSE(report.widowed_transaction);
}

/// Full durability loop: entangled workload over a real WAL, then recovery
/// rebuilds exactly the committed state.
TEST(IntegrationTest, EntangledWorkloadSurvivesRecovery) {
  std::string wal_path = ::testing::TempDir() + "yt_integration.walog";
  std::remove(wal_path.c_str());
  size_t reserve_rows = 0;
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(wal_path, {}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    TravelDataOptions dopts;
    dopts.num_users = 150;
    dopts.edges_per_node = 4;
    dopts.num_cities = 4;
    ASSERT_OK_AND_ASSIGN(TravelData data, TravelData::Build(&tm, dopts));
    // TravelData loads tables directly (not via the WAL), so checkpoint the
    // base state before the measured workload, as a deployment would.
    ASSERT_OK(tm.Checkpoint(wal_path + ".ckpt"));

    EngineOptions opts;
    opts.auto_scheduler = false;
    opts.num_connections = 8;
    EntangledTransactionEngine engine(&tm, opts);
    WorkloadGenerator gen(&data, 17);
    ASSERT_OK_AND_ASSIGN(
        auto specs, gen.Generate(WorkloadType::kEntangledT, 10, 5'000'000));
    std::vector<std::shared_ptr<etxn::TxnHandle>> handles;
    for (auto& s : specs) handles.push_back(engine.Submit(std::move(s)));
    engine.WaitAll(handles);
    for (auto& h : handles) EXPECT_OK(h->Wait());
    reserve_rows = db.GetTable("Reserve").value()->size();
    EXPECT_EQ(reserve_rows, 10u);
  }  // crash
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result r,
                       RecoveryManager::Recover(wal_path));
  EXPECT_EQ(r.db->GetTable("Reserve").value()->size(), reserve_rows);
  std::remove(wal_path.c_str());
  std::remove((wal_path + ".ckpt").c_str());
}

/// Stress: many concurrent pairs through the auto scheduler with a bounded
/// connection pool; everything commits exactly once.
TEST(IntegrationTest, AutoSchedulerStress) {
  Database db;
  LockManager locks;
  TransactionManager tm(&db, &locks, nullptr);
  TravelDataOptions dopts;
  dopts.num_users = 400;
  dopts.edges_per_node = 4;
  dopts.num_cities = 5;
  ASSERT_OK_AND_ASSIGN(TravelData data, TravelData::Build(&tm, dopts));

  EngineOptions opts;
  opts.auto_scheduler = true;
  opts.num_connections = 16;
  opts.run_frequency = 10;
  opts.scheduler_poll_micros = 5'000;
  opts.default_timeout_micros = 20'000'000;
  EntangledTransactionEngine engine(&tm, opts);
  WorkloadGenerator gen(&data, 23);
  ASSERT_OK_AND_ASSIGN(
      auto specs, gen.Generate(WorkloadType::kEntangledT, 60, 20'000'000));
  std::vector<std::shared_ptr<etxn::TxnHandle>> handles;
  for (auto& s : specs) handles.push_back(engine.Submit(std::move(s)));
  engine.WaitAll(handles);
  size_t committed = 0;
  for (auto& h : handles) {
    if (h->Wait().ok()) ++committed;
  }
  EXPECT_EQ(committed, 60u);
  EXPECT_EQ(db.GetTable("Reserve").value()->size(), 60u);
}

}  // namespace
}  // namespace youtopia
