#include <gtest/gtest.h>

#include <filesystem>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/etxn/engine.h"
#include "src/wal/wal_writer.h"
#include "src/workload/travel_data.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using etxn::EngineOptions;
using etxn::EntangledTransactionEngine;
using etxn::EntangledTransactionSpec;
using etxn::RunReport;
using etxn::Statement;
using etxn::TxnHandle;
using testing::EngineFixture;

/// Manual-mode engine over the Figure 1 database plus a Bookings table for
/// the travel programs' write steps.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = OpenEngine(fix_.tm.get());
    ASSERT_NE(engine_, nullptr);
  }

  /// Manual mode, 8 connections, 300 ms default timeout.
  static EngineOptions ManualOptions() {
    EngineOptions opts;
    opts.auto_scheduler = false;
    opts.num_connections = 8;
    opts.default_timeout_micros = 300'000;
    return opts;
  }

  /// The Figure 1 tables plus Bookings on `tm`, and an engine with `opts`
  /// over it (nullptr when the set-up fails).
  static std::unique_ptr<EntangledTransactionEngine> OpenEngine(
      TxnEngine* tm, EngineOptions opts = ManualOptions()) {
    Status st = workload::TravelData::BuildFigure1Tables(tm);
    if (st.ok()) {
      st = tm->CreateTable("Bookings", Schema({{"name", TypeId::kString},
                                               {"what", TypeId::kString},
                                               {"ref", TypeId::kInt64}}))
               .status();
    }
    EXPECT_OK(st);
    if (!st.ok()) return nullptr;
    return std::make_unique<EntangledTransactionEngine>(tm, opts);
  }

  /// The Figure 2 travel program for `me` coordinating with `partner`.
  /// Departure day is 506; @StayLength = 506 - @ArrivalDay.
  static StatusOr<EntangledTransactionSpec> TravelProgram(
      const std::string& me, const std::string& partner) {
    std::string script =
        "BEGIN TRANSACTION;"
        "SELECT '" + me + "', fno, fdate AS @ArrivalDay "
        "INTO ANSWER FlightRes "
        "WHERE fno, fdate IN (SELECT fno, fdate FROM Flights "
        "WHERE dest='LA') "
        "AND ('" + partner + "', fno, fdate) IN ANSWER FlightRes CHOOSE 1;"
        "INSERT INTO Bookings (name, what, ref) "
        "VALUES ('" + me + "', 'flight', @ArrivalDay);"
        "SET @StayLength = 506 - @ArrivalDay;"
        "SELECT '" + me + "', hid, @ArrivalDay, @StayLength "
        "INTO ANSWER HotelRes "
        "WHERE hid IN (SELECT hid FROM Hotels WHERE location='LA') "
        "AND ('" + partner + "', hid, @ArrivalDay, @StayLength) IN "
        "ANSWER HotelRes CHOOSE 1;"
        "INSERT INTO Bookings (name, what, ref) "
        "VALUES ('" + me + "', 'hotel', @StayLength);"
        "COMMIT;";
    return EntangledTransactionSpec::FromScript(me, script);
  }

  /// A classical transaction of `inserts` Bookings INSERTs for `me`.
  static StatusOr<EntangledTransactionSpec> ClassicalProgram(
      const std::string& me, int inserts) {
    std::string script = "BEGIN TRANSACTION;";
    for (int i = 0; i < inserts; ++i) {
      script += "INSERT INTO Bookings (name, what, ref) VALUES ('" + me +
                "', 'flight', " + std::to_string(i) + ");";
    }
    script += "COMMIT;";
    return EntangledTransactionSpec::FromScript(me, script);
  }

  size_t BookingCount(const std::string& name) {
    return BookingCount(fix_.db, name);
  }

  static size_t BookingCount(Database& db, const std::string& name) {
    size_t n = 0;
    auto t = db.GetTable("Bookings");
    if (!t.ok()) return 0;
    t.value()->Scan([&](RowId, const Row& row) {
      if (row[0] == Value::Str(name)) ++n;
      return true;
    });
    return n;
  }

  EngineFixture fix_;
  std::unique_ptr<EntangledTransactionEngine> engine_;
};

TEST_F(EngineTest, Figure4RunWalkthrough) {
  // Mickey + Minnie coordinate; Donald waits for the absent Daffy.
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec mickey,
                       TravelProgram("Mickey", "Minnie"));
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec minnie,
                       TravelProgram("Minnie", "Mickey"));
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec donald,
                       TravelProgram("Donald", "Daffy"));
  auto hm = engine_->Submit(mickey);
  auto hn = engine_->Submit(minnie);
  auto hd = engine_->Submit(donald);

  RunReport report = engine_->RunOnce();
  EXPECT_EQ(report.participants, 3u);
  EXPECT_EQ(report.committed, 2u);
  EXPECT_EQ(report.retried, 1u);
  EXPECT_GE(report.eval_rounds, 2u);  // flight round, then hotel round
  EXPECT_EQ(report.group_commits, 1u);
  EXPECT_EQ(report.entangle_ops, 2u);  // flight + hotel entanglements

  EXPECT_OK(hm->Wait());
  EXPECT_OK(hn->Wait());
  EXPECT_FALSE(hd->done());
  EXPECT_EQ(engine_->dormant_count(), 1u);

  // Mickey and Minnie agreed on the same arrival day and hotel stay.
  Value mickey_day = hm->final_vars().at("arrivalday");
  Value minnie_day = hn->final_vars().at("arrivalday");
  EXPECT_EQ(mickey_day, minnie_day);
  EXPECT_EQ(hm->final_vars().at("staylength"),
            hn->final_vars().at("staylength"));

  // Both flight and hotel bookings persisted for each.
  EXPECT_EQ(BookingCount("Mickey"), 2u);
  EXPECT_EQ(BookingCount("Minnie"), 2u);
  EXPECT_EQ(BookingCount("Donald"), 0u);
}

TEST_F(EngineTest, FailedGroupRecordFlushResolvesPairWithItsStatus) {
  // A durable engine whose GROUP_COMMIT flush fails: the commit latches the
  // crash, every WAL freezes, and a retry could only time out. Both
  // members must resolve in this run with the fault's own status. A dry
  // run counts the pair's group flushes, so the fault lands on the last
  // one, the group record's (entanglement itself flushes nothing).
  FaultInjector* fi = FaultInjector::Global();
  fi->Reset();
  const std::string dir = ::testing::TempDir() + "yt_etxn_" +
                          std::to_string(reinterpret_cast<uintptr_t>(this));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  uint64_t group_flushes = 0;
  for (bool dry : {true, false}) {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(dir + (dry ? "/dry.log" : "/wal.log"),
                       WalWriter::Options{}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    auto engine = OpenEngine(&tm);
    ASSERT_NE(engine, nullptr);
    ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec mickey,
                         TravelProgram("Mickey", "Minnie"));
    ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec minnie,
                         TravelProgram("Minnie", "Mickey"));
    mickey.timeout_micros = minnie.timeout_micros = 60'000'000;
    FaultInjector::SiteConfig cfg;
    cfg.action = FaultInjector::Action::kError;
    cfg.code = StatusCode::kCorruption;
    if (dry) {
      cfg.shots = 0;  // never fires; only counts hits
    } else {
      cfg.nth = group_flushes;
    }
    fi->Arm("wal.group_flush", cfg);
    auto hm = engine->Submit(mickey);
    auto hn = engine->Submit(minnie);
    RunReport report = engine->RunOnce();
    ASSERT_TRUE(hm->done());
    ASSERT_TRUE(hn->done());
    if (dry) {
      EXPECT_OK(hm->Wait());
      EXPECT_OK(hn->Wait());
      group_flushes = fi->HitCount("wal.group_flush");
      ASSERT_GE(group_flushes, 1u);
    } else {
      EXPECT_TRUE(fi->crashed());
      EXPECT_EQ(report.failed, 2u);
      EXPECT_EQ(report.committed, 0u);
      EXPECT_EQ(report.retried, 0u);
      EXPECT_EQ(hm->Wait().code(), StatusCode::kCorruption);
      EXPECT_EQ(hn->Wait().code(), StatusCode::kCorruption);
    }
    engine.reset();
    fi->Reset();
  }
  std::filesystem::remove_all(dir);
}

TEST_F(EngineTest, DonaldEventuallyTimesOut) {
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec donald,
                       TravelProgram("Donald", "Daffy"));
  donald.timeout_micros = 50'000;  // 50 ms
  auto hd = engine_->Submit(donald);
  RunReport r1 = engine_->RunOnce();
  EXPECT_EQ(r1.retried, 1u);
  EXPECT_FALSE(hd->done());
  SystemClock::Default()->SleepMicros(60'000);
  RunReport r2 = engine_->RunOnce();
  EXPECT_EQ(r2.timed_out, 1u);
  Status s = hd->Wait();
  EXPECT_EQ(s.code(), StatusCode::kTimedOut);
  EXPECT_GE(hd->attempts(), 1);
  // No partial booking survived the retries.
  EXPECT_EQ(BookingCount("Donald"), 0u);
}

TEST_F(EngineTest, ClassicalProgramTimeoutDoesNotBlamePartners) {
  // A program with no entangled query keeps losing a lock wait to an
  // outside transaction until its deadline passes. It times out, and its
  // message does not claim it was waiting for partners.
  TransactionManager::Options topts;
  topts.lock_timeout_micros = 5'000;
  EngineFixture fix(topts);
  auto engine = OpenEngine(fix.tm.get());
  ASSERT_NE(engine, nullptr);
  const Row held = Row({Value::Str("held"), Value::Str("flight"),
                        Value::Int(1)});
  auto setup = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(RowId rid,
                       fix.tm->Insert(setup.get(), "Bookings", held));
  ASSERT_OK(fix.tm->Commit(setup.get()));
  auto holder = fix.tm->Begin();
  ASSERT_OK(fix.tm->Update(holder.get(), "Bookings", rid, held));

  EntangledTransactionSpec spec;
  spec.name = "classical";
  spec.transactional = true;
  spec.timeout_micros = 20'000;
  ASSERT_OK_AND_ASSIGN(
      Statement upd,
      Statement::Sql("UPDATE Bookings SET ref = 2 WHERE name = 'held'"));
  spec.statements.push_back(std::move(upd));
  ASSERT_EQ(spec.NumEntangledQueries(), 0u);
  auto h = engine->Submit(spec);
  for (int i = 0; i < 100 && !h->done(); ++i) {
    engine->RunOnce();
    SystemClock::Default()->SleepMicros(2'000);
  }
  ASSERT_TRUE(h->done());
  Status s = h->Wait();
  EXPECT_EQ(s.code(), StatusCode::kTimedOut) << s.ToString();
  EXPECT_EQ(s.message().find("partner"), std::string::npos) << s.ToString();
  ASSERT_OK(fix.tm->Abort(holder.get()));
}

TEST_F(EngineTest, DaffyArrivingLaterRescuesDonald) {
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec donald,
                       TravelProgram("Donald", "Daffy"));
  auto hd = engine_->Submit(donald);
  RunReport r1 = engine_->RunOnce();
  EXPECT_EQ(r1.retried, 1u);

  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec daffy,
                       TravelProgram("Daffy", "Donald"));
  auto hf = engine_->Submit(daffy);
  RunReport r2 = engine_->RunOnce();
  EXPECT_EQ(r2.committed, 2u);
  EXPECT_OK(hd->Wait());
  EXPECT_OK(hf->Wait());
  EXPECT_EQ(hd->attempts(), 2);
  EXPECT_EQ(hf->attempts(), 1);
  EXPECT_EQ(BookingCount("Donald"), 2u);
}

TEST_F(EngineTest, WidowedTransactionPreventedByGroupAbort) {
  // Minnie's transaction aborts while booking the hotel *after* both
  // entanglements succeeded (Figure 3(a)). Mickey must not commit.
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec mickey,
                       TravelProgram("Mickey", "Minnie"));
  mickey.timeout_micros = 100'000;
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec minnie,
                       TravelProgram("Minnie", "Mickey"));
  minnie.timeout_micros = 100'000;
  // Minnie's final (hotel booking) step fails: her program rolls back in
  // its place.
  ASSERT_OK_AND_ASSIGN(Statement rollback, Statement::Sql("ROLLBACK"));
  minnie.statements.back() = std::move(rollback);
  auto hm = engine_->Submit(mickey);
  auto hn = engine_->Submit(minnie);
  RunReport report = engine_->RunOnce();
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.committed, 0u);
  EXPECT_EQ(report.group_commits, 0u);
  // Minnie failed permanently; Mickey was widowed -> aborted and retried.
  Status sn = hn->Wait();
  EXPECT_EQ(sn.code(), StatusCode::kAborted);
  EXPECT_FALSE(hm->done());
  // None of Mickey's writes survived (atomic group abort).
  EXPECT_EQ(BookingCount("Mickey"), 0u);
  EXPECT_EQ(BookingCount("Minnie"), 0u);
  // Mickey now waits alone and eventually times out.
  SystemClock::Default()->SleepMicros(120'000);
  engine_->RunOnce();
  EXPECT_EQ(hm->Wait().code(), StatusCode::kTimedOut);
}

TEST_F(EngineTest, ExplicitRollbackIsPermanent) {
  EntangledTransactionSpec spec;
  spec.name = "roller";
  spec.transactional = true;
  ASSERT_OK_AND_ASSIGN(
      Statement ins,
      Statement::Sql("INSERT INTO Bookings (name, what, ref) "
                     "VALUES ('roller', 'flight', 1)"));
  ASSERT_OK_AND_ASSIGN(Statement rb, Statement::Sql("ROLLBACK"));
  spec.statements.push_back(std::move(ins));
  spec.statements.push_back(std::move(rb));
  auto h = engine_->Submit(spec);
  RunReport report = engine_->RunOnce();
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(h->Wait().code(), StatusCode::kAborted);
  EXPECT_EQ(BookingCount("roller"), 0u);
}

TEST_F(EngineTest, ClassicalTransactionRunsWithoutEntanglement) {
  ASSERT_OK_AND_ASSIGN(
      EntangledTransactionSpec spec,
      EntangledTransactionSpec::FromScript(
          "classic",
          "BEGIN TRANSACTION;"
          "INSERT INTO Bookings (name, what, ref) "
          "VALUES ('classic', 'flight', 42);"
          "COMMIT;"));
  auto h = engine_->Submit(spec);
  RunReport report = engine_->RunOnce();
  EXPECT_EQ(report.committed, 1u);
  EXPECT_EQ(report.entangle_ops, 0u);
  EXPECT_OK(h->Wait());
  EXPECT_EQ(BookingCount("classic"), 1u);
}

TEST_F(EngineTest, NonTransactionalProgramsCoordinate) {
  // The -Q variant: statements autocommit, entangled queries still pair up.
  auto make = [&](const std::string& me,
                  const std::string& partner) -> EntangledTransactionSpec {
    EntangledTransactionSpec spec;
    spec.name = me + "-q";
    spec.transactional = false;
    auto q = Statement::Sql(
        "SELECT '" + me + "', fno, fdate AS @ArrivalDay "
        "INTO ANSWER FlightRes "
        "WHERE fno, fdate IN (SELECT fno, fdate FROM Flights "
        "WHERE dest='LA') "
        "AND ('" + partner + "', fno, fdate) IN ANSWER FlightRes CHOOSE 1");
    auto ins = Statement::Sql(
        "INSERT INTO Bookings (name, what, ref) "
        "VALUES ('" + me + "', 'flight', @ArrivalDay)");
    spec.statements.push_back(std::move(q).value());
    spec.statements.push_back(std::move(ins).value());
    return spec;
  };
  auto ha = engine_->Submit(make("Huey", "Dewey"));
  auto hb = engine_->Submit(make("Dewey", "Huey"));
  RunReport report = engine_->RunOnce();
  EXPECT_EQ(report.committed, 2u);
  EXPECT_OK(ha->Wait());
  EXPECT_OK(hb->Wait());
  EXPECT_EQ(BookingCount("Huey"), 1u);
  EXPECT_EQ(BookingCount("Dewey"), 1u);
  EXPECT_EQ(ha->final_vars().at("arrivalday"),
            hb->final_vars().at("arrivalday"));
}

TEST_F(EngineTest, SynchronizationPointSemantics) {
  // §3.1: once Minnie's hotel query is answered, Mickey must already have
  // executed everything before his hotel query. His transaction is still
  // uncommitted then, so the entanglement answer itself proves the
  // ordering: Minnie's program ends with @ArrivalDay bound.
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec mickey,
                       TravelProgram("Mickey", "Minnie"));
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec minnie,
                       TravelProgram("Minnie", "Mickey"));
  auto hm = engine_->Submit(mickey);
  auto hn = engine_->Submit(minnie);
  engine_->RunOnce();
  EXPECT_OK(hm->Wait());
  EXPECT_OK(hn->Wait());
  EXPECT_FALSE(hn->final_vars().at("arrivalday").is_null());
}

TEST_F(EngineTest, AdmissionHoldsTheConnectionBound) {
  // Three adjacent travel pairs on two connection slots. A pair holds both
  // slots while it is parked, frees them once ready, and the next pair is
  // admitted at once, so one run commits all three with two barriers
  // (flight, hotel) per pair and no retry.
  EngineOptions opts;
  opts.auto_scheduler = false;
  opts.num_connections = 2;
  opts.default_timeout_micros = 300'000;
  EntangledTransactionEngine engine(fix_.tm.get(), opts);
  std::vector<std::shared_ptr<TxnHandle>> handles;
  for (const char* pair : {"1", "2", "3"}) {
    const std::string a = std::string("A") + pair;
    const std::string b = std::string("B") + pair;
    ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec pa, TravelProgram(a, b));
    ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec pb, TravelProgram(b, a));
    handles.push_back(engine.Submit(pa));
    handles.push_back(engine.Submit(pb));
  }
  RunReport report = engine.RunOnce();
  EXPECT_EQ(report.participants, 6u);
  EXPECT_EQ(report.committed, 6u);
  EXPECT_EQ(report.group_commits, 3u);
  EXPECT_EQ(report.retried, 0u);
  EXPECT_EQ(report.eval_rounds, 6u);
  for (const auto& h : handles) EXPECT_OK(h->Wait());
}

TEST_F(EngineTest, RunFrequencyBatchesArrivalsInAutoMode) {
  EngineOptions opts;
  opts.auto_scheduler = true;
  opts.num_connections = 8;
  opts.run_frequency = 2;
  opts.scheduler_poll_micros = 5'000;
  opts.default_timeout_micros = 2'000'000;
  EntangledTransactionEngine engine(fix_.tm.get(), opts);
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec mickey,
                       TravelProgram("Mickey", "Minnie"));
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec minnie,
                       TravelProgram("Minnie", "Mickey"));
  auto hm = engine.Submit(mickey);
  auto hn = engine.Submit(minnie);
  EXPECT_OK(hm->Wait());
  EXPECT_OK(hn->Wait());
  EXPECT_GE(engine.stats().runs.load(), 1u);
  EXPECT_EQ(engine.stats().committed.load(), 2u);
}

TEST_F(EngineTest, ModelledLatencyIsATimedPark) {
  // Four classical programs of three INSERTs make five round trips each
  // (BEGIN, three statements, COMMIT). The round trips of different
  // connections overlap, so a run lasts five latencies per admission wave.
  for (const auto& [connections, micros] :
       {std::pair<size_t, int64_t>{4, 5'000}, {2, 10'000}}) {
    SCOPED_TRACE("num_connections " + std::to_string(connections));
    EngineFixture fix;
    ManualClock clock;
    EngineOptions opts = ManualOptions();
    opts.clock = &clock;
    opts.num_connections = connections;
    opts.statement_latency_micros = 1'000;
    auto engine = OpenEngine(fix.tm.get(), opts);
    ASSERT_NE(engine, nullptr);
    std::vector<std::shared_ptr<TxnHandle>> handles;
    for (int i = 0; i < 4; ++i) {
      ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec spec,
                           ClassicalProgram("c" + std::to_string(i), 3));
      handles.push_back(engine->Submit(spec));
    }
    const int64_t start = clock.NowMicros();
    RunReport report = engine->RunOnce();
    EXPECT_EQ(clock.NowMicros() - start, micros);
    EXPECT_EQ(report.committed, 4u);
    for (const auto& h : handles) EXPECT_OK(h->Wait());
  }
}

TEST_F(EngineTest, ManualWaitAllLetsALoneProgramTimeOut) {
  // Donald's partner never comes, so no run resolves anything until the
  // deadline passes. WaitAll lets time pass between such runs instead of
  // re-running back to back.
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec donald,
                       TravelProgram("Donald", "Daffy"));
  donald.timeout_micros = 50'000;  // 50 ms
  auto hd = engine_->Submit(donald);
  engine_->WaitAll({hd});
  EXPECT_EQ(hd->Wait().code(), StatusCode::kTimedOut);
  EXPECT_LE(engine_->stats().runs.load(), 100u);
}

/// What one seeded schedule of the sweep leaves behind, per program.
struct SweepOutcome {
  std::vector<StatusCode> codes;
  std::vector<TxnId> txns;
  std::vector<sql::VarEnv> vars;
  std::vector<size_t> bookings;
  /// The engine's cumulative counters: the sum of every run's report.
  std::vector<uint64_t> totals;
};

/// Programs 2k and 2k+1 (k < 3) are travel partners; 6 waits for a partner
/// that never comes; 7 is classical. The seed shuffles their submission
/// and picks the connection bound.
constexpr size_t kSweepPairs = 3;
constexpr size_t kSweepLoner = 2 * kSweepPairs;
constexpr size_t kSweepClassical = kSweepLoner + 1;

TEST_F(EngineTest, SeededScheduleSweepReplaysAndKeepsGroupsWhole) {
  // A run is single-threaded and a ManualClock is the only time source, so
  // a seed fixes the whole schedule: the same seed on a fresh database gives
  // the same outcome, down to transaction ids. A pair may still time out
  // (the loner holds a slot while parked), but never by halves (C.4).
  auto run_schedule = [](uint64_t seed) {
    SweepOutcome out;
    EngineFixture fix;
    ManualClock clock;
    Rng rng(seed);
    EngineOptions opts;
    opts.auto_scheduler = false;
    opts.clock = &clock;
    opts.statement_latency_micros = 100;
    opts.default_timeout_micros = 20'000;
    const size_t kConnections[] = {2, 3, 4, 8};
    opts.num_connections = kConnections[rng.Index(4)];
    auto engine = EngineTest::OpenEngine(fix.tm.get(), opts);
    EXPECT_NE(engine, nullptr);
    if (engine == nullptr) return out;

    std::vector<EntangledTransactionSpec> specs;
    for (size_t k = 0; k < kSweepPairs; ++k) {
      const std::string a = "A" + std::to_string(k);
      const std::string b = "B" + std::to_string(k);
      specs.push_back(EngineTest::TravelProgram(a, b).value());
      specs.push_back(EngineTest::TravelProgram(b, a).value());
    }
    specs.push_back(EngineTest::TravelProgram("Loner", "Nobody").value());
    specs.push_back(EngineTest::ClassicalProgram("Classic", 2).value());
    std::vector<size_t> order(specs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);

    std::vector<std::shared_ptr<TxnHandle>> handles(specs.size());
    for (size_t i : order) handles[i] = engine->Submit(specs[i]);
    engine->WaitAll(handles);

    for (size_t i = 0; i < specs.size(); ++i) {
      out.codes.push_back(handles[i]->Wait().code());
      out.txns.push_back(handles[i]->committed_txn_id());
      out.vars.push_back(handles[i]->final_vars());
      out.bookings.push_back(EngineTest::BookingCount(fix.db, specs[i].name));
    }
    const etxn::EngineStats& st = engine->stats();
    out.totals = {st.runs.load(),      st.committed.load(),
                  st.retried.load(),   st.failed.load(),
                  st.timed_out.load(), st.eval_rounds.load(),
                  st.entangle_ops.load()};
    return out;
  };
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SweepOutcome first = run_schedule(seed);
    const SweepOutcome second = run_schedule(seed);
    ASSERT_EQ(first.codes.size(), kSweepClassical + 1);
    EXPECT_EQ(first.codes, second.codes);
    EXPECT_EQ(first.txns, second.txns);
    EXPECT_EQ(first.vars, second.vars);
    EXPECT_EQ(first.bookings, second.bookings);
    EXPECT_EQ(first.totals, second.totals);
    for (size_t k = 0; k < kSweepPairs; ++k) {
      EXPECT_EQ(first.codes[2 * k] == StatusCode::kOk,
                first.codes[2 * k + 1] == StatusCode::kOk)
          << "pair " << k;
    }
    EXPECT_EQ(first.codes[kSweepLoner], StatusCode::kTimedOut);
    EXPECT_EQ(first.codes[kSweepClassical], StatusCode::kOk);
    for (size_t i = 0; i < first.codes.size(); ++i) {
      EXPECT_EQ(first.bookings[i],
                first.codes[i] == StatusCode::kOk ? 2u : 0u)
          << "program " << i;
    }
  }
}

TEST_F(EngineTest, ManualWaitAllDrainsPool) {
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec mickey,
                       TravelProgram("Mickey", "Minnie"));
  ASSERT_OK_AND_ASSIGN(EntangledTransactionSpec minnie,
                       TravelProgram("Minnie", "Mickey"));
  std::vector<std::shared_ptr<TxnHandle>> handles;
  handles.push_back(engine_->Submit(mickey));
  handles.push_back(engine_->Submit(minnie));
  engine_->WaitAll(handles);
  EXPECT_OK(handles[0]->Wait());
  EXPECT_OK(handles[1]->Wait());
}

}  // namespace
}  // namespace youtopia
