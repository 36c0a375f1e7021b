// The MVCC snapshot read path: versioned-heap visibility (scans, index
// lookups, ranges), zero-lock snapshot reads at kReadCommitted/kSnapshot,
// first-updater-wins, version-chain GC against the oldest live snapshot,
// recovery, the randomized snapshot-vs-locking differentials, and the
// cross-shard one-cut guarantee through the Router's shared commit clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/isolation/checker.h"
#include "src/isolation/recorder.h"
#include "src/shard/router.h"
#include "src/wal/recovery.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using testing::EngineFixture;

Schema Bal() {
  return Schema({{"id", TypeId::kInt64}, {"bal", TypeId::kInt64}});
}

Row BalRow(int64_t id, int64_t bal) {
  return Row({Value::Int(id), Value::Int(bal)});
}

/// Drains a cursor into (rid, row) pairs through the borrowing loop.
std::vector<std::pair<RowId, Row>> Drain(TableCursor* cursor) {
  std::vector<std::pair<RowId, Row>> out;
  RowId rid = 0;
  const Row* row = nullptr;
  while (cursor->NextRef(&rid, &row).value()) {
    out.emplace_back(rid, *row);
  }
  return out;
}

int64_t SumBal(const std::vector<std::pair<RowId, Row>>& rows) {
  int64_t sum = 0;
  for (const auto& [rid, row] : rows) sum += row[1].as_int();
  return sum;
}

/// Seeds `n` rows of T(id, bal) at `bal` each in one committed transaction;
/// returns the RowIds.
std::vector<RowId> Seed(TxnEngine* eng, const std::string& table, int n,
                        int64_t bal) {
  auto setup = eng->Begin(IsolationLevel::kSerializable);
  std::vector<RowId> rids;
  for (int i = 0; i < n; ++i) {
    rids.push_back(eng->Insert(setup.get(), table, BalRow(i, bal)).value());
  }
  EXPECT_TRUE(eng->Commit(setup.get()).ok());
  return rids;
}

// --- The snapshot read path. ----------------------------------------------

TEST(MvccReadPathTest, SnapshotScanSeesConsistentCutAndTakesNoLocks) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 10, 10);

  auto reader = fix.tm->Begin(IsolationLevel::kSnapshot);
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       fix.tm->OpenCursor(reader.get(), "T",
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  // Pull a few rows, then let a writer overwrite a row the cursor has not
  // reached yet. The writer runs synchronously: if the scan held any lock,
  // the update would time out instead of committing.
  RowId rid = 0;
  const Row* row = nullptr;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cursor->NextRef(&rid, &row).value());
  }
  auto writer = fix.tm->Begin(IsolationLevel::kSerializable);
  ASSERT_OK(fix.tm->Update(writer.get(), "T", rids[7], BalRow(7, 999)));
  ASSERT_OK(fix.tm->Commit(writer.get()));

  EXPECT_EQ(fix.locks.HeldCount(reader->id()), 0u);
  int64_t sum = 30;
  while (cursor->NextRef(&rid, &row).value()) sum += (*row)[1].as_int();
  EXPECT_EQ(sum, 100);  // the pre-write cut, not 100 - 10 + 999
  cursor.reset();
  ASSERT_OK(fix.tm->Commit(reader.get()));
  EXPECT_GT(fix.tm->stats().snapshot_reads.load(), 0u);
}

TEST(MvccReadPathTest, IndexAndRangeReadsServeTheSnapshotCut) {
  EngineFixture fix;
  Schema schema = Bal();
  schema.set_primary_key({0});
  ASSERT_OK(fix.tm->CreateTable("T", schema).status());
  ASSERT_OK(fix.tm->CreateIndex("T", {"bal"}, /*unique=*/false,
                                /*ordered=*/true));
  Seed(fix.tm.get(), "T", 10, 100);

  auto reader = fix.tm->Begin(IsolationLevel::kSnapshot);
  // Materialize the snapshot before the write: a point probe on the cut.
  auto probe = [&](int64_t id) {
    auto c = fix.tm->OpenCursor(reader.get(), "T",
                                AccessPlan::Lookup({0}, Row({Value::Int(id)})),
                                ReadOrigin::kStatement);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return Drain(c.value().get());
  };
  auto range = [&](int64_t lo, int64_t hi) {
    IndexRangeSpec spec;
    spec.columns = {1};
    spec.range.lo = Row({Value::Int(lo)});
    spec.range.hi = Row({Value::Int(hi)});
    spec.range.lo_unbounded = spec.range.hi_unbounded = false;
    auto c = fix.tm->OpenCursor(reader.get(), "T", AccessPlan::Range(spec),
                                ReadOrigin::kStatement);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return Drain(c.value().get());
  };
  ASSERT_EQ(probe(5).size(), 1u);

  auto writer = fix.tm->Begin(IsolationLevel::kSerializable);
  ASSERT_OK(fix.tm->Update(writer.get(), "T", probe(5)[0].first,
                           BalRow(5, 999)));
  ASSERT_OK(fix.tm->Commit(writer.get()));

  // The additive index now carries bal=999 for row 5, but the visible
  // version at this snapshot still projects bal=100: the stale-entry filter
  // must keep the lookup and both ranges on the old cut.
  auto hit = probe(5);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].second[1], Value::Int(100));
  EXPECT_EQ(range(50, 150).size(), 10u);   // row 5 still in the old band
  EXPECT_TRUE(range(900, 1000).empty());   // and not yet in the new one
  ASSERT_OK(fix.tm->Commit(reader.get()));

  // A fresh snapshot sees the move.
  auto after = fix.tm->Begin(IsolationLevel::kSnapshot);
  auto c = fix.tm->OpenCursor(after.get(), "T",
                              AccessPlan::Lookup({0}, Row({Value::Int(5)})),
                              ReadOrigin::kStatement);
  ASSERT_OK(c.status());
  auto rows = Drain(c.value().get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second[1], Value::Int(999));
  ASSERT_OK(fix.tm->Commit(after.get()));
}

TEST(MvccReadPathTest, ReadCommittedRefreshesCutPerStatementNotMidScan) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 5, 10);

  auto reader = fix.tm->Begin(IsolationLevel::kReadCommitted);
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       fix.tm->OpenCursor(reader.get(), "T",
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  RowId rid = 0;
  const Row* row = nullptr;
  ASSERT_TRUE(cursor->NextRef(&rid, &row).value());

  auto writer = fix.tm->Begin(IsolationLevel::kSerializable);
  ASSERT_OK(fix.tm->Update(writer.get(), "T", rids[4], BalRow(4, 999)));
  ASSERT_OK(fix.tm->Commit(writer.get()));

  // Mid-statement the cut must not move.
  int64_t sum = (*row)[1].as_int();
  while (cursor->NextRef(&rid, &row).value()) sum += (*row)[1].as_int();
  EXPECT_EQ(sum, 50);
  cursor.reset();

  // The next statement takes a fresh cut and sees the committed write.
  EXPECT_EQ(fix.tm->Get(reader.get(), "T", rids[4]).value()[1],
            Value::Int(999));
  ASSERT_OK(fix.tm->Commit(reader.get()));
}

TEST(MvccReadPathTest, SnapshotLevelKeepsBeginTimeCutAcrossStatements) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 3, 10);

  auto reader = fix.tm->Begin(IsolationLevel::kSnapshot);
  auto writer = fix.tm->Begin(IsolationLevel::kSerializable);
  ASSERT_OK(fix.tm->Update(writer.get(), "T", rids[0], BalRow(0, 999)));
  ASSERT_OK(fix.tm->Commit(writer.get()));

  // Statement after statement, the Begin-time cut holds.
  EXPECT_EQ(fix.tm->Get(reader.get(), "T", rids[0]).value()[1],
            Value::Int(10));
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       fix.tm->OpenCursor(reader.get(), "T",
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  EXPECT_EQ(SumBal(Drain(cursor.get())), 30);
  cursor.reset();
  ASSERT_OK(fix.tm->Commit(reader.get()));
}

TEST(MvccReadPathTest, LockingAblationRestoresSharedLocks) {
  EngineFixture fix;
  fix.tm->set_mvcc_reads_enabled(false);
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  Seed(fix.tm.get(), "T", 3, 10);
  Table* table = fix.db.GetTable("T").value();

  auto reader = fix.tm->Begin(IsolationLevel::kReadCommitted);
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       fix.tm->OpenCursor(reader.get(), "T",
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  RowId rid = 0;
  const Row* row = nullptr;
  ASSERT_TRUE(cursor->NextRef(&rid, &row).value());
  // With snapshot reads off, the scan is back on the locking path: table S
  // held while the cursor is open.
  EXPECT_TRUE(fix.locks.Holds(reader->id(), LockKey::Table(table->id()),
                              LockMode::kS));
  cursor.reset();
  ASSERT_OK(fix.tm->Commit(reader.get()));
}

TEST(MvccReadPathTest, OwnWritesVisibleThroughSnapshotReads) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 3, 10);

  auto txn = fix.tm->Begin(IsolationLevel::kSnapshot);
  ASSERT_OK(fix.tm->Update(txn.get(), "T", rids[1], BalRow(1, 777)));
  // The writer reads its own uncommitted version...
  EXPECT_EQ(fix.tm->Get(txn.get(), "T", rids[1]).value()[1], Value::Int(777));
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       fix.tm->OpenCursor(txn.get(), "T",
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  EXPECT_EQ(SumBal(Drain(cursor.get())), 10 + 777 + 10);
  cursor.reset();

  // ...while a concurrent snapshot reader still sees the committed state.
  auto other = fix.tm->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(fix.tm->Get(other.get(), "T", rids[1]).value()[1],
            Value::Int(10));
  ASSERT_OK(fix.tm->Commit(other.get()));
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

// --- Writes under snapshot isolation. -------------------------------------

TEST(MvccWriteTest, FirstUpdaterWinsAbortsStaleSnapshotWriter) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 2, 10);

  auto stale = fix.tm->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(fix.tm->Get(stale.get(), "T", rids[0]).value()[1],
            Value::Int(10));

  auto winner = fix.tm->Begin(IsolationLevel::kSnapshot);
  ASSERT_OK(fix.tm->Update(winner.get(), "T", rids[0], BalRow(0, 20)));
  ASSERT_OK(fix.tm->Commit(winner.get()));

  // The row moved past `stale`'s snapshot: its update (and delete) must
  // fail first-updater-wins instead of silently clobbering.
  EXPECT_FALSE(fix.tm->Update(stale.get(), "T", rids[0], BalRow(0, 30)).ok());
  EXPECT_FALSE(fix.tm->Delete(stale.get(), "T", rids[0]).ok());
  // An untouched row is still writable.
  ASSERT_OK(fix.tm->Update(stale.get(), "T", rids[1], BalRow(1, 30)));
  ASSERT_OK(fix.tm->Abort(stale.get()));

  auto check = fix.tm->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(fix.tm->Get(check.get(), "T", rids[0]).value()[1],
            Value::Int(20));
  ASSERT_OK(fix.tm->Commit(check.get()));
}

TEST(MvccWriteTest, WriterProceedsWhileSnapshotScansOpen) {
  // The freeze this fixes: pre-MVCC, a kReadCommitted scan held a table S
  // lock for the life of the cursor, so concurrent scans kept whole tables
  // frozen under read-mostly load. Now two snapshot scans sit open mid-table
  // while a writer updates and commits between their pulls — synchronously,
  // so any residual blocking would surface as a lock timeout.
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 8, 10);

  auto r1 = fix.tm->Begin(IsolationLevel::kReadCommitted);
  auto r2 = fix.tm->Begin(IsolationLevel::kReadCommitted);
  ASSERT_OK_AND_ASSIGN(auto c1,
                       fix.tm->OpenCursor(r1.get(), "T",
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  ASSERT_OK_AND_ASSIGN(auto c2,
                       fix.tm->OpenCursor(r2.get(), "T",
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  RowId rid = 0;
  const Row* row = nullptr;
  ASSERT_TRUE(c1->NextRef(&rid, &row).value());
  ASSERT_TRUE(c2->NextRef(&rid, &row).value());

  auto writer = fix.tm->Begin(IsolationLevel::kSerializable);
  ASSERT_OK(fix.tm->Update(writer.get(), "T", rids[6], BalRow(6, 999)));
  ASSERT_OK(fix.tm->Commit(writer.get()));

  // Both scans complete on their pre-write cuts.
  int64_t s1 = 10 + SumBal(Drain(c1.get()));
  int64_t s2 = 10 + SumBal(Drain(c2.get()));
  EXPECT_EQ(s1, 80);
  EXPECT_EQ(s2, 80);
  c1.reset();
  c2.reset();
  ASSERT_OK(fix.tm->Commit(r1.get()));
  ASSERT_OK(fix.tm->Commit(r2.get()));
}

// --- Version-chain GC. ----------------------------------------------------

TEST(MvccGcTest, OldestLiveSnapshotPinsVersionChains) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 1, 0);
  Table* table = fix.db.GetTable("T").value();

  // Pin the post-seed cut, then stack five committed overwrites on it.
  auto pinner = fix.tm->Begin(IsolationLevel::kSnapshot);
  for (int64_t v = 1; v <= 5; ++v) {
    auto w = fix.tm->Begin(IsolationLevel::kSerializable);
    ASSERT_OK(fix.tm->Update(w.get(), "T", rids[0], BalRow(0, v)));
    ASSERT_OK(fix.tm->Commit(w.get()));
  }
  EXPECT_EQ(fix.tm->stats().versions_created.load(), 5u);
  EXPECT_EQ(table->version_count(), 6u);

  // GC with the pin live must keep everything the pinned snapshot (and any
  // newer one) can reach — which here is the whole chain. The five
  // overwrites stay queued behind the pin.
  EXPECT_EQ(fix.tm->GcVersions(), 0u);
  EXPECT_EQ(table->version_count(), 6u);
  EXPECT_EQ(fix.tm->pending_prunes(), 5u);
  EXPECT_EQ(fix.tm->Get(pinner.get(), "T", rids[0]).value()[1],
            Value::Int(0));

  // Release the pin: the chain collapses to the latest version.
  ASSERT_OK(fix.tm->Commit(pinner.get()));
  EXPECT_EQ(fix.tm->GcVersions(), 5u);
  EXPECT_EQ(table->version_count(), 1u);
  EXPECT_EQ(fix.tm->stats().versions_pruned.load(), 5u);
  EXPECT_EQ(fix.tm->pending_prunes(), 0u);

  auto check = fix.tm->Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(fix.tm->Get(check.get(), "T", rids[0]).value()[1],
            Value::Int(5));
  ASSERT_OK(fix.tm->Commit(check.get()));
}

TEST(MvccGcTest, EveryWritingCommitPrunesWhatItSuperseded) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 1, 0);
  Table* table = fix.db.GetTable("T").value();

  // With no live snapshot each overwrite's own inline slice prunes the
  // version it superseded: the chain never grows.
  for (int i = 0; i < 128; ++i) {
    auto w = fix.tm->Begin(IsolationLevel::kSerializable);
    ASSERT_OK(fix.tm->Update(w.get(), "T", rids[0], BalRow(0, i)));
    ASSERT_OK(fix.tm->Commit(w.get()));
    ASSERT_LE(table->version_count(), 2u) << "after overwrite " << i;
  }
  EXPECT_EQ(fix.tm->stats().versions_pruned.load(), 128u);
  EXPECT_EQ(fix.tm->pending_prunes(), 0u);
}

TEST(MvccGcTest, ReadOnlyAndInsertOnlyCommitsDoNoGcWork) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 2, 0);
  Table* table = fix.db.GetTable("T").value();

  // Queue a backlog behind a pin, then release the pin with a read-only
  // commit: the backlog is prunable now, but only a writing commit (or an
  // explicit GcVersions) may drain it.
  auto pinner = fix.tm->Begin(IsolationLevel::kSnapshot);
  for (int64_t v = 1; v <= 4; ++v) {
    auto w = fix.tm->Begin(IsolationLevel::kSerializable);
    ASSERT_OK(fix.tm->Update(w.get(), "T", rids[0], BalRow(0, v)));
    ASSERT_OK(fix.tm->Commit(w.get()));
  }
  ASSERT_OK(fix.tm->Get(pinner.get(), "T", rids[0]).status());
  ASSERT_OK(fix.tm->Commit(pinner.get()));
  EXPECT_EQ(fix.tm->pending_prunes(), 4u);

  for (IsolationLevel level :
       {IsolationLevel::kSerializable, IsolationLevel::kReadCommitted,
        IsolationLevel::kSnapshot}) {
    auto r = fix.tm->Begin(level);
    ASSERT_OK(fix.tm->Get(r.get(), "T", rids[1]).status());
    ASSERT_OK(fix.tm->Commit(r.get()));
  }
  auto ins = fix.tm->Begin(IsolationLevel::kSerializable);
  ASSERT_OK(fix.tm->Insert(ins.get(), "T", BalRow(7, 7)).status());
  ASSERT_OK(fix.tm->Commit(ins.get()));
  EXPECT_EQ(fix.tm->stats().versions_pruned.load(), 0u);
  EXPECT_EQ(fix.tm->pending_prunes(), 4u);
  EXPECT_EQ(table->version_count(), 7u);

  // One writing commit on another row drains the whole backlog.
  auto w = fix.tm->Begin(IsolationLevel::kSerializable);
  ASSERT_OK(fix.tm->Update(w.get(), "T", rids[1], BalRow(1, 9)));
  ASSERT_OK(fix.tm->Commit(w.get()));
  EXPECT_EQ(fix.tm->pending_prunes(), 0u);
  EXPECT_EQ(fix.tm->stats().versions_pruned.load(), 5u);
  EXPECT_EQ(table->version_count(), table->size());
}

TEST(MvccGcTest, GroupCommitsPruneWhatTheySuperseded) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", 2, 0);
  Table* table = fix.db.GetTable("T").value();

  // Entangled-only traffic: every overwrite commits through CommitGroup.
  for (int i = 0; i < 200; ++i) {
    auto a = fix.tm->Begin(IsolationLevel::kSerializable);
    auto b = fix.tm->Begin(IsolationLevel::kSerializable);
    ASSERT_OK(fix.tm->Update(a.get(), "T", rids[0], BalRow(0, i)));
    ASSERT_OK(fix.tm->Update(b.get(), "T", rids[1], BalRow(1, i)));
    ASSERT_OK(fix.tm->CommitGroup({a.get(), b.get()}));
  }
  EXPECT_EQ(fix.tm->stats().group_commits.load(), 200u);
  EXPECT_EQ(table->version_count(), table->size());
  EXPECT_EQ(table->version_count(), 2u);
}

TEST(MvccGcTest, TwoPhaseCommitsPruneWhatTheySuperseded) {
  shard::Router::Options ropts;
  ropts.num_shards = 2;
  auto router = shard::Router::Open(ropts).value();
  Schema schema = Bal();
  schema.set_primary_key({0});
  ASSERT_OK(router->CreateTable("Acct", schema).status());
  constexpr int kRows = 8;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_OK(router->Load("Acct", BalRow(i, 0)));
  }
  std::vector<std::pair<RowId, Row>> rows;
  {
    auto txn = router->Begin(IsolationLevel::kSerializable);
    ASSERT_OK_AND_ASSIGN(auto cursor,
                         router->OpenCursor(txn.get(), "Acct",
                                            AccessPlan::TableScan(),
                                            ReadOrigin::kStatement));
    rows = Drain(cursor.get());
    cursor.reset();
    ASSERT_OK(router->Commit(txn.get()));
  }
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));

  // Cross-shard-only traffic: every transaction writes all rows, so every
  // commit runs 2PC and stamps through StampWritesAt + CommitPrepared.
  uint64_t two_pc_before = router->stats().two_phase_commits.load();
  for (int i = 0; i < 200; ++i) {
    auto txn = router->Begin(IsolationLevel::kSerializable);
    for (const auto& [rid, row] : rows) {
      ASSERT_OK(router->Update(txn.get(), "Acct", rid,
                               BalRow(row[0].as_int(), i)));
    }
    ASSERT_OK(router->Commit(txn.get()));
  }
  EXPECT_EQ(router->stats().two_phase_commits.load() - two_pc_before, 200u);
  size_t versions = 0, live = 0;
  for (size_t s = 0; s < router->num_shards(); ++s) {
    Table* t = router->shard_db(s)->GetTable("Acct").value();
    versions += t->version_count();
    live += t->size();
  }
  EXPECT_EQ(versions, live);
  EXPECT_EQ(versions, static_cast<size_t>(kRows));
}

TEST(MvccGcTest, SnapshotRegistrationNeverRacesPastTheHorizon) {
  // Writers overwrite rows that always exist and commit, so every commit
  // drains a GC slice (one writer also runs a full GcVersions); readers at
  // both snapshot-read levels begin, Get one row and commit, so each
  // transaction registers a fresh snapshot. A registration whose clock
  // reading raced a concurrent horizon computation could find the version
  // it needs already pruned and report a live row as missing.
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", Bal()).status());
  constexpr int kRows = 4;
  std::vector<RowId> rids = Seed(fix.tm.get(), "T", kRows, 0);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0}, misses{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        // Disjoint rows per writer: commits never wait on each other.
        size_t r = static_cast<size_t>(w) + 2 * static_cast<size_t>(i % 2);
        auto txn = fix.tm->Begin(IsolationLevel::kSerializable);
        ASSERT_OK(fix.tm->Update(txn.get(), "T", rids[r],
                                 BalRow(static_cast<int64_t>(r), i)));
        ASSERT_OK(fix.tm->Commit(txn.get()));
        if (w == 0) (void)fix.tm->GcVersions();
      }
    });
  }
  for (IsolationLevel level :
       {IsolationLevel::kSnapshot, IsolationLevel::kReadCommitted}) {
    threads.emplace_back([&, level] {
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        auto txn = fix.tm->Begin(level);
        if (!fix.tm->Get(txn.get(), "T", rids[i % kRows]).ok()) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        ASSERT_OK(fix.tm->Commit(txn.get()));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(misses.load(), 0u) << "of " << reads.load() << " reads";
  EXPECT_GT(fix.tm->stats().versions_pruned.load(), 0u);
}

// --- Recovery. ------------------------------------------------------------

class MvccRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ = ::testing::TempDir() + "yt_mvcc_wal_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(wal_path_.c_str());
  }
  void TearDown() override { std::remove(wal_path_.c_str()); }

  std::string wal_path_;
};

TEST_F(MvccRecoveryTest, SnapshotReadsServeRecoveredStateAndNewVersions) {
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(wal_path_, {}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("T", Bal()).status());
    auto t1 = tm.Begin();
    for (int i = 0; i < 4; ++i) {
      ASSERT_OK(tm.Insert(t1.get(), "T", BalRow(i, 10)).status());
    }
    ASSERT_OK(tm.Commit(t1.get()));
    auto t2 = tm.Begin();
    ASSERT_OK(tm.Update(t2.get(), "T", 1, BalRow(0, 25)));
    ASSERT_OK(tm.Commit(t2.get()));
    // "Crash".
  }
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result r,
                       RecoveryManager::Recover(wal_path_));
  LockManager locks;
  TransactionManager tm(r.db.get(), &locks, nullptr);
  tm.set_next_txn_id(r.max_txn_id + 1);

  // Recovered rows are committed base versions: visible to every snapshot.
  auto reader = tm.Begin(IsolationLevel::kSnapshot);
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       tm.OpenCursor(reader.get(), "T",
                                     AccessPlan::TableScan(),
                                     ReadOrigin::kStatement));
  EXPECT_EQ(SumBal(Drain(cursor.get())), 25 + 10 + 10 + 10);
  cursor.reset();

  // New writes version on top of the recovered heap; the pre-write pin
  // keeps reading the recovered value.
  auto writer = tm.Begin(IsolationLevel::kSerializable);
  ASSERT_OK(tm.Update(writer.get(), "T", 2, BalRow(1, 999)));
  ASSERT_OK(tm.Commit(writer.get()));
  EXPECT_EQ(tm.Get(reader.get(), "T", 2).value()[1], Value::Int(10));
  ASSERT_OK(tm.Commit(reader.get()));

  auto fresh = tm.Begin(IsolationLevel::kSnapshot);
  EXPECT_EQ(tm.Get(fresh.get(), "T", 2).value()[1], Value::Int(999));
  ASSERT_OK(tm.Commit(fresh.get()));
}

// --- Randomized snapshot-vs-locking differentials. ------------------------

/// N transfer writers + M snapshot readers over one table whose balance sum
/// is invariant: every scan a reader takes must land on a consistent cut
/// (sum preserved, row count preserved), at both snapshot-read levels.
void RunConsistentCutWorkload(IsolationLevel reader_level) {
  TransactionManager::Options opts;
  opts.lock_timeout_micros = 100'000;  // upgrade deadlocks resolve fast
  EngineFixture fix(opts);
  ASSERT_OK(fix.tm->CreateTable("Acct", Bal()).status());
  constexpr int kRows = 32;
  constexpr int64_t kInitial = 100;
  std::vector<RowId> rids = Seed(fix.tm.get(), "Acct", kRows, kInitial);
  constexpr int64_t kTotal = kRows * kInitial;

  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kTransfers = 40;
  constexpr int kScans = 25;
  std::atomic<int> cut_violations{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (int op = 0; op < kTransfers; ++op) {
        size_t a = rng.Index(kRows), b = rng.Index(kRows);
        if (a == b) continue;
        if (a > b) std::swap(a, b);  // deterministic lock order
        int64_t delta = rng.Uniform(1, 10);
        // Retry until the transfer commits (upgrade deadlocks between
        // writers resolve via the short lock timeout).
        for (int attempt = 0; attempt < 200; ++attempt) {
          auto txn = fix.tm->Begin(IsolationLevel::kSerializable);
          auto move = [&]() -> Status {
            YT_ASSIGN_OR_RETURN(Row ra,
                                fix.tm->Get(txn.get(), "Acct", rids[a]));
            YT_RETURN_IF_ERROR(fix.tm->Update(
                txn.get(), "Acct", rids[a],
                BalRow(ra[0].as_int(), ra[1].as_int() - delta)));
            YT_ASSIGN_OR_RETURN(Row rb,
                                fix.tm->Get(txn.get(), "Acct", rids[b]));
            return fix.tm->Update(
                txn.get(), "Acct", rids[b],
                BalRow(rb[0].as_int(), rb[1].as_int() + delta));
          };
          if (move().ok() && fix.tm->Commit(txn.get()).ok()) break;
          (void)fix.tm->Abort(txn.get());
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int scan = 0; scan < kScans; ++scan) {
        auto txn = fix.tm->Begin(reader_level);
        auto cursor = fix.tm->OpenCursor(txn.get(), "Acct",
                                         AccessPlan::TableScan(),
                                         ReadOrigin::kStatement);
        if (!cursor.ok()) {
          cut_violations.fetch_add(1);
          (void)fix.tm->Abort(txn.get());
          continue;
        }
        auto rows = Drain(cursor.value().get());
        if (rows.size() != kRows || SumBal(rows) != kTotal) {
          cut_violations.fetch_add(1);
        }
        cursor.value().reset();
        (void)fix.tm->Commit(txn.get());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cut_violations.load(), 0);
  EXPECT_GT(fix.tm->stats().snapshot_reads.load(), 0u);

  // The final state itself is a consistent cut.
  auto check = fix.tm->Begin(IsolationLevel::kSnapshot);
  auto cursor = fix.tm->OpenCursor(check.get(), "Acct",
                                   AccessPlan::TableScan(),
                                   ReadOrigin::kStatement);
  ASSERT_OK(cursor.status());
  EXPECT_EQ(SumBal(Drain(cursor.value().get())), kTotal);
  cursor.value().reset();
  ASSERT_OK(fix.tm->Commit(check.get()));
}

TEST(MvccDifferentialTest, ReadCommittedScansSeeConsistentCuts) {
  RunConsistentCutWorkload(IsolationLevel::kReadCommitted);
}

TEST(MvccDifferentialTest, SnapshotScansSeeConsistentCuts) {
  RunConsistentCutWorkload(IsolationLevel::kSnapshot);
}

TEST(MvccDifferentialTest, SeededWorkloadMatchesLockingAblation) {
  // The same seeded single-threaded workload against two engines — snapshot
  // reads on vs. the locking ablation. Every read result and the final heap
  // must agree exactly: versioning changes blocking behavior, never results.
  EngineFixture mvcc_fix, lock_fix;
  lock_fix.tm->set_mvcc_reads_enabled(false);
  for (auto* fix : {&mvcc_fix, &lock_fix}) {
    ASSERT_OK(fix->tm->CreateTable("Acct", Bal()).status());
  }

  Rng rng(20260808);
  std::vector<std::pair<RowId, RowId>> rids;  // (mvcc rid, locking rid)
  int64_t next_id = 0;
  constexpr IsolationLevel kLevels[] = {
      IsolationLevel::kSerializable, IsolationLevel::kReadCommitted,
      IsolationLevel::kSnapshot};

  for (int step = 0; step < 300; ++step) {
    double dice = rng.NextDouble();
    IsolationLevel level = kLevels[rng.Index(3)];
    bool abort = rng.Bernoulli(0.15);
    auto t1 = mvcc_fix.tm->Begin(level);
    auto t2 = lock_fix.tm->Begin(level);
    if (dice < 0.30 || rids.empty()) {
      int64_t id = next_id++;
      int64_t bal = rng.Uniform(0, 500);
      auto r1 = mvcc_fix.tm->Insert(t1.get(), "Acct", BalRow(id, bal));
      auto r2 = lock_fix.tm->Insert(t2.get(), "Acct", BalRow(id, bal));
      ASSERT_EQ(r1.ok(), r2.ok());
      if (r1.ok() && !abort) rids.emplace_back(r1.value(), r2.value());
    } else if (dice < 0.50) {
      size_t pick = rng.Index(rids.size());
      int64_t bal = rng.Uniform(0, 500);
      Status s1 = mvcc_fix.tm->Update(t1.get(), "Acct", rids[pick].first,
                                      BalRow(static_cast<int64_t>(pick), bal));
      Status s2 = lock_fix.tm->Update(t2.get(), "Acct", rids[pick].second,
                                      BalRow(static_cast<int64_t>(pick), bal));
      ASSERT_EQ(s1.ok(), s2.ok());
    } else if (dice < 0.60) {
      size_t pick = rng.Index(rids.size());
      Status s1 = mvcc_fix.tm->Delete(t1.get(), "Acct", rids[pick].first);
      Status s2 = lock_fix.tm->Delete(t2.get(), "Acct", rids[pick].second);
      ASSERT_EQ(s1.ok(), s2.ok());
      if (s1.ok() && !abort) rids.erase(rids.begin() + pick);
    } else if (dice < 0.80) {
      size_t pick = rng.Index(rids.size());
      auto r1 = mvcc_fix.tm->Get(t1.get(), "Acct", rids[pick].first);
      auto r2 = lock_fix.tm->Get(t2.get(), "Acct", rids[pick].second);
      ASSERT_EQ(r1.ok(), r2.ok());
      if (r1.ok()) EXPECT_EQ(r1.value(), r2.value());
    } else {
      auto c1 = mvcc_fix.tm->OpenCursor(t1.get(), "Acct",
                                        AccessPlan::TableScan(),
                                        ReadOrigin::kStatement);
      auto c2 = lock_fix.tm->OpenCursor(t2.get(), "Acct",
                                        AccessPlan::TableScan(),
                                        ReadOrigin::kStatement);
      ASSERT_OK(c1.status());
      ASSERT_OK(c2.status());
      auto rows1 = Drain(c1.value().get());
      auto rows2 = Drain(c2.value().get());
      ASSERT_EQ(rows1.size(), rows2.size());
      for (size_t i = 0; i < rows1.size(); ++i) {
        EXPECT_EQ(rows1[i].second, rows2[i].second);
      }
    }
    if (abort) {
      ASSERT_OK(mvcc_fix.tm->Abort(t1.get()));
      ASSERT_OK(lock_fix.tm->Abort(t2.get()));
    } else {
      ASSERT_OK(mvcc_fix.tm->Commit(t1.get()));
      ASSERT_OK(lock_fix.tm->Commit(t2.get()));
    }
  }

  // GC both sides to the bone — every chain collapses to its latest
  // version and every committed tombstone is gone, the reference a full
  // heap walk would reach — then compare final visible heaps.
  (void)mvcc_fix.tm->GcVersions();
  (void)lock_fix.tm->GcVersions();
  Table* ta = mvcc_fix.db.GetTable("Acct").value();
  Table* tb = lock_fix.db.GetTable("Acct").value();
  EXPECT_EQ(ta->version_count(), ta->size());
  EXPECT_EQ(tb->version_count(), tb->size());
  EXPECT_EQ(ta->size(), tb->size());
  std::vector<Row> rows_a, rows_b;
  ta->Scan([&](RowId, const Row& row) {
    rows_a.push_back(row);
    return true;
  });
  tb->Scan([&](RowId, const Row& row) {
    rows_b.push_back(row);
    return true;
  });
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i], rows_b[i]);
  }
}

TEST(MvccDifferentialTest, RecordedConcurrentScheduleHasNoDirtyReads) {
  // Committing-writer workload under the schedule recorder: disjoint row
  // ranges per writer (no aborts, no lock waits), snapshot readers scanning
  // throughout. The checker's read-from relation is syntactic, so the
  // assertion is the dirty-read/widow axes, not serializability (snapshot
  // scans are deliberately not conflict-serializable).
  iso::ScheduleRecorder recorder;
  TransactionManager::Options opts;
  opts.observer = &recorder;
  EngineFixture fix(opts);
  ASSERT_OK(fix.tm->CreateTable("Acct", Bal()).status());
  constexpr int kRows = 24;
  constexpr int kWriters = 3;
  constexpr int kRowsPer = kRows / kWriters;
  std::vector<RowId> rids = Seed(fix.tm.get(), "Acct", kRows, 100);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(7 + w);
      for (int op = 0; op < 30; ++op) {
        size_t a = static_cast<size_t>(w * kRowsPer) + rng.Index(kRowsPer);
        size_t b = static_cast<size_t>(w * kRowsPer) + rng.Index(kRowsPer);
        if (a == b) continue;
        auto txn = fix.tm->Begin(IsolationLevel::kSerializable);
        Row ra = fix.tm->Get(txn.get(), "Acct", rids[a]).value();
        Row rb = fix.tm->Get(txn.get(), "Acct", rids[b]).value();
        ASSERT_OK(fix.tm->Update(txn.get(), "Acct", rids[a],
                                 BalRow(ra[0].as_int(), ra[1].as_int() - 1)));
        ASSERT_OK(fix.tm->Update(txn.get(), "Acct", rids[b],
                                 BalRow(rb[0].as_int(), rb[1].as_int() + 1)));
        ASSERT_OK(fix.tm->Commit(txn.get()));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int scan = 0; scan < 15; ++scan) {
        auto txn = fix.tm->Begin(IsolationLevel::kSnapshot);
        auto cursor = fix.tm->OpenCursor(txn.get(), "Acct",
                                         AccessPlan::TableScan(),
                                         ReadOrigin::kStatement);
        ASSERT_OK(cursor.status());
        EXPECT_EQ(SumBal(Drain(cursor.value().get())), kRows * 100);
        cursor.value().reset();
        ASSERT_OK(fix.tm->Commit(txn.get()));
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_OK_AND_ASSIGN(iso::Schedule sched, recorder.Finish());
  iso::IsolationReport report = iso::IsolationChecker::Check(sched);
  EXPECT_FALSE(report.read_from_aborted) << report.ToString();
  EXPECT_FALSE(report.widowed_transaction) << report.ToString();
}

// --- Cross-shard one-cut reads. -------------------------------------------

TEST(MvccShardTest, CrossShardScanReadsOneCutUnderConcurrentTransfers) {
  // 4-shard router, transfers whose legs land on different shards, snapshot
  // readers fanning out: the shared commit clock plus coordinator-adopted
  // branch snapshots (and single-timestamp 2PC stamping) must make every
  // fan-out scan a single global cut.
  shard::Router::Options ropts;
  ropts.num_shards = 4;
  auto router = shard::Router::Open(ropts).value();
  Schema schema = Bal();
  schema.set_primary_key({0});
  ASSERT_OK(router->CreateTable("Acct", schema).status());
  constexpr int kRows = 32;
  constexpr int64_t kInitial = 100;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_OK(router->Load("Acct", BalRow(i, kInitial)));
  }
  // Tagged RowIds, via one committed fan-out scan.
  std::vector<RowId> rids;
  {
    auto txn = router->Begin(IsolationLevel::kSerializable);
    ASSERT_OK_AND_ASSIGN(auto cursor,
                         router->OpenCursor(txn.get(), "Acct",
                                            AccessPlan::TableScan(),
                                            ReadOrigin::kStatement));
    for (auto& [rid, row] : Drain(cursor.get())) rids.push_back(rid);
    cursor.reset();
    ASSERT_OK(router->Commit(txn.get()));
  }
  ASSERT_EQ(rids.size(), static_cast<size_t>(kRows));

  constexpr int kWriters = 3;
  constexpr int kRowsPer = kRows / kWriters;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(40 + w);
      for (int op = 0; op < 20; ++op) {
        // Disjoint per-writer ranges: every transfer commits, most 2PC.
        size_t a = static_cast<size_t>(w * kRowsPer) + rng.Index(kRowsPer);
        size_t b = static_cast<size_t>(w * kRowsPer) + rng.Index(kRowsPer);
        if (a == b) continue;
        auto txn = router->Begin(IsolationLevel::kSerializable);
        Row ra = router->Get(txn.get(), "Acct", rids[a]).value();
        Row rb = router->Get(txn.get(), "Acct", rids[b]).value();
        ASSERT_OK(router->Update(txn.get(), "Acct", rids[a],
                                 BalRow(ra[0].as_int(), ra[1].as_int() - 1)));
        ASSERT_OK(router->Update(txn.get(), "Acct", rids[b],
                                 BalRow(rb[0].as_int(), rb[1].as_int() + 1)));
        ASSERT_OK(router->Commit(txn.get()));
      }
    });
  }
  std::atomic<int> cut_violations{0};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int scan = 0; scan < 15; ++scan) {
        for (IsolationLevel level : {IsolationLevel::kSnapshot,
                                     IsolationLevel::kReadCommitted}) {
          auto txn = router->Begin(level);
          auto cursor = router->OpenCursor(txn.get(), "Acct",
                                           AccessPlan::TableScan(),
                                           ReadOrigin::kStatement);
          if (!cursor.ok()) {
            cut_violations.fetch_add(1);
            (void)router->Abort(txn.get());
            continue;
          }
          auto rows = Drain(cursor.value().get());
          if (rows.size() != kRows || SumBal(rows) != kRows * kInitial) {
            cut_violations.fetch_add(1);
          }
          cursor.value().reset();
          (void)router->Commit(txn.get());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cut_violations.load(), 0);
  EXPECT_GT(router->stats().two_phase_commits.load(), 0u);
  EXPECT_GT(router->stats().snapshot_reads.load(), 0u);

  auto check = router->Begin(IsolationLevel::kSnapshot);
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       router->OpenCursor(check.get(), "Acct",
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  EXPECT_EQ(SumBal(Drain(cursor.get())), kRows * kInitial);
  cursor.reset();
  ASSERT_OK(router->Commit(check.get()));
}

}  // namespace
}  // namespace youtopia
