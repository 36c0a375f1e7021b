#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>

#include "src/wal/recovery.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using testing::BatchDrain;
using testing::EngineFixture;
using testing::LookupRids;
using testing::PullMethods;
using testing::RangeRids;
using testing::RowSet;

Schema KV() {
  return Schema({{"k", TypeId::kInt64}, {"v", TypeId::kString}});
}

/// What a SQL read statement does: opens a statement cursor over `plan` and
/// drains it through `visitor`.
Status DrainPlan(TransactionManager* tm, Transaction* txn,
                 const std::string& table, const AccessPlan& plan,
                 const std::function<bool(RowId, const Row&)>& visitor) {
  YT_ASSIGN_OR_RETURN(auto cursor, tm->OpenCursor(txn, table, plan,
                                                  ReadOrigin::kStatement));
  return cursor->DrainRef(visitor);
}

TEST(TxnTest, CommitMakesWritesVisibleAndReleasesLocks) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto t1 = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(RowId rid,
                       fix.tm->Insert(t1.get(), "T",
                                      Row({Value::Int(1), Value::Str("a")})));
  ASSERT_OK(fix.tm->Commit(t1.get()));
  EXPECT_EQ(t1->state(), TxnState::kCommitted);
  EXPECT_EQ(fix.locks.HeldCount(t1->id()), 0u);
  auto t2 = fix.tm->Begin();
  EXPECT_EQ(fix.tm->Get(t2.get(), "T", rid).value()[1], Value::Str("a"));
  ASSERT_OK(fix.tm->Commit(t2.get()));
}

TEST(TxnTest, AbortUndoesInsertUpdateDeleteInReverseOrder) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(RowId keep,
                       fix.tm->Insert(setup.get(), "T",
                                      Row({Value::Int(1), Value::Str("old")})));
  ASSERT_OK_AND_ASSIGN(RowId doomed,
                       fix.tm->Insert(setup.get(), "T",
                                      Row({Value::Int(2), Value::Str("bye")})));
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto t = fix.tm->Begin();
  ASSERT_OK(fix.tm->Update(t.get(), "T", keep,
                           Row({Value::Int(1), Value::Str("new")})));
  ASSERT_OK(fix.tm->Delete(t.get(), "T", doomed));
  ASSERT_OK(fix.tm->Insert(t.get(), "T",
                           Row({Value::Int(3), Value::Str("temp")}))
                .status());
  ASSERT_OK(fix.tm->Abort(t.get()));

  auto check = fix.tm->Begin();
  EXPECT_EQ(fix.tm->Get(check.get(), "T", keep).value()[1],
            Value::Str("old"));
  EXPECT_EQ(fix.tm->Get(check.get(), "T", doomed).value()[1],
            Value::Str("bye"));
  Table* table = fix.db.GetTable("T").value();
  EXPECT_EQ(table->size(), 2u);
  ASSERT_OK(fix.tm->Commit(check.get()));
}

TEST(TxnTest, StrictTwoPhaseLockingBlocksConflictingWriter) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(RowId rid,
                       fix.tm->Insert(setup.get(), "T",
                                      Row({Value::Int(1), Value::Str("a")})));
  ASSERT_OK(fix.tm->Commit(setup.get()));

  TransactionManager::Options short_lock;
  short_lock.lock_timeout_micros = 30'000;
  EngineFixture fast(short_lock);
  (void)fast;

  auto reader = fix.tm->Begin();  // kFullEntangled: holds row S to commit
  ASSERT_OK(fix.tm->Get(reader.get(), "T", rid).status());
  auto writer = fix.tm->Begin();
  // Writer must block; with the default 2 s timeout this would hang, so use
  // a thread + release.
  std::atomic<bool> wrote{false};
  std::thread th([&] {
    Status s = fix.tm->Update(writer.get(), "T", rid,
                              Row({Value::Int(1), Value::Str("b")}));
    wrote.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(wrote.load());
  ASSERT_OK(fix.tm->Commit(reader.get()));
  th.join();
  EXPECT_TRUE(wrote.load());
  ASSERT_OK(fix.tm->Commit(writer.get()));
}

TEST(TxnTest, ReadCommittedReleasesReadLocksEarly) {
  TransactionManager::Options opts;
  opts.default_isolation = IsolationLevel::kReadCommitted;
  EngineFixture fix(opts);
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin(IsolationLevel::kSerializable);
  ASSERT_OK_AND_ASSIGN(RowId rid,
                       fix.tm->Insert(setup.get(), "T",
                                      Row({Value::Int(1), Value::Str("a")})));
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto reader = fix.tm->Begin(IsolationLevel::kReadCommitted);
  ASSERT_OK(fix.tm->Get(reader.get(), "T", rid).status());
  // Row S was dropped right after the read, so a writer proceeds while the
  // reader is still open — the unrepeatable-read anomaly this level admits.
  auto writer = fix.tm->Begin(IsolationLevel::kSerializable);
  ASSERT_OK(fix.tm->Update(writer.get(), "T", rid,
                           Row({Value::Int(1), Value::Str("b")})));
  ASSERT_OK(fix.tm->Commit(writer.get()));
  EXPECT_EQ(fix.tm->Get(reader.get(), "T", rid).value()[1], Value::Str("b"));
  ASSERT_OK(fix.tm->Commit(reader.get()));
}

TEST(TxnTest, SerializableScanBlocksInsertPreventingFig3b) {
  // Figure 3(b): Minnie's grounding read holds a table S lock, so Donald's
  // INSERT into Airlines cannot slip in between.
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("Airlines", KV()).status());
  auto minnie = fix.tm->Begin();
  {
    ASSERT_OK_AND_ASSIGN(auto cursor,
                         fix.tm->OpenCursor(minnie.get(), "Airlines",
                                            AccessPlan::TableScan(),
                                            ReadOrigin::kGrounding));
    ASSERT_OK(cursor->DrainRef([](RowId, const Row&) { return true; }));
  }
  auto donald = fix.tm->Begin();
  std::atomic<bool> inserted{false};
  std::thread th([&] {
    Status s = fix.tm->Insert(donald.get(), "Airlines",
                              Row({Value::Int(125), Value::Str("United")}))
                   .status();
    inserted.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(inserted.load());
  ASSERT_OK(fix.tm->Commit(minnie.get()));
  th.join();
  EXPECT_TRUE(inserted.load());
  ASSERT_OK(fix.tm->Commit(donald.get()));
}

Schema KVWithPk() {
  Schema s = KV();
  s.set_primary_key({0});
  return s;
}

TEST(TxnIndexTest, GetByIndexVisitsMatchesAndBumpsCounter) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVWithPk()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("v")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto txn = fix.tm->Begin();
  uint64_t scans_before = fix.tm->stats().table_scans.load();
  std::vector<Row> hits;
  ASSERT_OK(DrainPlan(fix.tm.get(), txn.get(), "T",
                      AccessPlan::Lookup({0}, Row({Value::Int(7)})),
                      [&](RowId, const Row& row) {
                        hits.push_back(row);
                        return true;
                      }));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0][0], Value::Int(7));
  EXPECT_EQ(fix.tm->stats().index_lookups.load(), 1u);
  EXPECT_EQ(fix.tm->stats().table_scans.load(), scans_before);
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

TEST(TxnIndexTest, RollbackRestoresIndexEntries) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVWithPk()).status());
  auto setup = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(RowId moved,
                       fix.tm->Insert(setup.get(), "T",
                                      Row({Value::Int(1), Value::Str("a")})));
  ASSERT_OK_AND_ASSIGN(RowId doomed,
                       fix.tm->Insert(setup.get(), "T",
                                      Row({Value::Int(2), Value::Str("b")})));
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto t = fix.tm->Begin();
  // Move key 1 -> 10, delete key 2, insert key 3, then roll back.
  ASSERT_OK(fix.tm->Update(t.get(), "T", moved,
                           Row({Value::Int(10), Value::Str("a")})));
  ASSERT_OK(fix.tm->Delete(t.get(), "T", doomed));
  ASSERT_OK(fix.tm->Insert(t.get(), "T",
                           Row({Value::Int(3), Value::Str("c")}))
                .status());
  ASSERT_OK(fix.tm->Abort(t.get()));

  // The index reflects the pre-transaction world again.
  Table* table = fix.db.GetTable("T").value();
  EXPECT_EQ(LookupRids(*table, {0}, Row({Value::Int(1)})).value(),
            std::vector<RowId>{moved});
  EXPECT_EQ(LookupRids(*table, {0}, Row({Value::Int(2)})).value(),
            std::vector<RowId>{doomed});
  EXPECT_TRUE(LookupRids(*table, {0}, Row({Value::Int(10)})).value().empty());
  EXPECT_TRUE(LookupRids(*table, {0}, Row({Value::Int(3)})).value().empty());
  // And indexed reads agree with the restored heap.
  auto check = fix.tm->Begin();
  size_t n = 0;
  ASSERT_OK(DrainPlan(fix.tm.get(), check.get(), "T",
                      AccessPlan::Lookup({0}, Row({Value::Int(1)})),
                      [&](RowId, const Row& row) {
                        EXPECT_EQ(row[1], Value::Str("a"));
                        ++n;
                        return true;
                      }));
  EXPECT_EQ(n, 1u);
  ASSERT_OK(fix.tm->Commit(check.get()));
}

TEST(TxnIndexTest, RowGranularLocksAllowWritersOnOtherKeys) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVWithPk()).status());
  auto setup = fix.tm->Begin();
  RowId r1 = fix.tm->Insert(setup.get(), "T",
                            Row({Value::Int(1), Value::Str("a")}))
                 .value();
  ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                           Row({Value::Int(2), Value::Str("b")}))
                .status());
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto reader = fix.tm->Begin();  // serializable: row S held to commit
  ASSERT_OK(DrainPlan(fix.tm.get(), reader.get(), "T",
                      AccessPlan::Lookup({0}, Row({Value::Int(1)})),
                      [](RowId, const Row&) { return true; }));
  // A writer on a DIFFERENT key proceeds — with the old table S lock this
  // update would have blocked.
  auto writer = fix.tm->Begin();
  Table* table = fix.db.GetTable("T").value();
  RowId r2 = LookupRids(*table, {0}, Row({Value::Int(2)})).value()[0];
  ASSERT_OK(fix.tm->Update(writer.get(), "T", r2,
                           Row({Value::Int(2), Value::Str("b2")})));
  ASSERT_OK(fix.tm->Commit(writer.get()));
  // A writer on the READ key still blocks until the reader commits.
  auto blocked = fix.tm->Begin();
  std::atomic<bool> wrote{false};
  std::thread th([&] {
    Status s = fix.tm->Update(blocked.get(), "T", r1,
                              Row({Value::Int(1), Value::Str("a2")}));
    wrote.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(wrote.load());
  ASSERT_OK(fix.tm->Commit(reader.get()));
  th.join();
  EXPECT_TRUE(wrote.load());
  ASSERT_OK(fix.tm->Commit(blocked.get()));
}

TEST(TxnIndexTest, IndexKeyLockBlocksPhantomInsert) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVWithPk()).status());
  auto setup = fix.tm->Begin();
  ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                           Row({Value::Int(2), Value::Str("b")}))
                .status());
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto reader = fix.tm->Begin();
  // Equality read of key 1: matches nothing, but the key's predicate lock
  // is held, so the read is repeatable.
  size_t n = 0;
  ASSERT_OK(DrainPlan(fix.tm.get(), reader.get(), "T",
                      AccessPlan::Lookup({0}, Row({Value::Int(1)})),
                      [&](RowId, const Row&) {
                        ++n;
                        return true;
                      }));
  EXPECT_EQ(n, 0u);
  // An insert under key 1 would be a phantom: it blocks on the key lock.
  auto phantom = fix.tm->Begin();
  std::atomic<bool> inserted{false};
  std::thread th([&] {
    Status s = fix.tm->Insert(phantom.get(), "T",
                              Row({Value::Int(1), Value::Str("p")}))
                   .status();
    inserted.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(inserted.load());
  // An insert under an unrelated key sails through.
  auto other = fix.tm->Begin();
  ASSERT_OK(fix.tm->Insert(other.get(), "T",
                           Row({Value::Int(99), Value::Str("q")}))
                .status());
  ASSERT_OK(fix.tm->Commit(other.get()));
  ASSERT_OK(fix.tm->Commit(reader.get()));
  th.join();
  EXPECT_TRUE(inserted.load());
  ASSERT_OK(fix.tm->Commit(phantom.get()));
}

/// KV with an ordered PK index on k, so range reads and key-range locks
/// engage.
Schema KVOrderedPk() {
  Schema s({{"k", TypeId::kInt64}, {"v", TypeId::kString}});
  s.set_primary_key({0});
  s.set_pk_ordered(true);
  return s;
}

IndexRangeSpec IntRangeSpec(int lo, int hi) {
  IndexRangeSpec spec;
  spec.columns = {0};
  spec.range.lo = Row({Value::Int(lo)});
  spec.range.hi = Row({Value::Int(hi)});
  spec.range.lo_unbounded = spec.range.hi_unbounded = false;
  return spec;
}

TEST(TxnRangeTest, GetByIndexRangeVisitsKeyOrderAndCounts) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVOrderedPk()).status());
  auto setup = fix.tm->Begin();
  for (int64_t k : {5, 1, 9, 3, 7}) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(k), Value::Str("v")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto txn = fix.tm->Begin();
  uint64_t ranges = fix.tm->stats().range_lookups.load();
  uint64_t scans = fix.tm->stats().table_scans.load();
  std::vector<int64_t> seen;
  ASSERT_OK(DrainPlan(fix.tm.get(), txn.get(), "T",
                      AccessPlan::Range(IntRangeSpec(3, 7)),
                      [&](RowId, const Row& row) {
                        seen.push_back(row[0].as_int());
                        return true;
                      }));
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 5, 7}));
  EXPECT_EQ(fix.tm->stats().range_lookups.load(), ranges + 1);
  EXPECT_EQ(fix.tm->stats().table_scans.load(), scans);
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

TEST(TxnRangeTest, KeyRangeLockBlocksInRangePhantomOnly) {
  // The satellite phantom test: a concurrent INSERT into a locked key range
  // must block; one just outside must not.
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVOrderedPk()).status());
  auto setup = fix.tm->Begin();
  ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                           Row({Value::Int(10), Value::Str("a")}))
                .status());
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto reader = fix.tm->Begin(IsolationLevel::kSerializable);
  size_t n = 0;
  ASSERT_OK(DrainPlan(fix.tm.get(), reader.get(), "T",
                      AccessPlan::Range(IntRangeSpec(10, 20)),
                      [&](RowId, const Row&) {
                        ++n;
                        return true;
                      }));
  EXPECT_EQ(n, 1u);
  // k=15 falls inside the scanned interval: inserting it now would be a
  // phantom, so it blocks on the key-range lock.
  auto phantom = fix.tm->Begin();
  std::atomic<bool> inserted{false};
  std::thread th([&] {
    Status s = fix.tm->Insert(phantom.get(), "T",
                              Row({Value::Int(15), Value::Str("p")}))
                   .status();
    inserted.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(inserted.load());
  // k=21 is just outside: no conflict, no waiting.
  auto outside = fix.tm->Begin();
  ASSERT_OK(fix.tm->Insert(outside.get(), "T",
                           Row({Value::Int(21), Value::Str("q")}))
                .status());
  ASSERT_OK(fix.tm->Commit(outside.get()));
  EXPECT_FALSE(inserted.load());
  ASSERT_OK(fix.tm->Commit(reader.get()));
  th.join();
  EXPECT_TRUE(inserted.load());
  ASSERT_OK(fix.tm->Commit(phantom.get()));
}

TEST(TxnRangeTest, RangeReadRepeatsAfterOutOfRangeCommit) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVOrderedPk()).status());
  auto reader = fix.tm->Begin(IsolationLevel::kSerializable);
  auto count = [&](int lo, int hi) {
    size_t n = 0;
    EXPECT_OK(DrainPlan(fix.tm.get(), reader.get(), "T",
                        AccessPlan::Range(IntRangeSpec(lo, hi)),
                        [&](RowId, const Row&) {
                          ++n;
                          return true;
                        }));
    return n;
  };
  EXPECT_EQ(count(10, 20), 0u);
  auto writer = fix.tm->Begin();
  ASSERT_OK(fix.tm->Insert(writer.get(), "T",
                           Row({Value::Int(30), Value::Str("x")}))
                .status());
  ASSERT_OK(fix.tm->Commit(writer.get()));
  // The scanned interval is still phantom-free.
  EXPECT_EQ(count(10, 20), 0u);
  ASSERT_OK(fix.tm->Commit(reader.get()));
}

TEST(TxnRangeTest, LockRowsForWriteRangeTakesXUpFront) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVOrderedPk()).status());
  auto setup = fix.tm->Begin();
  for (int64_t k : {1, 2, 3, 4}) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(k), Value::Str("v")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto writer = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(
      auto rows, fix.tm->LockRowsForWriteRange(writer.get(), "T",
                                               IntRangeSpec(2, 3)));
  ASSERT_EQ(rows.size(), 2u);
  // Another writer on a disjoint range proceeds...
  auto other = fix.tm->Begin();
  ASSERT_OK(fix.tm->LockRowsForWriteRange(other.get(), "T",
                                          IntRangeSpec(4, 9))
                .status());
  ASSERT_OK(fix.tm->Commit(other.get()));
  // ...but a range reader overlapping the X interval blocks.
  auto reader = fix.tm->Begin(IsolationLevel::kSerializable);
  reader->set_lock_timeout_micros(50'000);
  Status s = DrainPlan(fix.tm.get(), reader.get(), "T",
                       AccessPlan::Range(IntRangeSpec(3, 5)),
                       [](RowId, const Row&) { return true; });
  EXPECT_EQ(s.code(), StatusCode::kTimedOut);
  ASSERT_OK(fix.tm->Abort(reader.get()));
  ASSERT_OK(fix.tm->Commit(writer.get()));
}

TEST(TxnIndexTest, ReadCommittedReadKeepsOwnKeyWriteLock) {
  // A ReadCommitted transaction that reads an index key it has itself
  // written must not drop its X key lock during early read-lock release —
  // otherwise another transaction could observe its uncommitted write.
  TransactionManager::Options opts;
  opts.lock_timeout_micros = 50'000;  // 50 ms: observe blocking quickly
  EngineFixture fix(opts);
  ASSERT_OK(fix.tm->CreateTable("T", KVWithPk()).status());
  auto setup = fix.tm->Begin();
  ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                           Row({Value::Int(1), Value::Str("a")}))
                .status());
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto writer = fix.tm->Begin(IsolationLevel::kReadCommitted);
  ASSERT_OK_AND_ASSIGN(auto locked,
                       fix.tm->LockRowsForWrite(writer.get(), "T", {0},
                                                Row({Value::Int(1)})));
  ASSERT_EQ(locked.size(), 1u);
  ASSERT_OK(fix.tm->Update(writer.get(), "T", locked[0].first,
                           Row({Value::Int(1), Value::Str("dirty")})));
  // Same-transaction read of the written key (early release path).
  ASSERT_OK(DrainPlan(fix.tm.get(), writer.get(), "T",
                      AccessPlan::Lookup({0}, Row({Value::Int(1)})),
                      [](RowId, const Row&) { return true; }));
  // Another transaction's indexed read of key 1 must still block.
  auto reader = fix.tm->Begin(IsolationLevel::kSerializable);
  Status blocked = DrainPlan(fix.tm.get(), reader.get(), "T",
                             AccessPlan::Lookup({0}, Row({Value::Int(1)})),
                             [](RowId, const Row&) { return true; });
  EXPECT_FALSE(blocked.ok());
  ASSERT_OK(fix.tm->Commit(writer.get()));
  std::vector<Row> seen;
  ASSERT_OK(DrainPlan(fix.tm.get(), reader.get(), "T",
                      AccessPlan::Lookup({0}, Row({Value::Int(1)})),
                      [&](RowId, const Row& row) {
                        seen.push_back(row);
                        return true;
                      }));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0][1], Value::Str("dirty"));
  ASSERT_OK(fix.tm->Commit(reader.get()));
}

TEST(TxnIndexTest, ConcurrentIndexedReadersAndWritersStayConsistent) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVWithPk()).status());
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&fix, &failures, w] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        int64_t key = w * kOpsPerThread + i;
        auto txn = fix.tm->Begin();
        auto rid = fix.tm->Insert(txn.get(), "T",
                                  Row({Value::Int(key), Value::Str("v")}));
        if (!rid.ok()) {
          (void)fix.tm->Abort(txn.get());
          ++failures;
          continue;
        }
        if (i % 4 == 0) {
          (void)fix.tm->Abort(txn.get());  // aborted inserts must vanish
          continue;
        }
        if (fix.tm->Commit(txn.get()).ok()) {
          auto check = fix.tm->Begin();
          size_t found = 0;
          Status s = DrainPlan(fix.tm.get(), check.get(), "T",
                               AccessPlan::Lookup({0}, Row({Value::Int(key)})),
                               [&](RowId, const Row&) {
                                 ++found;
                                 return true;
                               });
          if (!s.ok() || found != 1) ++failures;
          (void)fix.tm->Commit(check.get());
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Aborted keys left no index entries behind.
  Table* table = fix.db.GetTable("T").value();
  size_t live = 0;
  table->Scan([&](RowId rid, const Row& row) {
    auto hit = LookupRids(*table, {0}, Row({row[0]}));
    EXPECT_EQ(hit.value(), std::vector<RowId>{rid});
    ++live;
    return true;
  });
  // Each thread aborts the i%4==0 iterations: ceil(kOpsPerThread/4) keys.
  const size_t aborted_per_thread = (kOpsPerThread + 3) / 4;
  EXPECT_EQ(live, static_cast<size_t>(kThreads) *
                      (kOpsPerThread - aborted_per_thread));
  EXPECT_EQ(table->size(), live);
}

class WalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ = ::testing::TempDir() + "yt_wal_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(wal_path_.c_str());
  }
  void TearDown() override { std::remove(wal_path_.c_str()); }

  std::string wal_path_;
};

TEST_F(WalRecoveryTest, CommittedTransactionsSurviveCrash) {
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(wal_path_, {}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("T", KV()).status());
    auto t1 = tm.Begin();
    ASSERT_OK(tm.Insert(t1.get(), "T", Row({Value::Int(1), Value::Str("a")}))
                  .status());
    ASSERT_OK(tm.Commit(t1.get()));
    auto t2 = tm.Begin();  // in flight at crash
    ASSERT_OK(tm.Insert(t2.get(), "T", Row({Value::Int(2), Value::Str("b")}))
                  .status());
    ASSERT_OK(wal.Flush());
    // "Crash": drop everything without committing t2.
  }
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result r,
                       RecoveryManager::Recover(wal_path_));
  EXPECT_EQ(r.committed.size(), 1u);
  EXPECT_EQ(r.discarded.size(), 1u);
  Table* t = r.db->GetTable("T").value();
  EXPECT_EQ(t->size(), 1u);
  EXPECT_EQ(t->Get(1, ReadView::Latest()).value()[1], Value::Str("a"));
}

TEST_F(WalRecoveryTest, IndexesSurviveCrash) {
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(wal_path_, {}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("T", KVWithPk()).status());
    ASSERT_OK(tm.CreateIndex("T", {"v"}));
    auto t1 = tm.Begin();
    ASSERT_OK(tm.Insert(t1.get(), "T", Row({Value::Int(1), Value::Str("a")}))
                  .status());
    ASSERT_OK(tm.Commit(t1.get()));
  }
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result r,
                       RecoveryManager::Recover(wal_path_));
  Table* t = r.db->GetTable("T").value();
  // PK index rebuilt from the schema, secondary index from its WAL record.
  EXPECT_TRUE(t->HasIndexOn({0}));
  EXPECT_TRUE(t->HasIndexOn({1}));
  EXPECT_EQ(LookupRids(*t, {1}, Row({Value::Str("a")})).value().size(), 1u);
  EXPECT_FALSE(t->Insert(Row({Value::Int(1), Value::Str("dup")})).ok());
}

TEST_F(WalRecoveryTest, OrderedAndUniqueIndexFlagsSurviveCrash) {
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(wal_path_, {}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("T", KVOrderedPk()).status());
    ASSERT_OK(tm.CreateIndex("T", {"v"}, /*unique=*/true, /*ordered=*/true));
    auto t1 = tm.Begin();
    for (int64_t k : {3, 1, 2}) {
      ASSERT_OK(tm.Insert(t1.get(), "T",
                          Row({Value::Int(k),
                               Value::Str("v" + std::to_string(k))}))
                    .status());
    }
    ASSERT_OK(tm.Commit(t1.get()));
  }
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result r,
                       RecoveryManager::Recover(wal_path_));
  Table* t = r.db->GetTable("T").value();
  std::vector<IndexInfo> infos = t->IndexInfos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_TRUE(infos[0].ordered);  // PK: USING ORDERED came through the
  EXPECT_TRUE(infos[0].unique);   // schema in the CREATE_TABLE record
  EXPECT_TRUE(infos[1].ordered);  // secondary: flags from the aux encoding
  EXPECT_TRUE(infos[1].unique);
  // Range access works on the recovered PK tree, in key order.
  ASSERT_OK_AND_ASSIGN(std::vector<RowId> rids,
                       RangeRids(*t, IntRangeSpec(1, 2)));
  std::vector<int64_t> keys;
  for (RowId rid : rids) {
    keys.push_back(t->Get(rid, ReadView::Latest()).value()[0].as_int());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2}));
  // The recovered secondary is still unique.
  EXPECT_FALSE(t->Insert(Row({Value::Int(9), Value::Str("v1")})).ok());
}

TEST_F(WalRecoveryTest, GroupCommitMakesWholeGroupDurable) {
  TxnId ida, idb;
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(wal_path_, {}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("T", KV()).status());
    auto a = tm.Begin();
    auto b = tm.Begin();
    ida = a->id();
    idb = b->id();
    ASSERT_OK(tm.Insert(a.get(), "T", Row({Value::Int(1), Value::Str("a")}))
                  .status());
    ASSERT_OK(tm.Insert(b.get(), "T", Row({Value::Int(2), Value::Str("b")}))
                  .status());
    ASSERT_OK(tm.LogEntangle(1, {a.get(), b.get()}));
    ASSERT_OK(tm.CommitGroup({a.get(), b.get()}));
  }
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result r,
                       RecoveryManager::Recover(wal_path_));
  EXPECT_TRUE(r.committed.count(ida));
  EXPECT_TRUE(r.committed.count(idb));
  EXPECT_EQ(r.db->GetTable("T").value()->size(), 2u);
}

TEST_F(WalRecoveryTest, AbortedTransactionLeavesNoTrace) {
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(wal_path_, {}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("T", KV()).status());
    auto t = tm.Begin();
    ASSERT_OK(tm.Insert(t.get(), "T", Row({Value::Int(1), Value::Str("x")}))
                  .status());
    ASSERT_OK(tm.Abort(t.get()));
    ASSERT_OK(wal.Flush());
  }
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result r,
                       RecoveryManager::Recover(wal_path_));
  EXPECT_EQ(r.db->GetTable("T").value()->size(), 0u);
}

TEST_F(WalRecoveryTest, TornTailIsToleratedNotFatal) {
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(wal_path_, {}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("T", KV()).status());
    auto t = tm.Begin();
    ASSERT_OK(tm.Insert(t.get(), "T", Row({Value::Int(1), Value::Str("a")}))
                  .status());
    ASSERT_OK(tm.Commit(t.get()));
  }
  // Append garbage: a torn final record.
  std::FILE* f = std::fopen(wal_path_.c_str(), "ab");
  const char garbage[] = "\x20\x00\x00\x00partialrecord";
  std::fwrite(garbage, 1, sizeof(garbage) - 1, f);
  std::fclose(f);
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result r,
                       RecoveryManager::Recover(wal_path_));
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.db->GetTable("T").value()->size(), 1u);
}

TEST_F(WalRecoveryTest, UnreadableLogIsAnIOErrorNotAFreshDatabase) {
  // Only a missing log means a fresh database.
  ASSERT_OK_AND_ASSIGN(WalReader::Result fresh, WalReader::ReadAll(wal_path_));
  EXPECT_TRUE(fresh.records.empty());
  // A log path that opens but cannot be read (here a directory) must fail
  // recovery rather than come back as an empty database.
  ASSERT_TRUE(std::filesystem::create_directory(wal_path_));
  auto read = WalReader::ReadAll(wal_path_);
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  auto r = RecoveryManager::Recover(wal_path_);
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(std::filesystem::is_directory(wal_path_));
}

TEST_F(WalRecoveryTest, CheckpointTruncatesLogAndRecovers) {
  std::string ckpt = wal_path_ + ".ckpt";
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(wal_path_, {}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("T", KV()).status());
    for (int i = 0; i < 20; ++i) {
      auto t = tm.Begin();
      ASSERT_OK(tm.Insert(t.get(), "T",
                          Row({Value::Int(i), Value::Str("v")}))
                    .status());
      ASSERT_OK(tm.Commit(t.get()));
    }
    ASSERT_OK(tm.Checkpoint(ckpt));
    // Post-checkpoint traffic.
    auto t = tm.Begin();
    ASSERT_OK(tm.Insert(t.get(), "T", Row({Value::Int(99), Value::Str("z")}))
                  .status());
    ASSERT_OK(tm.Commit(t.get()));
  }
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result r,
                       RecoveryManager::Recover(wal_path_));
  EXPECT_EQ(r.db->GetTable("T").value()->size(), 21u);
  std::remove(ckpt.c_str());
}

TEST(WalRecordTest, EncodeDecodeRoundTripAllTypes) {
  std::vector<WalRecord> records;
  records.push_back(WalRecord::Begin(7));
  records.push_back(WalRecord::Insert(7, "T", 3,
                                      Row({Value::Int(1), Value::Str("a")})));
  records.push_back(WalRecord::Update(7, "T", 3, Row({Value::Int(1)}),
                                      Row({Value::Int(2)})));
  records.push_back(WalRecord::Delete(7, "T", 3, Row({Value::Int(2)})));
  records.push_back(WalRecord::Commit(7));
  records.push_back(WalRecord::Abort(8));
  records.push_back(WalRecord::GroupCommit(2, {7, 8}));
  records.push_back(WalRecord::Prepare(7, 9));
  records.push_back(WalRecord::CommitDecision(0, 9));
  records.push_back(
      WalRecord::CreateTable("T", Schema({{"k", TypeId::kInt64}})));
  records.push_back(WalRecord::CreateIndex("T", {"k", "v"}));
  records.push_back(WalRecord::CheckpointRef("/tmp/x.ckpt", 42));
  uint64_t lsn = 1;
  for (WalRecord& r : records) {
    r.lsn = lsn++;
    std::string buf;
    r.EncodeTo(&buf);
    ASSERT_OK_AND_ASSIGN(WalRecord back, WalRecord::Decode(buf));
    EXPECT_EQ(back.type, r.type);
    EXPECT_EQ(back.lsn, r.lsn);
    EXPECT_EQ(back.txn, r.txn);
    EXPECT_EQ(back.table, r.table);
    EXPECT_EQ(back.row_id, r.row_id);
    EXPECT_EQ(back.group, r.group);
    EXPECT_EQ(back.members, r.members);
    EXPECT_EQ(back.aux, r.aux);
  }
  // The type byte follows the 8-byte LSN; one past the last kind is
  // corruption.
  std::string buf;
  WalRecord::Commit(7).EncodeTo(&buf);
  buf[8] = static_cast<char>(
      static_cast<uint8_t>(WalRecordType::kCommitDecision) + 1);
  EXPECT_FALSE(WalRecord::Decode(buf).ok());
}

// --- Heap scans: every pull method agrees at locking and snapshot levels,
// --- read-committed early release, and the differential guarantee under
// --- concurrent writers.

RowSet HeapSnapshot(Table* t) {
  RowSet out;
  t->Scan([&](RowId rid, const Row& row) {
    out.emplace_back(rid, row);
    return true;
  });
  return out;
}

RowSet DrainCursor(TableCursor* cursor) {
  RowSet out;
  EXPECT_OK(cursor->Drain([&](RowId rid, const Row& row) {
    out.emplace_back(rid, std::move(row));
    return true;
  }));
  return out;
}

RowSet Sorted(RowSet rows) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return rows;
}

TEST(HeapScanTest, ReadUncommittedScanSeesHeap) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("v")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));
  Table* table = fix.db.GetTable("T").value();
  const RowSet reference = HeapSnapshot(table);

  // kReadUncommitted takes no table S lock and reads the latest versions.
  auto ru = fix.tm->Begin(IsolationLevel::kReadUncommitted);
  ASSERT_OK_AND_ASSIGN(auto ru_cursor,
                       fix.tm->OpenCursor(ru.get(), table,
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  EXPECT_FALSE(fix.locks.Holds(ru->id(), LockKey::Table(table->id()),
                               LockMode::kS));
  EXPECT_EQ(DrainCursor(ru_cursor.get()), reference);
  ru_cursor.reset();
  ASSERT_OK(fix.tm->Commit(ru.get()));
}

TEST(HeapScanTest, ClosingSiblingCursorKeepsReadCommittedLocks) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("v")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));
  Table* table = fix.db.GetTable("T").value();
  const RowSet reference = HeapSnapshot(table);

  // kReadCommitted on the locking path (snapshot reads disabled): a
  // cursor's close performs early lock release — but S locks merge per
  // (txn, key), so closing one cursor must not strip the table S an
  // overlapping sibling cursor of the same transaction still scans under.
  fix.tm->set_mvcc_reads_enabled(false);
  auto txn = fix.tm->Begin(IsolationLevel::kReadCommitted);
  ASSERT_OK_AND_ASSIGN(auto c1,
                       fix.tm->OpenCursor(txn.get(), table,
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  {
    ASSERT_OK_AND_ASSIGN(auto c2,
                         fix.tm->OpenCursor(txn.get(), table,
                                            AccessPlan::TableScan(),
                                            ReadOrigin::kStatement));
    EXPECT_EQ(Sorted(DrainCursor(c2.get())), reference);
  }  // c2 closes while c1 is still open
  EXPECT_TRUE(fix.locks.Holds(txn->id(), LockKey::Table(table->id()),
                              LockMode::kS));
  EXPECT_EQ(Sorted(DrainCursor(c1.get())), reference);
  c1.reset();  // last cursor out: now the early release happens
  EXPECT_FALSE(fix.locks.Holds(txn->id(), LockKey::Table(table->id()),
                               LockMode::kS));
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

TEST(HeapScanTest, DifferentialUnderConcurrentWritersAndMixedIsolation) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("base")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));
  Table* table = fix.db.GetTable("T").value();

  constexpr int kWriters = 2;
  constexpr int kWriterTxns = 40;
  constexpr int kReaders = 3;
  constexpr int kReaderIters = 20;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<RowId> mine;
      for (int i = 0; i < kWriterTxns && !stop.load(); ++i) {
        auto txn = fix.tm->Begin(IsolationLevel::kSerializable);
        int64_t key = 1000 + w * kWriterTxns + i;
        auto rid = fix.tm->Insert(txn.get(), "T",
                                  Row({Value::Int(key), Value::Str("w")}));
        bool ok = rid.ok();
        if (ok && !mine.empty() && i % 3 == 0) {
          ok = fix.tm
                   ->Update(txn.get(), "T", mine[mine.size() / 2],
                            Row({Value::Int(key), Value::Str("upd")}))
                   .ok();
        }
        if (ok && mine.size() > 4 && i % 5 == 0) {
          ok = fix.tm->Delete(txn.get(), "T", mine.front()).ok();
          if (ok) mine.erase(mine.begin());
        }
        if (!ok || i % 7 == 0) {
          if (!fix.tm->Abort(txn.get()).ok()) ++failures;
          continue;
        }
        if (fix.tm->Commit(txn.get()).ok()) {
          mine.push_back(rid.value());
        }
      }
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      constexpr IsolationLevel kLevels[] = {
          IsolationLevel::kFullEntangled, IsolationLevel::kSerializable,
          IsolationLevel::kReadCommitted, IsolationLevel::kReadUncommitted};
      for (int i = 0; i < kReaderIters; ++i) {
        IsolationLevel level = kLevels[(r + i) % 4];
        auto txn = fix.tm->Begin(level);
        RowSet scanned;
        Status s = DrainPlan(fix.tm.get(), txn.get(), "T",
                             AccessPlan::TableScan(),
                             [&](RowId rid, const Row& row) {
                               scanned.emplace_back(rid, row);
                               return true;
                             });
        if (!s.ok()) {
          ++failures;
          (void)fix.tm->Abort(txn.get());
          continue;
        }
        // Internal consistency at every level: schema-shaped rows in
        // strictly ascending RowId order.
        for (size_t j = 0; j < scanned.size(); ++j) {
          if (scanned[j].second.size() != 2 ||
              (j > 0 && scanned[j].first <= scanned[j - 1].first)) {
            ++failures;
            break;
          }
        }
        if (HoldsReadLocks(level)) {
          // The table S lock is still held: a direct walk of the heap reads
          // the same serialization point and must match the cursor scan.
          if (scanned != HeapSnapshot(table)) ++failures;
        }
        if (!fix.tm->Commit(txn.get()).ok()) ++failures;
      }
    });
  }

  for (auto& th : threads) th.join();
  stop.store(true);
  EXPECT_EQ(failures.load(), 0);
}

// --- The drain-exhaustion contract (cursor.h): draining a cursor to
// completion exhausts it; a second drain (or further pulls) must visit
// nothing and return Ok — never UB. The sharded MergedCursor materializes
// through full drains and depends on this.

TEST(CursorDrainTest, ScanCursorSecondDrainIsEmpty) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("x")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));

  for (IsolationLevel level :
       {IsolationLevel::kFullEntangled, IsolationLevel::kSnapshot}) {
    SCOPED_TRACE(IsolationLevelName(level));
    auto txn = fix.tm->Begin(level);
    // DrainRef first, then pulls on the drained cursor.
    ASSERT_OK_AND_ASSIGN(auto c1,
                         fix.tm->OpenCursor(txn.get(), "T",
                                            AccessPlan::TableScan(),
                                            ReadOrigin::kStatement));
    size_t first = 0, second = 0;
    ASSERT_OK(c1->DrainRef([&](RowId, const Row&) {
      ++first;
      return true;
    }));
    ASSERT_OK(c1->DrainRef([&](RowId, const Row&) {
      ++second;
      return true;
    }));
    EXPECT_EQ(first, 8u);
    EXPECT_EQ(second, 0u);
    RowId rid = 0;
    Row row;
    EXPECT_FALSE(c1->Next(&rid, &row).value());

    // Pull-then-drain: the generic loop hits the same contract.
    ASSERT_OK_AND_ASSIGN(auto c2,
                         fix.tm->OpenCursor(txn.get(), "T",
                                            AccessPlan::TableScan(),
                                            ReadOrigin::kStatement));
    ASSERT_TRUE(c2->Next(&rid, &row).value());
    size_t rest = 0;
    ASSERT_OK(c2->Drain([&](RowId, const Row&) {
      ++rest;
      return true;
    }));
    EXPECT_EQ(rest, 7u);
    ASSERT_OK(c2->Drain([&](RowId, const Row&) {
      ++rest;
      return true;
    }));
    EXPECT_EQ(rest, 7u);
    EXPECT_FALSE(c2->Next(&rid, &row).value());
    ASSERT_OK(fix.tm->Commit(txn.get()));
  }
}

TEST(CursorDrainTest, IndexAndRangeCursorsSecondDrainIsEmpty) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVOrderedPk()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("x")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto txn = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(
      auto lookup,
      fix.tm->OpenCursor(txn.get(), "T",
                         AccessPlan::Lookup({0}, Row({Value::Int(3)})),
                         ReadOrigin::kStatement));
  size_t hits = 0;
  ASSERT_OK(lookup->Drain([&](RowId, const Row&) {
    ++hits;
    return true;
  }));
  EXPECT_EQ(hits, 1u);
  ASSERT_OK(lookup->Drain([&](RowId, const Row&) {
    ++hits;
    return true;
  }));
  EXPECT_EQ(hits, 1u);

  ASSERT_OK_AND_ASSIGN(auto range,
                       fix.tm->OpenCursor(txn.get(), "T",
                                          AccessPlan::Range(IntRangeSpec(1, 4)),
                                          ReadOrigin::kStatement));
  size_t first = 0, second = 0;
  ASSERT_OK(range->DrainRef([&](RowId, const Row&) {
    ++first;
    return true;
  }));
  ASSERT_OK(range->DrainRef([&](RowId, const Row&) {
    ++second;
    return true;
  }));
  EXPECT_EQ(first, 4u);
  EXPECT_EQ(second, 0u);
  RowId rid = 0;
  Row row;
  EXPECT_FALSE(range->Next(&rid, &row).value());
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

// --- NextBatch: the one pull every cursor implements must return every row
// at any max_rows and honor the batch contract (a true return carries
// 1..max_rows rows; exhaustion is false + empty, repeatably).

TEST(BatchCursorTest, HeapScanBatchesMatchScalarPulls) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 700; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("v")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));
  Table* table = fix.db.GetTable("T").value();
  const RowSet reference = HeapSnapshot(table);

  auto txn = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       fix.tm->OpenCursor(txn.get(), table,
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  EXPECT_EQ(cursor->size_hint(), reference.size());
  RowSet batched = BatchDrain(cursor.get(), RowBatch::kDefaultRows);
  EXPECT_EQ(Sorted(std::move(batched)), reference);
  // Exhaustion is stable across further batched pulls.
  RowBatch again;
  EXPECT_FALSE(cursor->NextBatch(&again).value());
  EXPECT_TRUE(again.empty());
  cursor.reset();
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

TEST(BatchCursorTest, MaxRowsIsAHardCap) {
  // A max_rows below the chunk size splits the heap scan's materialized
  // 256-row chunks; one above it gets chunks whole. Every size returns the
  // whole heap, and BatchDrain checks every batch against the cap.
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("v")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));
  Table* table = fix.db.GetTable("T").value();
  const RowSet reference = HeapSnapshot(table);

  for (size_t max_rows : {size_t{1}, size_t{7}, size_t{1000}}) {
    auto txn = fix.tm->Begin();
    ASSERT_OK_AND_ASSIGN(auto cursor,
                         fix.tm->OpenCursor(txn.get(), table,
                                            AccessPlan::TableScan(),
                                            ReadOrigin::kStatement));
    EXPECT_EQ(Sorted(BatchDrain(cursor.get(), max_rows)), reference)
        << "max_rows=" << max_rows;
    cursor.reset();
    ASSERT_OK(fix.tm->Commit(txn.get()));
  }
}

TEST(BatchCursorTest, OverlappingScansBatchIdentically) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 600; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("v")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));
  Table* table = fix.db.GetTable("T").value();
  const RowSet reference = HeapSnapshot(table);

  // Two concurrently open scans of one table from different transactions,
  // drained in the reverse of their open order: each walks its own chunks
  // and must reproduce the heap exactly.
  auto t1 = fix.tm->Begin();
  auto t2 = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(auto first,
                       fix.tm->OpenCursor(t1.get(), table,
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  ASSERT_OK_AND_ASSIGN(auto second,
                       fix.tm->OpenCursor(t2.get(), table,
                                          AccessPlan::TableScan(),
                                          ReadOrigin::kStatement));
  EXPECT_EQ(Sorted(BatchDrain(second.get(), RowBatch::kDefaultRows)),
            reference);
  EXPECT_EQ(Sorted(BatchDrain(first.get(), RowBatch::kDefaultRows)), reference);
  first.reset();
  second.reset();
  ASSERT_OK(fix.tm->Commit(t1.get()));
  ASSERT_OK(fix.tm->Commit(t2.get()));
}

// The one heap-scan cursor serves locking and snapshot reads: every pull
// method must return the same rows, in RowId order, on both paths.
TEST(HeapScanTest, AllPullMethodsAgreeUnderLocksAndSnapshots) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KV()).status());
  ASSERT_OK(fix.tm->CreateIndex("T", {"k"}, /*unique=*/false,
                                /*ordered=*/true));
  auto setup = fix.tm->Begin();
  std::vector<RowId> rids;
  for (int i = 0; i < 900; ++i) {
    ASSERT_OK_AND_ASSIGN(RowId rid,
                         fix.tm->Insert(setup.get(), "T",
                                        Row({Value::Int(i), Value::Str("v")})));
    rids.push_back(rid);
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));
  // Updates scattered over the heap, plus a delete of 256 consecutive rows
  // (a whole chunk's worth of entries the snapshot below cannot see).
  auto writes = fix.tm->Begin();
  for (size_t i = 0; i < rids.size(); i += 7) {
    ASSERT_OK(fix.tm->Update(writes.get(), "T", rids[i],
                             Row({Value::Int(static_cast<int64_t>(i)),
                                  Value::Str("upd")})));
  }
  for (size_t i = 300; i < 300 + RowBatch::kDefaultRows; ++i) {
    ASSERT_OK(fix.tm->Delete(writes.get(), "T", rids[i]));
  }
  ASSERT_OK(fix.tm->Commit(writes.get()));
  Table* table = fix.db.GetTable("T").value();
  const RowSet at_snapshot = HeapSnapshot(table);
  ASSERT_EQ(at_snapshot.size(), rids.size() - RowBatch::kDefaultRows);

  // The snapshot is taken after those writes; a whole chunk of rows
  // inserted after it lands at the heap's tail, invisible to it. The same
  // commit moves row 1's indexed key 1 -> 7777, so the index holds an entry
  // stale at each view: key 1 for the latest rows, key 7777 for the
  // snapshot.
  auto snap = fix.tm->Begin(IsolationLevel::kSnapshot);
  auto late = fix.tm->Begin();
  for (size_t i = 0; i < RowBatch::kDefaultRows + 10; ++i) {
    ASSERT_OK(fix.tm->Insert(late.get(), "T",
                             Row({Value::Int(5000), Value::Str("late")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Update(late.get(), "T", rids[1],
                           Row({Value::Int(7777), Value::Str("moved")})));
  ASSERT_OK(fix.tm->Commit(late.get()));
  const RowSet latest = HeapSnapshot(table);
  ASSERT_EQ(latest.size(), at_snapshot.size() + RowBatch::kDefaultRows + 10);

  const auto methods = PullMethods();
  auto locking = fix.tm->Begin(IsolationLevel::kSerializable);
  for (const auto& [name, pull] : methods) {
    ASSERT_OK_AND_ASSIGN(auto locked,
                         fix.tm->OpenCursor(locking.get(), table,
                                            AccessPlan::TableScan(),
                                            ReadOrigin::kStatement));
    EXPECT_EQ(pull(locked.get()), latest) << "locking " << name;
    ASSERT_OK_AND_ASSIGN(auto snapshot,
                         fix.tm->OpenCursor(snap.get(), table,
                                            AccessPlan::TableScan(),
                                            ReadOrigin::kStatement));
    EXPECT_EQ(pull(snapshot.get()), at_snapshot) << "snapshot " << name;
  }
  EXPECT_TRUE(fix.locks.Holds(locking->id(), LockKey::Table(table->id()),
                              LockMode::kS));
  EXPECT_EQ(fix.locks.HeldCount(snap->id()), 0u);
  ASSERT_OK(fix.tm->Commit(locking.get()));

  // Index lookups and range reads, through every pull method: the latest
  // matching rows at kSerializable (row S held on each), the snapshot's
  // matching rows at kSnapshot (no locks). Stale index entries are
  // filtered on both paths.
  auto matching = [](const RowSet& rows, int64_t lo, int64_t hi) {
    RowSet out;
    for (const auto& [rid, row] : rows) {
      const int64_t k = row[0].as_int();
      if (k >= lo && k <= hi) out.emplace_back(rid, row);
    }
    // Key order, then RowId order within a key (`rows` is RowId-ordered).
    std::stable_sort(out.begin(), out.end(),
                     [](const auto& a, const auto& b) {
                       return a.second[0].as_int() < b.second[0].as_int();
                     });
    return out;
  };
  IndexRangeSpec everything;
  everything.columns = {0};
  const struct {
    const char* name;
    AccessPlan plan;
    int64_t lo, hi;
  } probes[] = {
      {"lookup of the moved-away key",
       AccessPlan::Lookup({0}, Row({Value::Int(1)})), 1, 1},
      {"lookup of the moved-to key",
       AccessPlan::Lookup({0}, Row({Value::Int(7777)})), 7777, 7777},
      {"lookup of the late key",
       AccessPlan::Lookup({0}, Row({Value::Int(5000)})), 5000, 5000},
      {"bounded range", AccessPlan::Range(IntRangeSpec(0, 400)), 0, 400},
      {"unbounded range", AccessPlan::Range(everything),
       std::numeric_limits<int64_t>::min(),
       std::numeric_limits<int64_t>::max()},
  };
  EXPECT_TRUE(matching(latest, 1, 1).empty());
  EXPECT_EQ(matching(at_snapshot, 1, 1).size(), 1u);
  EXPECT_EQ(matching(latest, 7777, 7777).size(), 1u);
  EXPECT_TRUE(matching(at_snapshot, 7777, 7777).empty());
  EXPECT_GT(matching(latest, 5000, 5000).size(), RowBatch::kDefaultRows);
  auto prober = fix.tm->Begin(IsolationLevel::kSerializable);
  for (const auto& probe : probes) {
    const RowSet want_latest = matching(latest, probe.lo, probe.hi);
    const RowSet want_snapshot = matching(at_snapshot, probe.lo, probe.hi);
    for (const auto& [name, pull] : methods) {
      ASSERT_OK_AND_ASSIGN(auto locked,
                           fix.tm->OpenCursor(prober.get(), table, probe.plan,
                                              ReadOrigin::kStatement));
      EXPECT_EQ(pull(locked.get()), want_latest)
          << "locking " << probe.name << " " << name;
      ASSERT_OK_AND_ASSIGN(auto snapshot,
                           fix.tm->OpenCursor(snap.get(), table, probe.plan,
                                              ReadOrigin::kStatement));
      EXPECT_EQ(pull(snapshot.get()), want_snapshot)
          << "snapshot " << probe.name << " " << name;
    }
    for (const auto& [rid, row] : want_latest) {
      EXPECT_TRUE(fix.locks.Holds(prober->id(),
                                  LockKey::RowOf(table->id(), rid),
                                  LockMode::kS))
          << probe.name << " row " << rid;
    }
  }
  EXPECT_EQ(fix.locks.HeldCount(snap->id()), 0u);
  EXPECT_EQ(fix.locks.HeldRangeCount(snap->id()), 0u);
  ASSERT_OK(fix.tm->Commit(prober.get()));
  ASSERT_OK(fix.tm->Commit(snap.get()));
}

TEST(LookupCursorTest, ReadCommittedCloseReleasesRowAndPredicateLocks) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVOrderedPk()).status());
  auto setup = fix.tm->Begin();
  std::vector<RowId> rids;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(RowId rid,
                         fix.tm->Insert(setup.get(), "T",
                                        Row({Value::Int(i), Value::Str("v")})));
    rids.push_back(rid);
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));
  Table* table = fix.db.GetTable("T").value();
  const LockKey table_lock = LockKey::Table(table->id());
  const RangeSpaceKey space{table->id(), Table::IndexColumnsHash({0})};
  auto key_lock = [&](int64_t k) {
    return LockKey::IndexKey(table->id(),
                             Table::IndexKeyHash({0}, Row({Value::Int(k)})));
  };
  auto row_lock = [&](int64_t k) {
    return LockKey::RowOf(table->id(), rids[k]);
  };
  auto keys_of = [](const RowSet& rows) {
    std::vector<int64_t> keys;
    for (const auto& [rid, row] : rows) keys.push_back(row[0].as_int());
    return keys;
  };

  // kReadCommitted on the locking path (snapshot reads disabled): a lookup
  // or range cursor holds row S on every row it pulled plus its predicate
  // lock (index key S, range S, or table S for a fully unbounded range)
  // while open, and its close releases them all.
  fix.tm->set_mvcc_reads_enabled(false);
  const IndexRangeSpec bounded = IntRangeSpec(2, 6);
  IndexRangeSpec unbounded;
  unbounded.columns = {0};
  auto reader = fix.tm->Begin(IsolationLevel::kReadCommitted);
  const TxnId id = reader->id();
  {
    ASSERT_OK_AND_ASSIGN(
        auto cursor,
        fix.tm->OpenCursor(reader.get(), table,
                           AccessPlan::Lookup({0}, Row({Value::Int(7)})),
                           ReadOrigin::kStatement));
    EXPECT_EQ(keys_of(DrainCursor(cursor.get())), std::vector<int64_t>{7});
    EXPECT_TRUE(fix.locks.Holds(id, row_lock(7), LockMode::kS));
    EXPECT_TRUE(fix.locks.Holds(id, key_lock(7), LockMode::kS));
  }
  EXPECT_FALSE(fix.locks.Holds(id, row_lock(7), LockMode::kS));
  EXPECT_FALSE(fix.locks.Holds(id, key_lock(7), LockMode::kS));
  {
    ASSERT_OK_AND_ASSIGN(auto cursor,
                         fix.tm->OpenCursor(reader.get(), table,
                                            AccessPlan::Range(bounded),
                                            ReadOrigin::kStatement));
    EXPECT_EQ(keys_of(DrainCursor(cursor.get())),
              (std::vector<int64_t>{2, 3, 4, 5, 6}));
    for (int64_t k = 2; k <= 6; ++k) {
      EXPECT_TRUE(fix.locks.Holds(id, row_lock(k), LockMode::kS)) << k;
    }
    EXPECT_TRUE(fix.locks.HoldsRange(id, space, bounded.range, LockMode::kS));
  }
  for (int64_t k = 2; k <= 6; ++k) {
    EXPECT_FALSE(fix.locks.Holds(id, row_lock(k), LockMode::kS)) << k;
  }
  EXPECT_FALSE(fix.locks.HoldsRange(id, space, bounded.range, LockMode::kS));
  EXPECT_EQ(fix.locks.HeldRangeCount(id), 0u);
  {
    ASSERT_OK_AND_ASSIGN(auto cursor,
                         fix.tm->OpenCursor(reader.get(), table,
                                            AccessPlan::Range(unbounded),
                                            ReadOrigin::kStatement));
    EXPECT_EQ(keys_of(DrainCursor(cursor.get())).size(), rids.size());
    for (int64_t k = 0; k < 10; ++k) {
      EXPECT_TRUE(fix.locks.Holds(id, row_lock(k), LockMode::kS)) << k;
    }
    EXPECT_TRUE(fix.locks.Holds(id, table_lock, LockMode::kS));
  }
  for (int64_t k = 0; k < 10; ++k) {
    EXPECT_FALSE(fix.locks.Holds(id, row_lock(k), LockMode::kS)) << k;
  }
  EXPECT_FALSE(fix.locks.Holds(id, table_lock, LockMode::kS));
  ASSERT_OK(fix.tm->Commit(reader.get()));

  // A transaction reading keys it wrote itself: the close releases the
  // other rows' S and the range S, but the row X, key X and key-range X
  // protecting its own uncommitted write survive to commit.
  auto writer = fix.tm->Begin(IsolationLevel::kReadCommitted);
  const TxnId wid = writer->id();
  ASSERT_OK(fix.tm->Update(writer.get(), "T", rids[4],
                           Row({Value::Int(4), Value::Str("mine")})));
  const AccessPlan reads[] = {AccessPlan::Lookup({0}, Row({Value::Int(4)})),
                              AccessPlan::Range(bounded)};
  for (const AccessPlan& plan : reads) {
    SCOPED_TRACE(plan.ToString());
    {
      ASSERT_OK_AND_ASSIGN(auto cursor,
                           fix.tm->OpenCursor(writer.get(), table, plan,
                                              ReadOrigin::kStatement));
      for (const auto& [rid, row] : DrainCursor(cursor.get())) {
        EXPECT_EQ(row[1], Value::Str(rid == rids[4] ? "mine" : "v"));
      }
    }
    for (int64_t k = 2; k <= 6; ++k) {
      EXPECT_EQ(fix.locks.Holds(wid, row_lock(k), LockMode::kS), k == 4) << k;
    }
    EXPECT_FALSE(fix.locks.HoldsRange(wid, space, bounded.range,
                                      LockMode::kS));
    EXPECT_TRUE(fix.locks.Holds(wid, row_lock(4), LockMode::kX));
    EXPECT_TRUE(fix.locks.Holds(wid, key_lock(4), LockMode::kX));
    EXPECT_TRUE(fix.locks.HoldsRange(
        wid, space, IndexRange::Point(Row({Value::Int(4)})), LockMode::kX));
  }
  ASSERT_OK(fix.tm->Commit(writer.get()));
}

TEST(BatchCursorTest, FetchedRowCursorsBatchWithSizeHints) {
  EngineFixture fix;
  ASSERT_OK(fix.tm->CreateTable("T", KVOrderedPk()).status());
  auto setup = fix.tm->Begin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(fix.tm->Insert(setup.get(), "T",
                             Row({Value::Int(i), Value::Str("x")}))
                  .status());
  }
  ASSERT_OK(fix.tm->Commit(setup.get()));

  auto txn = fix.tm->Begin();
  ASSERT_OK_AND_ASSIGN(
      auto lookup,
      fix.tm->OpenCursor(txn.get(), "T",
                         AccessPlan::Lookup({0}, Row({Value::Int(7)})),
                         ReadOrigin::kStatement));
  EXPECT_EQ(lookup->size_hint(), 1u);
  RowSet hit = BatchDrain(lookup.get(), RowBatch::kDefaultRows);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].second[0], Value::Int(7));

  ASSERT_OK_AND_ASSIGN(
      auto range,
      fix.tm->OpenCursor(txn.get(), "T",
                         AccessPlan::Range(IntRangeSpec(5, 14)),
                         ReadOrigin::kStatement));
  EXPECT_EQ(range->size_hint(), 10u);
  RowSet ranged = BatchDrain(range.get(), 4);
  ASSERT_EQ(ranged.size(), 10u);
  for (size_t i = 0; i < ranged.size(); ++i) {
    EXPECT_EQ(ranged[i].second[0], Value::Int(static_cast<int64_t>(i) + 5));
  }
  ASSERT_OK(fix.tm->Commit(txn.get()));
}

}  // namespace
}  // namespace youtopia
