// WAL group commit: ticket/leader protocol, pacing, park-work, the
// read-only flush skip, fault-site coverage, and the durability contract —
// an acked commit survives a crash latch dropped immediately after the ack.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/shard/router.h"
#include "src/sql/session.h"
#include "src/txn/transaction_manager.h"
#include "src/wal/group_commit.h"
#include "src/wal/recovery.h"
#include "src/wal/wal_reader.h"
#include "src/wal/wal_writer.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using shard::Router;

Schema AcctSchema() {
  Schema s({{"id", TypeId::kInt64}, {"bal", TypeId::kInt64}});
  s.set_primary_key({0});
  return s;
}

std::vector<Row> AllRows(Router* r, const std::string& table) {
  std::vector<Row> rows;
  for (size_t s = 0; s < r->num_shards(); ++s) {
    Table* t = r->shard_db(s)->GetTable(table).value();
    t->Scan([&](RowId, const Row& row) {
      rows.push_back(row);
      return true;
    });
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::pair<int64_t, int64_t> CrossShardPair(Router* r, int64_t base) {
  size_t home = r->shard_map().ShardOfKey(Row({Value::Int(base)}));
  for (int64_t k = base + 1;; ++k) {
    if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) != home) {
      return {base, k};
    }
  }
}

/// `n` keys that all hash to the shard of key 1.
std::vector<int64_t> SameShardKeys(Router* r, size_t n) {
  size_t home = r->shard_map().ShardOfKey(Row({Value::Int(1)}));
  std::vector<int64_t> keys;
  for (int64_t k = 1; keys.size() < n; ++k) {
    if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) == home) {
      keys.push_back(k);
    }
  }
  return keys;
}

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global()->Reset();
    dir_ = ::testing::TempDir() + "yt_gc_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global()->Reset();
    std::filesystem::remove_all(dir_);
  }

  Router::Options DurableOptions(size_t shards = 4) {
    Router::Options opts;
    opts.num_shards = shards;
    opts.dir = dir_ + "/router";
    return opts;
  }

  std::string dir_;
};

// --- Queue-level protocol. ------------------------------------------------

TEST_F(GroupCommitTest, PacedLeaderCoversConcurrentAppendsWithOneFlush) {
  WalWriter wal;
  ASSERT_OK(wal.Open(dir_ + "/wal.log", WalWriter::Options{},
                     /*truncate=*/true));
  GroupCommitQueue* q = wal.group_commit();
  q->set_max_batch_delay_micros(500'000);  // generous: never flaky, only slow
  q->set_max_batch_size(4);

  // All four append BEFORE anyone waits, so the elected leader's one flush
  // must cover every ticket (pacing holds it until all 4 are queued).
  constexpr int kThreads = 4;
  std::vector<uint64_t> lsns(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_OK_AND_ASSIGN(lsns[i], wal.Append(WalRecord::Commit(i + 1)));
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      if (!wal.SyncToLsn(lsns[i]).ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(q->batches(), 1u);
  EXPECT_EQ(q->waits(), 4u);

  ASSERT_OK(wal.Close());
  ASSERT_OK_AND_ASSIGN(WalReader::Result log,
                       WalReader::ReadAll(dir_ + "/wal.log"));
  EXPECT_EQ(log.records.size(), 4u);
}

TEST_F(GroupCommitTest, ManyCommittersAllDurableFlushesShared) {
  WalWriter wal;
  ASSERT_OK(wal.Open(dir_ + "/wal.log", WalWriter::Options{},
                     /*truncate=*/true));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TxnId id = static_cast<TxnId>(t * kPerThread + i + 1);
        if (!wal.AppendAndFlush(WalRecord::Commit(id)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  GroupCommitQueue* q = wal.group_commit();
  EXPECT_EQ(q->waits(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LE(q->batches(), q->waits());
  ASSERT_OK(wal.Close());
  ASSERT_OK_AND_ASSIGN(WalReader::Result log,
                       WalReader::ReadAll(dir_ + "/wal.log"));
  EXPECT_EQ(log.records.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(GroupCommitTest, FollowerRunsParkWorkInsteadOfSleeping) {
  WalWriter wal;
  ASSERT_OK(wal.Open(dir_ + "/wal.log", WalWriter::Options{},
                     /*truncate=*/true));
  GroupCommitQueue* q = wal.group_commit();
  q->set_max_batch_delay_micros(300'000);
  q->set_max_batch_size(1000);  // only the delay ends the leader's pacing

  ASSERT_OK_AND_ASSIGN(uint64_t lsn1, wal.Append(WalRecord::Commit(1)));
  std::thread leader([&] { ASSERT_OK(wal.SyncToLsn(lsn1)); });
  // Give the leader time to take leadership and start pacing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<uint64_t> park_calls{0};
  std::thread follower([&] {
    std::function<bool()> park = [&] {
      park_calls.fetch_add(1);
      return false;  // "no ready work": the follower falls back to waiting
    };
    GroupCommitQueue::SetThreadParkWork(&park);
    auto lsn2 = wal.Append(WalRecord::Commit(2));
    ASSERT_OK(lsn2.status());
    ASSERT_OK(wal.SyncToLsn(lsn2.value()));
    GroupCommitQueue::SetThreadParkWork(nullptr);
  });
  leader.join();
  follower.join();
  // The follower was blocked behind the pacing leader and offered its
  // cycles to the park hook instead of only sleeping.
  EXPECT_GE(park_calls.load(), 1u);
}

// --- Fault site + failure semantics. --------------------------------------

TEST_F(GroupCommitTest, GroupFlushFaultFailsCommitAndEscalatesToCrash) {
  FaultInjector* fi = FaultInjector::Global();
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(dir_ + "/wal.log", WalWriter::Options{},
                       /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("acct", AcctSchema()).status());

    FaultInjector::SiteConfig err;
    err.action = FaultInjector::Action::kError;
    err.nth = 1;
    fi->Arm("wal.group_flush", err);
    auto txn = tm.Begin();
    ASSERT_OK(
        tm.Insert(txn.get(), "acct", Row({Value::Int(1), Value::Int(10)}))
            .status());
    // The batch flush covering the commit record fails: the commit must NOT
    // be acked, and the engine must stop cold (ambiguous durability).
    EXPECT_FALSE(tm.Commit(txn.get()).ok());
    EXPECT_TRUE(fi->crashed());
    EXPECT_EQ(fi->FireCount("wal.group_flush"), 1u);
  }
  fi->Reset();

  // An entangled pair on one TransactionManager: the flush that fails is
  // the GROUP_COMMIT's. The group record may already sit in the log
  // buffer, so the failure must stop cold exactly like a plain COMMIT's —
  // otherwise the next commit's flush carries the group to the device
  // behind the client's back.
  const std::string pair_wal = dir_ + "/pair.log";
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(pair_wal, WalWriter::Options{}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("acct", AcctSchema()).status());
    auto a = tm.Begin();
    auto b = tm.Begin();
    auto later = tm.Begin();
    ASSERT_OK(tm.Insert(a.get(), "acct", Row({Value::Int(1), Value::Int(10)}))
                  .status());
    ASSERT_OK(tm.Insert(b.get(), "acct", Row({Value::Int(2), Value::Int(20)}))
                  .status());
    ASSERT_OK(
        tm.Insert(later.get(), "acct", Row({Value::Int(3), Value::Int(30)}))
            .status());
    ASSERT_OK(tm.LogEntangle(1, {a.get(), b.get()}));

    FaultInjector::SiteConfig err;
    err.action = FaultInjector::Action::kError;
    err.nth = 1;
    fi->Arm("wal.group_flush", err);
    EXPECT_FALSE(tm.CommitGroup({a.get(), b.get()}).ok());
    EXPECT_TRUE(fi->crashed());
    EXPECT_EQ(fi->FireCount("wal.group_flush"), 1u);
    EXPECT_FALSE(tm.Commit(later.get()).ok());
  }
  fi->Reset();
  {
    ASSERT_OK_AND_ASSIGN(RecoveryManager::Result rec,
                         RecoveryManager::Recover(pair_wal));
    Table* t = rec.db->GetTable("acct").value();
    std::vector<int64_t> ids;
    t->Scan([&](RowId, const Row& row) {
      ids.push_back(row[0].as_int());
      return true;
    });
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(ids.empty() || ids == std::vector<int64_t>({1, 2}))
        << "recovered " << ids.size() << " rows";
  }

  // The same group on a 4-shard Router with every write on one shard: the
  // one-phase path commits it through that shard's ENTANGLE +
  // GROUP_COMMIT. A dry run counts the commit's group flushes, so the
  // fault lands on its last one, the GROUP_COMMIT's.
  uint64_t group_flushes = 0;
  std::vector<int64_t> keys;
  for (bool dry : {true, false}) {
    Router::Options opts = DurableOptions();
    if (dry) opts.dir = dir_ + "/dry";
    {
      ASSERT_OK_AND_ASSIGN(auto r, Router::Open(opts));
      ASSERT_OK(r->CreateTable("acct", AcctSchema()).status());
      keys = SameShardKeys(r.get(), 3);
      std::vector<std::unique_ptr<Transaction>> txns;
      for (int64_t k : keys) {
        txns.push_back(r->Begin());
        ASSERT_OK(r->Insert(txns.back().get(), "acct",
                            Row({Value::Int(k), Value::Int(k)}))
                      .status());
      }
      ASSERT_OK(r->LogEntangle(1, {txns[0].get(), txns[1].get()}));
      FaultInjector::SiteConfig cfg;
      cfg.action = FaultInjector::Action::kError;
      if (dry) {
        cfg.shots = 0;  // never fires; only counts hits
      } else {
        cfg.nth = group_flushes;
      }
      fi->Arm("wal.group_flush", cfg);
      Status st = r->CommitGroup({txns[0].get(), txns[1].get()});
      if (dry) {
        ASSERT_OK(st);
        group_flushes = fi->HitCount("wal.group_flush");
        ASSERT_GE(group_flushes, 1u);
      } else {
        EXPECT_FALSE(st.ok());
        EXPECT_TRUE(fi->crashed());
        EXPECT_EQ(fi->FireCount("wal.group_flush"), 1u);
        EXPECT_FALSE(r->Commit(txns[2].get()).ok());
      }
    }
    fi->Reset();
  }
  ASSERT_OK_AND_ASSIGN(auto r, Router::Recover(DurableOptions()));
  std::vector<Row> rows = AllRows(r.get(), "acct");
  std::vector<Row> group = {Row({Value::Int(keys[0]), Value::Int(keys[0])}),
                            Row({Value::Int(keys[1]), Value::Int(keys[1])})};
  std::sort(group.begin(), group.end());
  EXPECT_TRUE(rows.empty() || rows == group)
      << "recovered " << rows.size() << " rows";
}

TEST_F(GroupCommitTest, MemberCommitAppendFaultAbortsGroupWithoutCrash) {
  // The one failure before the deciding record that may still abort: a
  // member COMMIT append ahead of GROUP_COMMIT. Recovery ignores an
  // entangled member's COMMIT without its group record, so the first
  // member's COMMIT, already in the log, must not bring it back.
  FaultInjector* fi = FaultInjector::Global();
  const std::string path = dir_ + "/wal.log";
  {
    Database db;
    LockManager locks;
    WalWriter wal;
    ASSERT_OK(wal.Open(path, WalWriter::Options{}, /*truncate=*/true));
    TransactionManager tm(&db, &locks, &wal);
    ASSERT_OK(tm.CreateTable("acct", AcctSchema()).status());
    auto a = tm.Begin();
    auto b = tm.Begin();
    ASSERT_OK(tm.Insert(a.get(), "acct", Row({Value::Int(1), Value::Int(10)}))
                  .status());
    ASSERT_OK(tm.Insert(b.get(), "acct", Row({Value::Int(2), Value::Int(20)}))
                  .status());
    ASSERT_OK(tm.LogEntangle(1, {a.get(), b.get()}));

    FaultInjector::SiteConfig err;
    err.action = FaultInjector::Action::kError;
    err.nth = 2;  // the second member's COMMIT
    fi->Arm("wal.append", err);
    EXPECT_FALSE(tm.CommitGroup({a.get(), b.get()}).ok());
    EXPECT_EQ(fi->FireCount("wal.append"), 1u);
    EXPECT_FALSE(fi->crashed());
    EXPECT_EQ(a->state(), TxnState::kAborted);
    EXPECT_EQ(b->state(), TxnState::kAborted);
    EXPECT_EQ(db.GetTable("acct").value()->size(), 0u);
    fi->Reset();

    auto later = tm.Begin();
    ASSERT_OK(
        tm.Insert(later.get(), "acct", Row({Value::Int(3), Value::Int(30)}))
            .status());
    ASSERT_OK(tm.Commit(later.get()));
  }
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result rec,
                       RecoveryManager::Recover(path));
  Table* t = rec.db->GetTable("acct").value();
  std::vector<int64_t> ids;
  t->Scan([&](RowId, const Row& row) {
    ids.push_back(row[0].as_int());
    return true;
  });
  EXPECT_EQ(ids, std::vector<int64_t>({3}));
}

// --- Commit record shape (the wal_bytes_per_txn guard). --------------------

/// COMMIT records naming `id`, and GROUP_COMMIT records listing it (with
/// their member counts).
struct DecisionRecords {
  size_t commits = 0;
  std::vector<size_t> groups;
};

DecisionRecords DecisionsOf(const std::vector<WalRecord>& log, TxnId id) {
  DecisionRecords d;
  for (const WalRecord& rec : log) {
    if (rec.type == WalRecordType::kCommit && rec.txn == id) ++d.commits;
    if (rec.type == WalRecordType::kGroupCommit &&
        std::count(rec.members.begin(), rec.members.end(), id) > 0) {
      d.groups.push_back(rec.members.size());
    }
  }
  return d;
}

TEST_F(GroupCommitTest, EveryCommitWritesExactlyItsDecisionRecord) {
  const std::string path = dir_ + "/wal.log";
  Database db;
  LockManager locks;
  WalWriter wal;
  ASSERT_OK(wal.Open(path, WalWriter::Options{}, /*truncate=*/true));
  TransactionManager tm(&db, &locks, &wal);
  ASSERT_OK(tm.CreateTable("acct", AcctSchema()).status());
  auto insert = [&](Transaction* t, int64_t k) {
    return tm.Insert(t, "acct", Row({Value::Int(k), Value::Int(k)})).status();
  };
  auto group_commits = [&] { return tm.stats().group_commits.load(); };

  // A plain writing commit: one COMMIT, no group record, no group count.
  auto plain = tm.Begin();
  ASSERT_OK_AND_ASSIGN(
      RowId rid,
      tm.Insert(plain.get(), "acct", Row({Value::Int(1), Value::Int(1)})));
  ASSERT_OK(tm.Commit(plain.get()));
  EXPECT_EQ(group_commits(), 0u);

  // A read-only commit writes nothing at all, not even a flush.
  uint64_t flushes = tm.stats().wal_flushes.load();
  auto reader = tm.Begin();
  ASSERT_OK(tm.Get(reader.get(), "acct", rid).status());
  ASSERT_OK(tm.Commit(reader.get()));
  EXPECT_EQ(tm.stats().wal_flushes.load(), flushes);
  EXPECT_EQ(group_commits(), 0u);

  // An entangled group of one is decided by its group record.
  auto single = tm.Begin();
  ASSERT_OK(insert(single.get(), 2));
  ASSERT_OK(tm.LogEntangle(1, {single.get()}));
  ASSERT_OK(tm.Commit(single.get()));
  EXPECT_EQ(group_commits(), 1u);

  // A pair: one COMMIT per member, then one GROUP_COMMIT naming both.
  auto a = tm.Begin();
  auto b = tm.Begin();
  ASSERT_OK(insert(a.get(), 3));
  ASSERT_OK(insert(b.get(), 4));
  ASSERT_OK(tm.LogEntangle(2, {a.get(), b.get()}));
  ASSERT_OK(tm.CommitGroup({a.get(), b.get()}));
  EXPECT_EQ(group_commits(), 2u);

  // Several members count as a group even without an entanglement.
  auto c = tm.Begin();
  auto d = tm.Begin();
  ASSERT_OK(insert(c.get(), 5));
  ASSERT_OK(insert(d.get(), 6));
  ASSERT_OK(tm.CommitGroup({c.get(), d.get()}));
  EXPECT_EQ(group_commits(), 3u);
  EXPECT_EQ(tm.stats().commits.load(), 7u);

  ASSERT_OK(wal.Flush());
  ASSERT_OK_AND_ASSIGN(WalReader::Result log, WalReader::ReadAll(path));
  DecisionRecords d_plain = DecisionsOf(log.records, plain->id());
  EXPECT_EQ(d_plain.commits, 1u);
  EXPECT_TRUE(d_plain.groups.empty());
  for (const WalRecord& rec : log.records) {
    if (rec.txn == reader->id()) {
      EXPECT_EQ(rec.type, WalRecordType::kBegin);
    }
    if (rec.type == WalRecordType::kGroupCommit) {
      EXPECT_EQ(std::count(rec.members.begin(), rec.members.end(),
                           reader->id()),
                0);
    }
  }
  DecisionRecords d_single = DecisionsOf(log.records, single->id());
  EXPECT_EQ(d_single.commits, 1u);
  EXPECT_EQ(d_single.groups, std::vector<size_t>({1}));
  for (Transaction* t : {a.get(), b.get(), c.get(), d.get()}) {
    DecisionRecords dm = DecisionsOf(log.records, t->id());
    EXPECT_EQ(dm.commits, 1u) << "txn " << t->id();
    EXPECT_EQ(dm.groups, std::vector<size_t>({2})) << "txn " << t->id();
  }
  size_t group_records = 0;
  for (const WalRecord& rec : log.records) {
    group_records += rec.type == WalRecordType::kGroupCommit ? 1 : 0;
  }
  EXPECT_EQ(group_records, 3u);
}

TEST_F(GroupCommitTest, RouterCommitsCountGroupsAndUseTheFirstMemberAsGtid) {
  ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions()));
  ASSERT_OK(r->CreateTable("acct", AcctSchema()).status());
  auto group_commits = [&] { return r->stats().group_commits.load(); };
  auto decision_gtids = [&] {
    std::vector<GroupId> gtids;
    auto log = WalReader::ReadAll(r->coord_wal_path());
    EXPECT_OK(log.status());
    for (const WalRecord& rec : log.value().records) {
      if (rec.type == WalRecordType::kCommitDecision) {
        gtids.push_back(rec.group);
      }
    }
    return gtids;
  };

  // Plain commits, one-phase and 2PC, are groups of one: no group count,
  // and the 2PC decision carries the transaction's own id.
  std::vector<int64_t> same = SameShardKeys(r.get(), 2);
  auto one = r->Begin();
  ASSERT_OK(r->Insert(one.get(), "acct", Row({Value::Int(same[0]),
                                             Value::Int(0)}))
                .status());
  ASSERT_OK(r->Commit(one.get()));
  auto [k1, k2] = CrossShardPair(r.get(), 100);
  auto cross = r->Begin();
  ASSERT_OK(r->Insert(cross.get(), "acct", Row({Value::Int(k1), Value::Int(1)}))
                .status());
  ASSERT_OK(r->Insert(cross.get(), "acct", Row({Value::Int(k2), Value::Int(2)}))
                .status());
  ASSERT_OK(r->Commit(cross.get()));
  EXPECT_EQ(decision_gtids(), std::vector<GroupId>({cross->id()}));
  EXPECT_EQ(group_commits(), 0u);

  // An entangled group of one counts, and so does a cross-shard pair,
  // whose one decision names the first member.
  auto single = r->Begin();
  ASSERT_OK(r->Insert(single.get(), "acct",
                      Row({Value::Int(same[1]), Value::Int(3)}))
                .status());
  ASSERT_OK(r->LogEntangle(1, {single.get()}));
  ASSERT_OK(r->Commit(single.get()));
  EXPECT_EQ(group_commits(), 1u);

  auto [k3, k4] = CrossShardPair(r.get(), 200);
  auto a = r->Begin();
  auto b = r->Begin();
  ASSERT_OK(r->Insert(a.get(), "acct", Row({Value::Int(k3), Value::Int(4)}))
                .status());
  ASSERT_OK(r->Insert(b.get(), "acct", Row({Value::Int(k4), Value::Int(5)}))
                .status());
  ASSERT_OK(r->LogEntangle(2, {a.get(), b.get()}));
  ASSERT_OK(r->CommitGroup({a.get(), b.get()}));
  EXPECT_EQ(group_commits(), 2u);
  EXPECT_EQ(decision_gtids(), std::vector<GroupId>({cross->id(), a->id()}));
  EXPECT_EQ(r->stats().commits.load(), 5u);
}

// --- Read-only flush skip. ------------------------------------------------

TEST_F(GroupCommitTest, ReadOnlyCommitsFlushNothing) {
  Database db;
  LockManager locks;
  WalWriter wal;
  ASSERT_OK(wal.Open(dir_ + "/wal.log", WalWriter::Options{},
                     /*truncate=*/true));
  TransactionManager tm(&db, &locks, &wal);
  ASSERT_OK(tm.CreateTable("acct", AcctSchema()).status());
  sql::Session setup(&tm);
  ASSERT_OK(setup.Execute("INSERT INTO acct VALUES (1, 10)").status());
  ASSERT_OK(setup.Execute("INSERT INTO acct VALUES (2, 20)").status());

  uint64_t flushes_before = tm.stats().wal_flushes.load();
  ASSERT_GT(flushes_before, 0u);  // DDL + two write commits flushed

  sql::Session s(&tm);
  // Read-only autocommit, then an explicit read-only transaction: neither
  // writes a commit record, so neither may flush.
  ASSERT_OK_AND_ASSIGN(auto res, s.Execute("SELECT id, bal FROM acct"));
  EXPECT_EQ(res.rows.size(), 2u);
  ASSERT_OK(s.Execute("BEGIN").status());
  ASSERT_OK(s.Execute("SELECT bal FROM acct WHERE id = 1").status());
  ASSERT_OK(s.Execute("COMMIT").status());
  EXPECT_EQ(tm.stats().wal_flushes.load(), flushes_before);
}

TEST_F(GroupCommitTest, ReadOnlyCrossShardBranchesFlushNothing) {
  ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions()));
  ASSERT_OK(r->CreateTable("acct", AcctSchema()).status());
  sql::Session setup(r.get());
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(setup
                  .Execute("INSERT INTO acct VALUES (" + std::to_string(i) +
                           ", " + std::to_string(i * 10) + ")")
                  .status());
  }

  // Exercise the locking read path too: its branches enlist on every shard
  // with read locks, and their 2PC-side commits must still skip the flush.
  for (bool mvcc : {true, false}) {
    r->set_mvcc_reads_enabled(mvcc);
    uint64_t flushes_before = r->stats().wal_flushes.load();
    sql::Session s(r.get());
    ASSERT_OK(s.Execute("BEGIN").status());
    ASSERT_OK_AND_ASSIGN(auto res, s.Execute("SELECT id, bal FROM acct"));
    EXPECT_EQ(res.rows.size(), 8u);
    ASSERT_OK(s.Execute("COMMIT").status());
    EXPECT_EQ(r->stats().wal_flushes.load(), flushes_before)
        << "mvcc=" << mvcc;
  }
}

// --- Durability: ack then immediate crash latch. --------------------------

TEST_F(GroupCommitTest, AckedCommitSurvivesImmediateCrashLatch) {
  FaultInjector* fi = FaultInjector::Global();
  {
    ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions()));
    ASSERT_OK(r->CreateTable("acct", AcctSchema()).status());

    // One single-shard commit (one-phase fast path) and one cross-shard
    // commit (2PC decision through the coordinator's group queue).
    auto t1 = r->Begin();
    ASSERT_OK(
        r->Insert(t1.get(), "acct", Row({Value::Int(7), Value::Int(70)}))
            .status());
    ASSERT_OK(r->Commit(t1.get()));

    auto [k1, k2] = CrossShardPair(r.get(), 100);
    auto t2 = r->Begin();
    ASSERT_OK(
        r->Insert(t2.get(), "acct", Row({Value::Int(k1), Value::Int(1)}))
            .status());
    ASSERT_OK(
        r->Insert(t2.get(), "acct", Row({Value::Int(k2), Value::Int(2)}))
            .status());
    ASSERT_OK(r->Commit(t2.get()));

    // The instant the ack is observable, the process "dies". Everything
    // acked must already be covered by a durable flush — the buffered-
    // bytes discard on close is exactly what a SIGKILL loses.
    fi->ForceCrash("post-ack kill");
  }
  fi->Reset();

  ASSERT_OK_AND_ASSIGN(auto r, Router::Recover(DurableOptions()));
  std::vector<Row> rows = AllRows(r.get(), "acct");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], Row({Value::Int(7), Value::Int(70)}));
}

// --- Ablation differential. -----------------------------------------------

TEST_F(GroupCommitTest, AblationDisabledFlushesOncePerWriteCommit) {
  ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions()));
  ASSERT_OK(r->CreateTable("acct", AcctSchema()).status());
  r->set_group_commit_enabled(false);
  EXPECT_FALSE(r->group_commit_enabled());

  uint64_t flushes_before = r->stats().wal_flushes.load();
  constexpr int kCommits = 5;
  for (int i = 0; i < kCommits; ++i) {
    auto txn = r->Begin();
    ASSERT_OK(
        r->Insert(txn.get(), "acct", Row({Value::Int(i), Value::Int(i)}))
            .status());
    ASSERT_OK(r->Commit(txn.get()));
  }
  // Single-threaded, no batching possible: every write commit is exactly
  // one flush on its home shard.
  EXPECT_EQ(r->stats().wal_flushes.load(), flushes_before + kCommits);
  r->set_group_commit_enabled(true);
}

TEST_F(GroupCommitTest, DifferentialOnVsOffIdenticalFinalHeaps) {
  // The same deterministic concurrent workload against two durable engines,
  // group commit on vs off: identical final heaps, and recovery of each
  // lands on that same heap again.
  auto run = [&](const std::string& sub, bool group_commit) {
    Router::Options opts;
    opts.num_shards = 4;
    opts.dir = dir_ + "/" + sub;
    auto r = Router::Open(opts).value();
    EXPECT_OK(r->CreateTable("acct", AcctSchema()).status());
    r->set_group_commit_enabled(group_commit);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 32;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          // Disjoint key ranges: outcomes commute, so the final heap is
          // schedule-independent. Every 4th commit spans two shards.
          int64_t base = t * 10'000 + i * 10;
          auto txn = r->Begin();
          Status st = r->Insert(txn.get(), "acct",
                                Row({Value::Int(base), Value::Int(t)}))
                          .status();
          if (st.ok() && i % 4 == 0) {
            auto [k1, k2] = CrossShardPair(r.get(), base + 1);
            (void)k1;
            st = r->Insert(txn.get(), "acct",
                           Row({Value::Int(k2), Value::Int(t)}))
                     .status();
          }
          if (st.ok()) st = r->Commit(txn.get());
          if (!st.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0) << sub;
    uint64_t commits = r->stats().commits.load();
    uint64_t flushes = r->stats().wal_flushes.load();
    std::vector<Row> rows = AllRows(r.get(), "acct");
    r.reset();
    auto recovered = Router::Recover(opts).value();
    EXPECT_EQ(AllRows(recovered.get(), "acct"), rows) << sub;
    return std::make_tuple(rows, commits, flushes);
  };

  auto [rows_on, commits_on, flushes_on] = run("gc_on", true);
  auto [rows_off, commits_off, flushes_off] = run("gc_off", false);
  EXPECT_EQ(rows_on, rows_off);
  EXPECT_EQ(commits_on, commits_off);
  // Group commit can only merge flushes, never add them.
  EXPECT_LE(flushes_on, flushes_off);
}

}  // namespace
}  // namespace youtopia
