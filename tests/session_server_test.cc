// SessionServer: a small thread pool drives many sql::Sessions. Statements
// of one session run in submission order; sessions far outnumber threads;
// workers that commit at once share group-commit flushes.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/shard/router.h"
#include "src/sql/session_server.h"
#include "src/txn/transaction_manager.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using shard::Router;
using sql::SessionServer;

class SessionServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global()->Reset();
    dir_ = ::testing::TempDir() + "yt_ss_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global()->Reset();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

Schema AcctSchema() {
  Schema s({{"id", TypeId::kInt64}, {"bal", TypeId::kInt64}});
  s.set_primary_key({0});
  return s;
}

TEST_F(SessionServerTest, StatementsOfOneSessionRunInOrder) {
  Database db;
  LockManager locks;
  TransactionManager tm(&db, &locks, /*wal=*/nullptr);
  ASSERT_OK(tm.CreateTable("acct", AcctSchema()).status());

  SessionServer server(&tm, SessionServer::Options{/*num_threads=*/2});
  SessionServer::SessionId id = server.OpenSession();

  // A multi-statement transaction split across Submit calls only works if
  // the session's statements run strictly in submission order.
  std::vector<std::string> stmts = {
      "BEGIN",
      "INSERT INTO acct VALUES (1, 10)",
      "INSERT INTO acct VALUES (2, 20)",
      "UPDATE acct SET bal = 11 WHERE id = 1",
      "COMMIT",
  };
  std::atomic<int> failures{0};
  for (const auto& s : stmts) {
    server.Submit(id, s, [&](const StatusOr<sql::QueryResult>& r) {
      if (!r.ok()) failures.fetch_add(1);
    });
  }
  server.Drain();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.statements_served(), stmts.size());
  EXPECT_FALSE(server.session(id)->in_transaction());

  ASSERT_OK_AND_ASSIGN(auto res, server.ExecuteSync(
                                     id, "SELECT id, bal FROM acct"));
  ASSERT_EQ(res.rows.size(), 2u);
  EXPECT_EQ(res.rows[0], Row({Value::Int(1), Value::Int(11)}));
}

TEST_F(SessionServerTest, ManySessionsPerThread) {
  Database db;
  LockManager locks;
  TransactionManager tm(&db, &locks, /*wal=*/nullptr);
  ASSERT_OK(tm.CreateTable("acct", AcctSchema()).status());

  constexpr int kSessions = 32;
  constexpr int kPerSession = 8;
  SessionServer server(&tm, SessionServer::Options{/*num_threads=*/2});
  EXPECT_EQ(server.num_threads(), 2u);

  std::vector<SessionServer::SessionId> ids;
  for (int s = 0; s < kSessions; ++s) ids.push_back(server.OpenSession());
  EXPECT_EQ(server.num_sessions(), static_cast<size_t>(kSessions));

  std::atomic<int> ok_count{0};
  for (int s = 0; s < kSessions; ++s) {
    for (int i = 0; i < kPerSession; ++i) {
      int64_t key = s * 100 + i;
      server.Submit(ids[s],
                    "INSERT INTO acct VALUES (" + std::to_string(key) + ", " +
                        std::to_string(s) + ")",
                    [&](const StatusOr<sql::QueryResult>& r) {
                      if (r.ok()) ok_count.fetch_add(1);
                    });
    }
  }
  server.Drain();
  EXPECT_EQ(ok_count.load(), kSessions * kPerSession);
  EXPECT_EQ(server.statements_served(),
            static_cast<uint64_t>(kSessions * kPerSession));
  ASSERT_OK_AND_ASSIGN(
      auto res, server.ExecuteSync(ids[0], "SELECT COUNT(*) FROM acct"));
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0], Row({Value::Int(kSessions * kPerSession)}));
}

TEST_F(SessionServerTest, UnknownSessionReportsError) {
  Database db;
  LockManager locks;
  TransactionManager tm(&db, &locks, /*wal=*/nullptr);
  SessionServer server(&tm, SessionServer::Options{/*num_threads=*/1});
  StatusOr<sql::QueryResult> out = server.ExecuteSync(999, "SELECT 1");
  EXPECT_FALSE(out.ok());
}

TEST_F(SessionServerTest, UnknownSessionCallbackMayCallIntoServer) {
  // The error callback runs with no server lock held, so it may call back
  // into the server without deadlocking.
  Database db;
  LockManager locks;
  TransactionManager tm(&db, &locks, /*wal=*/nullptr);
  SessionServer server(&tm, SessionServer::Options{/*num_threads=*/1});
  server.OpenSession();
  bool failed = false;
  size_t sessions_seen = 0;
  server.Submit(999, "SELECT 1", [&](const StatusOr<sql::QueryResult>& r) {
    failed = !r.ok();
    sessions_seen = server.num_sessions();
  });
  EXPECT_TRUE(failed);
  EXPECT_EQ(sessions_seen, 1u);
}

TEST_F(SessionServerTest, WorkerPerSessionCommitsShareFsyncs) {
  // Durable sharded engine with a real fsync per flush, a worker per
  // session, every statement a write commit: committers append while a
  // leader's fsync runs, so the flush count lands well under the commit
  // count.
  Router::Options opts;
  opts.num_shards = 4;
  opts.dir = dir_ + "/router";
  opts.sync_on_flush = true;
  ASSERT_OK_AND_ASSIGN(auto r, Router::Open(opts));
  ASSERT_OK(r->CreateTable("acct", AcctSchema()).status());

  constexpr int kSessions = 16;
  constexpr int kPerSession = 6;
  SessionServer server(r.get(), SessionServer::Options{kSessions});
  std::vector<SessionServer::SessionId> ids;
  for (int s = 0; s < kSessions; ++s) ids.push_back(server.OpenSession());

  uint64_t flushes_before = r->stats().wal_flushes.load();
  std::atomic<int> failures{0};
  for (int i = 0; i < kPerSession; ++i) {
    for (int s = 0; s < kSessions; ++s) {
      int64_t key = s * 1000 + i;
      server.Submit(ids[s],
                    "INSERT INTO acct VALUES (" + std::to_string(key) + ", " +
                        std::to_string(i) + ")",
                    [&](const StatusOr<sql::QueryResult>& res) {
                      if (!res.ok()) failures.fetch_add(1);
                    });
    }
  }
  server.Drain();
  EXPECT_EQ(failures.load(), 0);
  uint64_t commits = static_cast<uint64_t>(kSessions * kPerSession);
  EXPECT_EQ(server.statements_served(), commits);
  // Concurrent committers must share flushes.
  EXPECT_LT(r->stats().wal_flushes.load() - flushes_before, commits);

  ASSERT_OK_AND_ASSIGN(
      auto res, server.ExecuteSync(ids[0], "SELECT COUNT(*) FROM acct"));
  EXPECT_EQ(res.rows[0], Row({Value::Int(kSessions * kPerSession)}));
}

}  // namespace
}  // namespace youtopia
