// Fault-injection unit tests and the crash-recover torture harness.
//
// The deterministic tests pin down each fault-layer contract: injector
// trigger policies, torn-tail truncation (including the reopen-after-
// garbage regression), recover-crash-recover idempotence, decision-log GC
// retention of in-doubt gtids, and session-level transient-abort retry.
//
// TortureTest.RandomizedCrashRecoverCycles is the standing gate: seeded
// multi-threaded transfer traffic over a durable 4-shard engine, a fault
// (or plain kill) per cycle at an injector-chosen point, recovery, and a
// differential check against a single-shard volatile oracle plus direct
// invariants — no lost committed writes, no resurrected aborts, atomic
// cross-shard visibility, balances exactly explained by the ledger.
//
// Environment knobs (scripts/check.sh --torture raises them for the long
// run; defaults keep the suite a few seconds for plain ctest):
//   YT_TORTURE_SEED      master seed (printed; reruns reproduce bit-exact)
//   YT_TORTURE_CYCLES    crash-recover cycles (default 6)
//   YT_TORTURE_THREADS   worker threads per cycle (default 3)
//   YT_TORTURE_TXNS      transfer attempts per worker per cycle (default 40)
//   YT_TORTURE_BUDGET_S  wall-clock budget; the cycle loop stops early
//   YT_TORTURE_GROUP_COMMIT  1/0 forces WAL group commit on/off for every
//                        cycle; unset = per-cycle coin flip (both paths get
//                        torn/killed in a default run). Group-commit cycles
//                        flip another coin for sync_on_flush: a real fsync
//                        holds the multi-waiter batch window open while the
//                        other workers append. Each cycle prints its choice.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/shard/router.h"
#include "src/sql/session.h"
#include "src/wal/recovery.h"
#include "src/wal/wal_reader.h"
#include "src/wal/wal_writer.h"
#include "tests/test_util.h"

namespace youtopia {
namespace {

using shard::Router;

int64_t EnvInt(const char* name, int64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoll(v, nullptr, 10) : def;
}

Schema AcctSchema() {
  Schema s({{"id", TypeId::kInt64}, {"bal", TypeId::kInt64}});
  s.set_primary_key({0});
  return s;
}

Schema LedgerSchema() {
  Schema s({{"tid", TypeId::kInt64},
            {"src", TypeId::kInt64},
            {"dst", TypeId::kInt64},
            {"amt", TypeId::kInt64}});
  s.set_primary_key({0});
  return s;
}

/// All rows of `table` via direct shard scans, sorted (the shard-count-
/// independent ground-truth view of the heap).
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

/// Two keys guaranteed to land on different shards, the first being `base`.
std::pair<int64_t, int64_t> CrossShardPair(Router* r, int64_t base) {
  size_t home = r->shard_map().ShardOfKey(Row({Value::Int(base)}));
  for (int64_t k = base + 1;; ++k) {
    if (r->shard_map().ShardOfKey(Row({Value::Int(k)})) != home) {
      return {base, k};
    }
  }
}

// --- Injector policy semantics. -------------------------------------------

TEST(FaultInjectorTest, PoliciesNthProbabilityShotsAndReset) {
  FaultInjector* fi = FaultInjector::Global();
  fi->Reset();
  EXPECT_FALSE(fi->enabled());
  EXPECT_OK(fi->Hit("unit.site"));  // unarmed: free pass

  // nth-hit, one shot, custom code.
  FaultInjector::SiteConfig cfg;
  cfg.action = FaultInjector::Action::kError;
  cfg.code = StatusCode::kTimedOut;
  cfg.nth = 3;
  fi->Arm("unit.site", cfg);
  EXPECT_TRUE(fi->enabled());
  EXPECT_OK(fi->Hit("unit.site"));
  EXPECT_OK(fi->Hit("unit.site"));
  Status s = fi->Hit("unit.site");
  EXPECT_EQ(s.code(), StatusCode::kTimedOut);
  EXPECT_OK(fi->Hit("unit.site"));  // shot consumed; keeps counting
  EXPECT_EQ(fi->HitCount("unit.site"), 4u);
  EXPECT_EQ(fi->FireCount("unit.site"), 1u);

  // Re-arming resets the counters.
  fi->Arm("unit.site", cfg);
  EXPECT_EQ(fi->HitCount("unit.site"), 0u);
  EXPECT_OK(fi->Hit("unit.site"));

  // probability 1.0, unlimited shots: fires every hit.
  FaultInjector::SiteConfig always;
  always.code = StatusCode::kCorruption;
  always.nth = 0;
  always.probability = 1.0;
  always.shots = -1;
  fi->Arm("unit.always", always);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fi->Hit("unit.always").code(), StatusCode::kCorruption);
  }

  // probability 0.0 never fires.
  always.probability = 0.0;
  fi->Arm("unit.never", always);
  for (int i = 0; i < 10; ++i) EXPECT_OK(fi->Hit("unit.never"));

  // kCrash latches; ClearCrash releases.
  FaultInjector::SiteConfig crash;
  crash.action = FaultInjector::Action::kCrash;
  fi->Arm("unit.crash", crash);
  EXPECT_FALSE(fi->Hit("unit.crash").ok());
  EXPECT_TRUE(fi->crashed());
  EXPECT_EQ(fi->crash_site(), "unit.crash");
  fi->ClearCrash();
  EXPECT_FALSE(fi->crashed());

  fi->Reset();
  EXPECT_FALSE(fi->enabled());
  EXPECT_EQ(fi->HitCount("unit.site"), 0u);
}

// --- Torn-tail repair. ----------------------------------------------------

TEST(TornTailTest, RecoveryTruncatesAndReopenedLogStaysReadable) {
  FaultInjector* fi = FaultInjector::Global();
  fi->Reset();
  const std::string path = ::testing::TempDir() + "yt_torn_" +
                           std::to_string(reinterpret_cast<uintptr_t>(&path)) +
                           ".wal";
  std::filesystem::remove(path);

  {
    WalWriter w;
    ASSERT_OK(w.Open(path, WalWriter::Options{}, /*truncate=*/true));
    ASSERT_OK(w.AppendAndFlush(WalRecord::Commit(1)).status());
    // Torn write: a prefix of the frame reaches the file, then the
    // process "dies" (crash latch): the close below must not flush.
    FaultInjector::SiteConfig torn;
    torn.action = FaultInjector::Action::kShortWrite;
    torn.keep_bytes = 5;
    fi->Arm("wal.append.torn", torn);
    EXPECT_FALSE(w.Append(WalRecord::Commit(2)).ok());
    EXPECT_TRUE(fi->crashed());
  }
  fi->Reset();

  // Recovery detects the torn tail, truncates it, and keeps record 1.
  ASSERT_OK_AND_ASSIGN(RecoveryManager::Result res,
                       RecoveryManager::Recover(path));
  EXPECT_TRUE(res.torn_tail);
  EXPECT_EQ(res.truncated_bytes, 5u);
  EXPECT_EQ(res.committed.count(1), 1u);
  EXPECT_EQ(res.committed.count(2), 0u);

  // The regression this guards: an append-mode reopen lands the next
  // record at the (now clean) end of the file, where readers can reach
  // it. Without truncation it would sit behind the garbage forever.
  {
    WalWriter w;
    ASSERT_OK(w.Open(path, WalWriter::Options{}, /*truncate=*/false));
    w.set_next_lsn(res.max_lsn + 1);
    ASSERT_OK(w.AppendAndFlush(WalRecord::Commit(3)).status());
  }
  ASSERT_OK_AND_ASSIGN(WalReader::Result log, WalReader::ReadAll(path));
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[1].txn, 3u);
  std::filesystem::remove(path);
}

// --- Durable-engine fixtures. ---------------------------------------------

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global()->Reset();
    dir_ = ::testing::TempDir() + "yt_fault_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Global()->Reset();
    std::filesystem::remove_all(dir_);
  }

  Router::Options DurableOptions(const std::string& dir) {
    Router::Options opts;
    opts.num_shards = 4;
    opts.dir = dir;
    return opts;
  }

  /// Inserts a cross-shard pair of rows {base, bal} in one transaction.
  Status CommitPair(Router* r, int64_t base, int64_t bal) {
    auto [k1, k2] = CrossShardPair(r, base);
    auto txn = r->Begin();
    YT_RETURN_IF_ERROR(
        r->Insert(txn.get(), "acct", Row({Value::Int(k1), Value::Int(bal)}))
            .status());
    YT_RETURN_IF_ERROR(
        r->Insert(txn.get(), "acct", Row({Value::Int(k2), Value::Int(bal)}))
            .status());
    return r->Commit(txn.get());
  }

  std::string dir_;
};

TEST_F(FaultRecoveryTest, RecoverCrashRecoverIsIdempotent) {
  FaultInjector* fi = FaultInjector::Global();
  {
    ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions(dir_)));
    ASSERT_OK(r->CreateTable("acct", AcctSchema()).status());
    ASSERT_OK(CommitPair(r.get(), 0, 10));
    ASSERT_OK(CommitPair(r.get(), 1000, 20));
    // A cross-shard transaction killed past the commit point: recovery
    // must resolve it committed from the decision log.
    auto [k1, k2] = CrossShardPair(r.get(), 2000);
    auto txn = r->Begin();
    ASSERT_OK(r->Insert(txn.get(), "acct", Row({Value::Int(k1), Value::Int(30)}))
                  .status());
    ASSERT_OK(r->Insert(txn.get(), "acct", Row({Value::Int(k2), Value::Int(30)}))
                  .status());
    FaultInjector::SiteConfig crash;
    crash.action = FaultInjector::Action::kCrash;
    fi->Arm("2pc.after_decision", crash);
    ASSERT_FALSE(r->Commit(txn.get()).ok());
  }
  fi->Reset();

  // A pristine copy of the crashed state: the control arm of the
  // idempotence check.
  const std::string dir2 = dir_ + "_copy";
  std::filesystem::remove_all(dir2);
  std::filesystem::copy(dir_, dir2,
                        std::filesystem::copy_options::recursive);

  // Crash the first recovery attempt mid-replay...
  FaultInjector::SiteConfig crash;
  crash.action = FaultInjector::Action::kCrash;
  crash.nth = 5;
  fi->Arm("recovery.redo", crash);
  EXPECT_FALSE(Router::Recover(DurableOptions(dir_)).ok());
  EXPECT_TRUE(fi->crashed());
  fi->Reset();

  // ... then recover for real, twice over: the re-run of the crashed dir
  // and a clean run of the untouched copy must land on the same state.
  ASSERT_OK_AND_ASSIGN(auto r1, Router::Recover(DurableOptions(dir_)));
  ASSERT_OK_AND_ASSIGN(auto r2, Router::Recover(DurableOptions(dir2)));
  EXPECT_EQ(AllRows(r1.get(), "acct"), AllRows(r2.get(), "acct"));
  EXPECT_EQ(AllRows(r1.get(), "acct").size(), 6u);

  // The MVCC clock resumed above every recovered version: a fresh commit
  // succeeds and a fresh snapshot read sees both it and the old rows.
  ASSERT_OK(CommitPair(r1.get(), 3000, 40));
  sql::Session s(r1.get());
  ASSERT_OK_AND_ASSIGN(auto res, s.Execute("SELECT id, bal FROM acct"));
  EXPECT_EQ(res.rows.size(), 8u);
  std::filesystem::remove_all(dir2);
}

TEST_F(FaultRecoveryTest, DecisionLogGcRetainsInDoubtGtid) {
  FaultInjector* fi = FaultInjector::Global();
  auto count_decisions = [&](const std::string& coord_path) {
    WalReader::Result log = WalReader::ReadAll(coord_path).value();
    size_t n = 0;
    for (const WalRecord& rec : log.records) {
      if (rec.type == WalRecordType::kCommitDecision) ++n;
    }
    return n;
  };

  std::string coord_path;
  {
    ASSERT_OK_AND_ASSIGN(auto r, Router::Open(DurableOptions(dir_)));
    coord_path = r->coord_wal_path();
    ASSERT_OK(r->CreateTable("acct", AcctSchema()).status());
    // Three fully delivered cross-shard commits: GC-eligible decisions.
    ASSERT_OK(CommitPair(r.get(), 0, 1));
    ASSERT_OK(CommitPair(r.get(), 1000, 2));
    ASSERT_OK(CommitPair(r.get(), 2000, 3));
    EXPECT_EQ(r->undelivered_decisions(), 0u);
    EXPECT_EQ(count_decisions(coord_path), 3u);

    // A commit whose first branch loses its local decision append: the
    // coordinator record becomes the only durable resolver — GC must
    // retain it.
    FaultInjector::SiteConfig swallow;
    swallow.action = FaultInjector::Action::kError;
    swallow.nth = 1;
    fi->Arm("txn.phase2.append", swallow);
    ASSERT_OK(CommitPair(r.get(), 3000, 4));
    fi->Reset();
    EXPECT_EQ(r->undelivered_decisions(), 1u);

    ASSERT_OK_AND_ASSIGN(size_t pruned, r->GcDecisionLog());
    EXPECT_EQ(pruned, 3u);
    EXPECT_EQ(count_decisions(coord_path), 1u);

    // The rewritten log is live: another commit works and its decision
    // lands in the new file.
    ASSERT_OK(CommitPair(r.get(), 4000, 5));
    EXPECT_EQ(count_decisions(coord_path), 2u);

    fi->ForceCrash("end of GC scenario");
  }
  fi->Reset();

  // Recovery resolves the partially delivered transaction *committed*
  // from the retained decision (had GC dropped it, presumed abort would
  // lose the committed writes).
  Router::RecoveryReport report;
  ASSERT_OK_AND_ASSIGN(auto r,
                       Router::Recover(DurableOptions(dir_), &report));
  std::vector<Row> rows = AllRows(r.get(), "acct");
  EXPECT_EQ(rows.size(), 10u);
  auto has_bal = [&](int64_t bal) {
    return std::count_if(rows.begin(), rows.end(), [&](const Row& row) {
             return row[1].as_int() == bal;
           }) == 2;
  };
  for (int64_t bal = 1; bal <= 5; ++bal) {
    EXPECT_TRUE(has_bal(bal)) << "pair with bal " << bal;
  }

  // Recover wrote durable local decisions for the in-doubt-committed
  // branches, so a post-recovery GC can finally prune everything.
  ASSERT_OK_AND_ASSIGN(size_t pruned, r->GcDecisionLog());
  EXPECT_GE(pruned, 1u);
  EXPECT_EQ(count_decisions(coord_path), 0u);
  // And the pruned log still recovers to the same state.
  r.reset();
  ASSERT_OK_AND_ASSIGN(auto r2, Router::Recover(DurableOptions(dir_)));
  EXPECT_EQ(AllRows(r2.get(), "acct"), rows);
}

// --- Session-level transient-abort retry. ---------------------------------

TEST(SessionRetryTest, AutocommitRetriesTransientAbortsWithBackoff) {
  FaultInjector* fi = FaultInjector::Global();
  fi->Reset();
  Router::Options opts;
  opts.num_shards = 1;
  auto r = Router::Open(opts).value();
  sql::Session s(r.get());
  ASSERT_OK(s.Execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
                .status());
  ASSERT_OK(s.Execute("INSERT INTO acct VALUES (1, 100)").status());

  // One spurious lock timeout: the autocommit retry absorbs it.
  FaultInjector::SiteConfig timeout;
  timeout.action = FaultInjector::Action::kError;
  timeout.code = StatusCode::kTimedOut;
  timeout.nth = 1;
  fi->Arm("lock.acquire", timeout);
  ASSERT_OK(s.Execute("UPDATE acct SET bal = 5 WHERE id = 1").status());
  EXPECT_EQ(s.statement_retries(), 1u);
  fi->Reset();
  ASSERT_OK_AND_ASSIGN(auto res, s.Execute("SELECT bal FROM acct"));
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0][0].as_int(), 5);

  // A persistent timeout exhausts the attempt budget and surfaces.
  FaultInjector::SiteConfig always = timeout;
  always.nth = 0;
  always.probability = 1.0;
  always.shots = -1;
  fi->Arm("lock.acquire", always);
  sql::Session::RetryPolicy tight;
  tight.max_attempts = 2;
  tight.initial_backoff_micros = 50;
  s.set_retry_policy(tight);
  Status st = s.Execute("UPDATE acct SET bal = 6 WHERE id = 1").status();
  EXPECT_EQ(st.code(), StatusCode::kTimedOut);
  EXPECT_EQ(s.statement_retries(), 2u);
  fi->Reset();

  // Inside an explicit transaction nothing retries: the application owns
  // the transaction's history.
  fi->Arm("lock.acquire", timeout);
  ASSERT_OK(s.Execute("BEGIN").status());
  EXPECT_EQ(s.Execute("UPDATE acct SET bal = 7 WHERE id = 1").status().code(),
            StatusCode::kTimedOut);
  EXPECT_EQ(s.statement_retries(), 2u);  // unchanged
  EXPECT_FALSE(s.in_transaction());      // engine error doomed the txn
  fi->Reset();
}

// --- The torture harness. -------------------------------------------------

/// One worker's classification of its transfer attempts.
struct WorkerLog {
  std::vector<int64_t> committed;  ///< Commit returned Ok: must be durable
  std::vector<int64_t> aborted;    ///< clean abort, no crash: must be gone
  // Attempts that ended with the crash latch set are *unknown*: the
  // ledger's word is final for them.
};

class TortureHarness {
 public:
  TortureHarness(std::string dir, uint64_t seed, int threads, int txns)
      : dir_(std::move(dir)), rng_(seed), threads_(threads), txns_(txns) {}

  static constexpr int64_t kAccounts = 64;
  static constexpr int64_t kInitialBalance = 1000;

  Router::Options Options() {
    Router::Options opts;
    opts.num_shards = 4;
    opts.dir = dir_;
    // Short waits: cross-shard ABBA deadlocks are invisible to the
    // per-shard waits-for graphs; the timeout is what breaks them, and
    // the torture loop needs it to break them fast.
    opts.lock_timeout_micros = 50'000;
    opts.sync_on_flush = sync_on_flush_;
    return opts;
  }

  /// Draws the next cycle's WAL policy. Call it before opening or
  /// recovering the router that runs the cycle: sync_on_flush is fixed when
  /// the WALs open. `forced_gc` is YT_TORTURE_GROUP_COMMIT (<0: coin flip).
  void PlanCycle(int forced_gc) {
    gc_on_ = forced_gc < 0 ? rng_.Bernoulli(0.5) : forced_gc != 0;
    sync_on_flush_ = gc_on_ && rng_.Bernoulli(0.5);
  }
  bool gc_on() const { return gc_on_; }
  bool sync_on_flush() const { return sync_on_flush_; }

  /// Cycle 0: fresh engine, schema, initial balances (no faults armed).
  std::unique_ptr<Router> OpenFresh() {
    std::filesystem::remove_all(dir_);
    auto r = Router::Open(Options()).value();
    EXPECT_OK(r->CreateTable("acct", AcctSchema()).status());
    EXPECT_OK(r->CreateTable("ledger", LedgerSchema()).status());
    for (int64_t id = 0; id < kAccounts; id += 8) {
      auto txn = r->Begin();
      for (int64_t k = id; k < id + 8; ++k) {
        EXPECT_OK(r->Insert(txn.get(), "acct",
                            Row({Value::Int(k), Value::Int(kInitialBalance)}))
                      .status());
      }
      EXPECT_OK(r->Commit(txn.get()));
    }
    return r;
  }

  /// Arms this cycle's fault from the menu. Every option leaves a killed
  /// process behind by cycle end: sites that never fire (or fire without
  /// crashing) are followed by a ForceCrash once the workers stop.
  void ArmCycleFault() {
    FaultInjector* fi = FaultInjector::Global();
    fi->Seed(rng_.Uniform(1, 1 << 30));
    FaultInjector::SiteConfig cfg;
    cfg.action = FaultInjector::Action::kCrash;
    switch (rng_.Index(11)) {
      case 0:
        cfg.nth = rng_.Uniform(1, 30);
        fi->Arm("2pc.before_prepare", cfg);
        break;
      case 1:
        cfg.nth = rng_.Uniform(1, 60);
        fi->Arm("2pc.after_prepare", cfg);
        break;
      case 2:
        cfg.nth = rng_.Uniform(1, 30);
        fi->Arm("2pc.before_decision", cfg);
        break;
      case 3:
        cfg.nth = rng_.Uniform(1, 30);
        fi->Arm("2pc.after_decision", cfg);
        break;
      case 4:
        cfg.nth = rng_.Uniform(1, 30);
        fi->Arm("2pc.after_stamp", cfg);
        break;
      case 5:
        cfg.nth = rng_.Uniform(1, 60);
        fi->Arm("2pc.after_shard_decision", cfg);
        break;
      case 6:
        cfg.action = FaultInjector::Action::kShortWrite;
        cfg.nth = rng_.Uniform(1, 300);
        fi->Arm("wal.append.torn", cfg);  // random tear point
        break;
      case 7:
        cfg.action = FaultInjector::Action::kError;
        cfg.code = StatusCode::kCorruption;
        cfg.nth = rng_.Uniform(1, 120);
        fi->Arm("wal.flush", cfg);
        break;
      case 8:
        cfg.action = FaultInjector::Action::kError;
        cfg.code = StatusCode::kCorruption;
        cfg.nth = rng_.Uniform(1, 300);
        fi->Arm("wal.append", cfg);
        break;
      case 9:
        // Swallowed phase-2 local decisions: exercises undelivered
        // tracking and GC retention under the end-of-cycle kill.
        cfg.action = FaultInjector::Action::kError;
        cfg.nth = rng_.Uniform(1, 40);
        cfg.shots = -1;
        fi->Arm("txn.phase2.append", cfg);
        break;
      case 10:
        // A group-commit batch flush fails: every committer the batch
        // covered must see the error and none of them may have been acked.
        // (On ablation cycles the site never fires; the end-of-cycle
        // ForceCrash still kills the process.)
        cfg.action = FaultInjector::Action::kError;
        cfg.code = StatusCode::kCorruption;
        cfg.nth = rng_.Uniform(1, 120);
        fi->Arm("wal.group_flush", cfg);
        break;
    }
    if (rng_.Bernoulli(0.25)) {
      // Background noise: rare spurious lock timeouts on top of the
      // primary fault, feeding the abort/retry paths.
      FaultInjector::SiteConfig flaky;
      flaky.action = FaultInjector::Action::kError;
      flaky.code = StatusCode::kTimedOut;
      flaky.probability = 0.01;
      flaky.shots = -1;
      fi->Arm("lock.acquire", flaky);
    }
  }

  /// One money transfer: lock both accounts, move `amt`, write the
  /// ledger row that *is* the transaction's durable identity.
  Status Transfer(Router* r, int64_t src, int64_t dst, int64_t amt,
                  int64_t tid, IsolationLevel iso) {
    auto txn = r->Begin(iso);
    Status st = TransferBody(r, txn.get(), src, dst, amt, tid);
    if (st.ok()) return r->Commit(txn.get());
    (void)r->Abort(txn.get());
    return st;
  }

  /// Runs the worker threads for one cycle, merging their logs into the
  /// harness-wide committed/aborted sets.
  void RunWorkers(Router* r) {
    FaultInjector* fi = FaultInjector::Global();
    std::vector<WorkerLog> logs(threads_);
    std::vector<uint64_t> seeds(threads_);
    for (int w = 0; w < threads_; ++w) {
      seeds[w] = static_cast<uint64_t>(rng_.Uniform(1, 1 << 30));
    }
    std::vector<std::thread> pool;
    pool.reserve(threads_);
    for (int w = 0; w < threads_; ++w) {
      pool.emplace_back([&, w] {
        Rng wr(seeds[w]);
        for (int i = 0; i < txns_ && !fi->crashed(); ++i) {
          int64_t src = wr.Index(kAccounts);
          int64_t dst = wr.Index(kAccounts);
          if (src == dst) dst = (dst + 1) % kAccounts;
          int64_t amt = wr.Uniform(1, 10);
          int64_t tid = next_tid_.fetch_add(1);
          IsolationLevel iso = wr.Bernoulli(0.5)
                                   ? IsolationLevel::kSnapshot
                                   : IsolationLevel::kReadCommitted;
          Status st = Transfer(r, src, dst, amt, tid, iso);
          if (st.ok()) {
            logs[w].committed.push_back(tid);
          } else if (!fi->crashed()) {
            logs[w].aborted.push_back(tid);
          }
          // else: crash window — the ledger's word is final.
        }
      });
    }
    for (auto& t : pool) t.join();
    for (const WorkerLog& log : logs) {
      committed_.insert(log.committed.begin(), log.committed.end());
      aborted_.insert(log.aborted.begin(), log.aborted.end());
    }
  }

  size_t committed_count() const { return committed_.size(); }
  size_t aborted_count() const { return aborted_.size(); }

  /// Every invariant the recovered engine must satisfy.
  void CheckInvariants(Router* r) {
    std::vector<Row> accts = AllRows(r, "acct");
    std::vector<Row> ledger = AllRows(r, "ledger");
    ledger_size_ = ledger.size();

    // No lost committed writes; no resurrected aborts.
    std::set<int64_t> present;
    for (const Row& row : ledger) present.insert(row[0].as_int());
    for (int64_t tid : committed_) {
      EXPECT_TRUE(present.count(tid))
          << "committed transfer " << tid << " lost";
    }
    for (int64_t tid : aborted_) {
      EXPECT_FALSE(present.count(tid))
          << "aborted transfer " << tid << " resurrected";
    }

    // Atomic cross-shard visibility: each balance is exactly the initial
    // amount plus the ledger's deltas — a debit surviving without its
    // credit (or without its ledger row) breaks the equality; so does a
    // half-replayed version chain.
    std::map<int64_t, int64_t> expected;
    for (int64_t id = 0; id < kAccounts; ++id) {
      expected[id] = kInitialBalance;
    }
    for (const Row& row : ledger) {
      expected[row[1].as_int()] -= row[3].as_int();
      expected[row[2].as_int()] += row[3].as_int();
    }
    ASSERT_EQ(accts.size(), static_cast<size_t>(kAccounts));
    int64_t total = 0;
    for (const Row& row : accts) {
      EXPECT_EQ(row[1].as_int(), expected[row[0].as_int()])
          << "balance of account " << row[0].as_int();
      total += row[1].as_int();
    }
    EXPECT_EQ(total, kAccounts * kInitialBalance);  // conservation

    // Snapshot reads and locking reads agree on the recovered state (a
    // stray version chain would split them).
    sql::Session snap(r);
    auto via_snapshot = snap.Execute("SELECT id, bal FROM acct").value().rows;
    r->set_mvcc_reads_enabled(false);
    sql::Session lock(r);
    auto via_locks = lock.Execute("SELECT id, bal FROM acct").value().rows;
    r->set_mvcc_reads_enabled(true);
    std::sort(via_snapshot.begin(), via_snapshot.end());
    std::sort(via_locks.begin(), via_locks.end());
    EXPECT_EQ(via_snapshot, via_locks);
    EXPECT_EQ(via_snapshot, accts);

    // Differential oracle: replay the ledger's transfers on a volatile
    // single-shard engine through the same Update path; the sharded,
    // crash-scarred engine must agree exactly.
    Router::Options oopts;
    oopts.num_shards = 1;
    auto oracle = Router::Open(oopts).value();
    ASSERT_OK(oracle->CreateTable("acct", AcctSchema()).status());
    ASSERT_OK(oracle->CreateTable("ledger", LedgerSchema()).status());
    {
      auto txn = oracle->Begin();
      for (int64_t id = 0; id < kAccounts; ++id) {
        ASSERT_OK(oracle->Insert(txn.get(), "acct",
                                 Row({Value::Int(id),
                                      Value::Int(kInitialBalance)}))
                      .status());
      }
      ASSERT_OK(oracle->Commit(txn.get()));
    }
    // Fault-free metrics sanity: the oracle replay is single-threaded with
    // no faults armed, and every replayed transfer is exactly one Commit on
    // the 1-shard router — so the global commits counter must advance by
    // exactly ledger.size(). Catches lost or double-counted commit bumps.
    Counter* commit_counter =
        MetricsRegistry::Global()->counter("txn.commits");
    const uint64_t commits_before_replay = commit_counter->value();
    for (const Row& row : ledger) {
      ASSERT_OK(Transfer(oracle.get(), row[1].as_int(), row[2].as_int(),
                         row[3].as_int(), row[0].as_int(),
                         IsolationLevel::kSnapshot));
    }
    if (metrics_enabled()) {
      EXPECT_EQ(commit_counter->value() - commits_before_replay, ledger.size())
          << "commits counter drifted from oracle-observed commits";
    }
    EXPECT_EQ(AllRows(oracle.get(), "acct"), accts);
    EXPECT_EQ(AllRows(oracle.get(), "ledger"), ledger);
  }

  Rng& rng() { return rng_; }
  size_t ledger_size() const { return ledger_size_; }

 private:
  Status TransferBody(Router* r, Transaction* txn, int64_t src, int64_t dst,
                      int64_t amt, int64_t tid) {
    YT_ASSIGN_OR_RETURN(
        auto srows,
        r->LockRowsForWrite(txn, "acct", {0}, Row({Value::Int(src)})));
    if (srows.size() != 1) return Status::Internal("src account missing");
    YT_ASSIGN_OR_RETURN(
        auto drows,
        r->LockRowsForWrite(txn, "acct", {0}, Row({Value::Int(dst)})));
    if (drows.size() != 1) return Status::Internal("dst account missing");
    YT_RETURN_IF_ERROR(r->Update(
        txn, "acct", srows[0].first,
        Row({Value::Int(src), Value::Int(srows[0].second[1].as_int() - amt)})));
    YT_RETURN_IF_ERROR(r->Update(
        txn, "acct", drows[0].first,
        Row({Value::Int(dst), Value::Int(drows[0].second[1].as_int() + amt)})));
    return r
        ->Insert(txn, "ledger",
                 Row({Value::Int(tid), Value::Int(src), Value::Int(dst),
                      Value::Int(amt)}))
        .status();
  }

  std::string dir_;
  Rng rng_;
  int threads_;
  int txns_;
  bool gc_on_ = true;
  bool sync_on_flush_ = false;
  std::atomic<int64_t> next_tid_{1};
  std::set<int64_t> committed_;
  std::set<int64_t> aborted_;
  size_t ledger_size_ = 0;
};

TEST(TortureTest, RandomizedCrashRecoverCycles) {
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("YT_TORTURE_SEED", 0xC0FFEE));
  const int cycles = static_cast<int>(EnvInt("YT_TORTURE_CYCLES", 6));
  const int threads = static_cast<int>(EnvInt("YT_TORTURE_THREADS", 3));
  const int txns = static_cast<int>(EnvInt("YT_TORTURE_TXNS", 40));
  const int budget_s = static_cast<int>(EnvInt("YT_TORTURE_BUDGET_S", 120));
  const int group_commit = static_cast<int>(EnvInt("YT_TORTURE_GROUP_COMMIT",
                                                   -1));
  std::printf(
      "torture: seed=%llu cycles=%d threads=%d txns=%d budget=%ds "
      "group_commit=%s (repro: YT_TORTURE_SEED=%llu)\n",
      static_cast<unsigned long long>(seed), cycles, threads, txns, budget_s,
      group_commit < 0 ? "coin-flip" : (group_commit != 0 ? "on" : "off"),
      static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  FaultInjector* fi = FaultInjector::Global();
  fi->Reset();
  const std::string dir =
      ::testing::TempDir() + "yt_torture_" + std::to_string(seed);
  TortureHarness h(dir, seed, threads, txns);

  const auto start = std::chrono::steady_clock::now();
  h.PlanCycle(group_commit);
  std::unique_ptr<Router> r = h.OpenFresh();
  int done = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (elapsed >= budget_s) {
      std::printf("torture: budget reached after %d/%d cycles\n", cycle,
                  cycles);
      break;
    }

    // Group commit on/off per cycle (forced via env, coin flip otherwise):
    // both the batched and the flush-per-commit path take every fault and
    // every kill. Group-commit cycles sometimes fsync every flush, so the
    // multi-waiter batch window is actually open when the crash lands.
    std::printf("torture: cycle %d group_commit=%s sync_on_flush=%s\n", cycle,
                h.gc_on() ? "on" : "off", h.sync_on_flush() ? "on" : "off");
    r->set_group_commit_enabled(h.gc_on());

    h.ArmCycleFault();
    h.RunWorkers(r.get());
    // Cycles whose fault never crashed (kError sites, or nth beyond the
    // schedule) die at the cycle boundary instead: every cycle ends in a
    // kill, every recovery starts from a killed process.
    if (!fi->crashed()) fi->ForceCrash("torture.kill");
    r.reset();  // WAL buffers are discarded, not flushed
    fi->Reset();
    h.PlanCycle(group_commit);  // the next cycle runs on the router below

    // Sometimes crash recovery itself before letting it finish.
    if (h.rng().Bernoulli(0.3)) {
      FaultInjector::SiteConfig crash;
      crash.action = FaultInjector::Action::kCrash;
      crash.nth = static_cast<uint64_t>(h.rng().Uniform(1, 400));
      fi->Arm("recovery.redo", crash);
      auto attempt = Router::Recover(h.Options());
      // nth may exceed the log's record count, in which case the attempt
      // legitimately succeeds; otherwise it died mid-replay.
      if (attempt.ok()) r = std::move(attempt).value();
      fi->Reset();
    }
    if (r == nullptr) {
      ASSERT_OK_AND_ASSIGN(r, Router::Recover(h.Options()));
    }
    h.CheckInvariants(r.get());
    if (::testing::Test::HasFailure()) {
      std::printf(
          "torture: FAILED at cycle %d — rerun with YT_TORTURE_SEED=%llu\n",
          cycle, static_cast<unsigned long long>(seed));
      std::printf("torture: metrics at failure:\n%s",
                  MetricsRegistry::Global()->DumpText().c_str());
      break;
    }
    done = cycle + 1;
  }
  std::printf("torture: %d cycle(s) clean — %zu committed, %zu aborted, "
              "%zu ledger rows\n",
              done, h.committed_count(), h.aborted_count(), h.ledger_size());
  std::printf("torture: final metrics snapshot:\n%s",
              MetricsRegistry::Global()->DumpText().c_str());
  // A harness that never commits anything proves nothing: require real
  // traffic to have survived.
  if (done > 0) EXPECT_GT(h.committed_count(), 0u);
  fi->Reset();
  r.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace youtopia
