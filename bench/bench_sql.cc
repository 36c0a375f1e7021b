// Ablation: SQL front-end micro-costs for the §D workload statements —
// lexing/parsing, point selects, the three-way Social join (with pushdown),
// DML, and entangled-query compilation + grounding.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "src/common/metrics.h"
#include "src/eq/compiler.h"
#include "src/eq/grounder.h"
#include "src/shard/router.h"
#include "src/sql/session.h"
#include "src/sql/session_server.h"
#include "src/txn/transaction_manager.h"
#include "src/workload/travel_data.h"

namespace youtopia::bench {
namespace {

constexpr char kSocialJoin[] =
    "SELECT uid2 FROM Friends, User u1, User u2 "
    "WHERE Friends.uid1=7 AND Friends.uid2=u2.uid AND u1.uid=7 "
    "AND u1.hometown=u2.hometown LIMIT 1";

// The full §D social join (no LIMIT): u2 is fetched by bind-driven index
// probes keyed on Friends.uid2, or — with the executor's ablation switch
// off — by one eager 500-row snapshot cross-filtered in memory.
constexpr char kThreeWayJoin[] =
    "SELECT u2.uid FROM Friends, User u1, User u2 "
    "WHERE Friends.uid1=7 AND u1.uid=7 AND Friends.uid2=u2.uid "
    "AND u1.hometown=u2.hometown";

// Fig. 6(c)-style entangled body over variables only:
// Friends(x,y), User(x,c), User(y,c). Both User atoms ground by per-binding
// probes on the primary key once the Friends scan binds x and y.
constexpr char kEntangledPairSql[] =
    "SELECT u1, u2 INTO ANSWER Pair "
    "WHERE u1, u2 IN (SELECT uid1, uid2 FROM Friends, User a, User b "
    "WHERE Friends.uid1=a.uid AND Friends.uid2=b.uid "
    "AND a.hometown=b.hometown) "
    "AND (u2, u1) IN ANSWER Pair CHOOSE 1";

constexpr char kEntangledSql[] =
    "SELECT 7 AS @uid, 'CITY01' AS @destination INTO ANSWER Reserve "
    "WHERE (7, 9) IN (SELECT uid1, uid2 FROM Friends, User u1, User u2 "
    "WHERE Friends.uid1=7 AND Friends.uid2=9 AND u1.uid=7 AND u2.uid=9 "
    "AND u1.hometown=u2.hometown) "
    "AND (9, 'CITY01') IN ANSWER Reserve CHOOSE 1";

struct SqlStack {
  Database db;
  LockManager locks;
  std::unique_ptr<TransactionManager> tm;
  workload::TravelData data;

  SqlStack() {
    tm = std::make_unique<TransactionManager>(&db, &locks, nullptr);
    workload::TravelDataOptions opts;
    opts.num_users = 500;
    opts.edges_per_node = 4;
    opts.num_cities = 6;
    data = workload::TravelData::Build(tm.get(), opts).value();
  }
};

void BM_ParseSelect(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parser::ParseStatement(kSocialJoin));
  }
}
BENCHMARK(BM_ParseSelect);

void BM_ParseEntangled(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parser::ParseStatement(kEntangledSql));
  }
}
BENCHMARK(BM_ParseEntangled);

void BM_PointSelect(benchmark::State& state) {
  // User.uid is a primary key, so this runs through the hash-index path.
  SqlStack s;
  sql::Session session(s.tm.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Execute("SELECT @uid, @hometown FROM User WHERE uid=77"));
  }
}
BENCHMARK(BM_PointSelect)->Unit(benchmark::kMicrosecond);

void BM_PointSelectMetricsOff(benchmark::State& state) {
  // Instrumentation ablation: identical to BM_PointSelect with the global
  // metrics switch off. The gap between the two is the full observability
  // overhead on the statement hot path (budget: <= 5%).
  set_metrics_enabled(false);
  SqlStack s;
  sql::Session session(s.tm.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Execute("SELECT @uid, @hometown FROM User WHERE uid=77"));
  }
  set_metrics_enabled(true);
}
BENCHMARK(BM_PointSelectMetricsOff)->Unit(benchmark::kMicrosecond);

void BM_PointSelectScan(benchmark::State& state) {
  // Same query over an unindexed twin of User: the access-path ablation.
  SqlStack s;
  sql::Session session(s.tm.get());
  (void)session.Execute("CREATE TABLE UserScan (uid INT, hometown VARCHAR)");
  Table* src = s.db.GetTable("User").value();
  Table* dst = s.db.GetTable("UserScan").value();
  src->Scan([&](RowId, const Row& row) {
    (void)dst->Insert(row);
    return true;
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Execute("SELECT @uid, @hometown FROM UserScan WHERE uid=77"));
  }
}
BENCHMARK(BM_PointSelectScan)->Unit(benchmark::kMicrosecond);

void BM_PointUpdate(benchmark::State& state) {
  // Indexed UPDATE: X locks on the key and matched row, no table X lock.
  SqlStack s;
  sql::Session session(s.tm.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Execute("UPDATE User SET hometown='CITY00' WHERE uid=77"));
  }
}
BENCHMARK(BM_PointUpdate)->Unit(benchmark::kMicrosecond);

void BM_SocialThreeWayJoin(benchmark::State& state) {
  SqlStack s;
  sql::Session session(s.tm.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Execute(kSocialJoin));
  }
}
BENCHMARK(BM_SocialThreeWayJoin)->Unit(benchmark::kMicrosecond);

void BM_ThreeWayJoin(benchmark::State& state) {
  // Bind-driven probes: the inner User table is never snapshotted.
  SqlStack s;
  sql::Session session(s.tm.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Execute(kThreeWayJoin));
  }
  // Per-query probe count (invariant of plan shape, not of iteration count).
  state.counters["join_probes"] = benchmark::Counter(
      static_cast<double>(s.tm->stats().join_probes.load()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ThreeWayJoin)->Unit(benchmark::kMicrosecond);

void BM_ThreeWayJoinSnapshot(benchmark::State& state) {
  // The pre-probe path on identical data: eager per-table snapshots
  // cross-filtered in the join loop (the ablation baseline).
  SqlStack s;
  sql::Session session(s.tm.get());
  session.executor().set_join_probes_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Execute(kThreeWayJoin));
  }
}
BENCHMARK(BM_ThreeWayJoinSnapshot)->Unit(benchmark::kMicrosecond);

/// 500-row price table for the range/order ablations: "Prices" carries an
/// ordered index on price, "PricesScan" is an identical unindexed twin.
/// Prices are spread over [0, 5000) so a 100-wide band is ~2% selective —
/// the travel workload's price/date filter shape.
struct RangeStack : SqlStack {
  RangeStack() {
    sql::Session s(tm.get());
    (void)s.Execute(
        "CREATE TABLE Prices (id INT PRIMARY KEY, price INT, city VARCHAR)");
    (void)s.Execute(
        "CREATE TABLE PricesScan (id INT, price INT, city VARCHAR)");
    (void)s.Execute("CREATE INDEX ON Prices (price) USING ORDERED");
    for (int id = 0; id < 500; ++id) {
      std::string vals = "(" + std::to_string(id) + ", " +
                         std::to_string((id * 7919) % 5000) + ", 'CITY0" +
                         std::to_string(id % 6) + "')";
      (void)s.Execute("INSERT INTO Prices VALUES " + vals);
      (void)s.Execute("INSERT INTO PricesScan VALUES " + vals);
    }
  }
};

constexpr char kRangeWhere[] = " WHERE price >= 2000 AND price < 2100";

void BM_RangeSelect(benchmark::State& state) {
  // Selective range predicate through the ordered index: O(log n + k) reads
  // under a key-range S lock on the scanned interval.
  RangeStack s;
  sql::Session session(s.tm.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Execute(
        std::string("SELECT @id, @price FROM Prices") + kRangeWhere));
  }
  state.counters["range_lookups"] = benchmark::Counter(
      static_cast<double>(s.tm->stats().range_lookups.load()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RangeSelect)->Unit(benchmark::kMicrosecond);

void BM_RangeSelectScan(benchmark::State& state) {
  // The same predicate over the unindexed twin: full scan under a table S
  // lock (the ablation baseline).
  RangeStack s;
  sql::Session session(s.tm.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Execute(
        std::string("SELECT @id, @price FROM PricesScan") + kRangeWhere));
  }
}
BENCHMARK(BM_RangeSelectScan)->Unit(benchmark::kMicrosecond);

void BM_OrderByLimit(benchmark::State& state) {
  // ORDER BY <indexed prefix> LIMIT served straight from index order: no
  // sort, and the covered predicate lets the LIMIT stop the fetch after 5
  // keys.
  RangeStack s;
  sql::Session session(s.tm.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Execute("SELECT @id, @price FROM Prices "
                        "WHERE price > 1000 ORDER BY price LIMIT 5"));
  }
}
BENCHMARK(BM_OrderByLimit)->Unit(benchmark::kMicrosecond);

void BM_OrderByLimitScan(benchmark::State& state) {
  // Twin baseline: full scan, materialize, sort, then truncate.
  RangeStack s;
  sql::Session session(s.tm.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Execute("SELECT @id, @price FROM PricesScan "
                        "WHERE price > 1000 ORDER BY price LIMIT 5"));
  }
}
BENCHMARK(BM_OrderByLimitScan)->Unit(benchmark::kMicrosecond);

/// Concurrent full scans: 8 threads repeatedly full-scan the same heap at
/// a locking level, each cursor walking the heap privately under its own
/// table S lock — the scan-heavy regime of the fig. 6(a) concurrency
/// curves.
struct ConcurrentScanStack {
  Database db;
  LockManager locks;
  std::unique_ptr<TransactionManager> tm;
  Table* table = nullptr;
  static constexpr int kRows = 16384;

  ConcurrentScanStack() {
    tm = std::make_unique<TransactionManager>(&db, &locks, nullptr);
    Schema schema({{"a", TypeId::kInt64},
                   {"b", TypeId::kInt64},
                   {"c", TypeId::kInt64}});
    table = tm->CreateTable("Wide", schema).value();
    for (int i = 0; i < kRows; ++i) {
      (void)table->Insert(
          Row({Value::Int(i), Value::Int(i * 7), Value::Int(i % 97)}));
    }
  }
};

std::unique_ptr<ConcurrentScanStack> g_scan_stack;  // NOLINT

void BM_ConcurrentScans(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_scan_stack = std::make_unique<ConcurrentScanStack>();
  }
  // Threads synchronize at the loop barrier, so non-zero threads only touch
  // the stack inside the loop.
  for (auto _ : state) {
    ConcurrentScanStack& s = *g_scan_stack;
    auto txn = s.tm->Begin(IsolationLevel::kSerializable);
    auto cursor = s.tm->OpenCursor(txn.get(), s.table,
                                   AccessPlan::TableScan(),
                                   ReadOrigin::kStatement);
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      return;
    }
    size_t rows = 0;
    int64_t sum = 0;
    RowId rid = 0;
    const Row* row = nullptr;
    while (true) {
      auto more = cursor.value()->NextRef(&rid, &row);
      if (!more.ok()) {
        state.SkipWithError(more.status().ToString().c_str());
        return;
      }
      if (!more.value()) break;
      ++rows;
      sum += (*row)[0].as_int();
    }
    benchmark::DoNotOptimize(sum);
    cursor.value().reset();
    (void)s.tm->Commit(txn.get());
    if (rows != static_cast<size_t>(ConcurrentScanStack::kRows)) {
      state.SkipWithError("scan returned wrong row count");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * ConcurrentScanStack::kRows);
  if (state.thread_index() == 0) g_scan_stack.reset();
}
BENCHMARK(BM_ConcurrentScans)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// MVCC-vs-locking read-path ablation stack: a 4096-row heap read at
/// kReadCommitted. With snapshot reads on, scans serve a versioned cut with
/// zero locks; the locking ablation puts every scan back under a table S
/// lock that serializes against writers' IX/X.
struct MvccMixStack {
  Database db;
  LockManager locks;
  std::unique_ptr<TransactionManager> tm;
  Table* table = nullptr;
  static constexpr int kRows = 4096;

  explicit MvccMixStack(bool mvcc_reads) {
    TransactionManager::Options opts;
    opts.enable_mvcc_reads = mvcc_reads;
    // Under the locking ablation writers queue behind scans; wait, don't
    // time out — the queueing *is* the measurement.
    opts.lock_timeout_micros = 30'000'000;
    tm = std::make_unique<TransactionManager>(&db, &locks, nullptr, opts);
    Schema schema({{"id", TypeId::kInt64}, {"val", TypeId::kInt64}});
    table = tm->CreateTable("Mix", schema).value();
    for (int i = 0; i < kRows; ++i) {
      (void)table->Insert(Row({Value::Int(i), Value::Int(i)}));
    }
  }
};

std::unique_ptr<MvccMixStack> g_mix_stack;  // NOLINT

/// 8 threads, 90% kReadCommitted full scans / 10% single-row updates.
/// Aggregate throughput with snapshot reads on should sit well above the
/// locking baseline: the scans cost the same, but nobody waits.
void ReadMostlyMixedBody(benchmark::State& state, bool mvcc_reads) {
  if (state.thread_index() == 0) {
    g_mix_stack = std::make_unique<MvccMixStack>(mvcc_reads);
  }
  uint64_t seq = static_cast<uint64_t>(state.thread_index()) * 1000003u;
  for (auto _ : state) {
    MvccMixStack& s = *g_mix_stack;
    ++seq;
    if (seq % 10 == 0) {
      RowId rid = 1 + (seq * 2654435761u) % MvccMixStack::kRows;
      auto txn = s.tm->Begin(IsolationLevel::kSerializable);
      Status st = s.tm->Update(
          txn.get(), "Mix", rid,
          Row({Value::Int(static_cast<int64_t>(rid) - 1),
               Value::Int(static_cast<int64_t>(seq))}));
      if (st.ok()) {
        (void)s.tm->Commit(txn.get());
      } else {
        (void)s.tm->Abort(txn.get());
      }
    } else {
      auto txn = s.tm->Begin(IsolationLevel::kReadCommitted);
      auto cursor = s.tm->OpenCursor(txn.get(), s.table,
                                     AccessPlan::TableScan(),
                                     ReadOrigin::kStatement);
      if (!cursor.ok()) {
        state.SkipWithError(cursor.status().ToString().c_str());
        return;
      }
      int64_t sum = 0;
      RowId rid = 0;
      const Row* row = nullptr;
      while (cursor.value()->NextRef(&rid, &row).value()) {
        sum += (*row)[1].as_int();
      }
      benchmark::DoNotOptimize(sum);
      cursor.value().reset();
      (void)s.tm->Commit(txn.get());
    }
  }
  if (state.thread_index() == 0) {
    state.counters["snapshot_reads"] = static_cast<double>(
        g_mix_stack->tm->stats().snapshot_reads.load());
    g_mix_stack.reset();
  }
}

void BM_ReadMostlyMixed(benchmark::State& state) {
  ReadMostlyMixedBody(state, /*mvcc_reads=*/true);
}
BENCHMARK(BM_ReadMostlyMixed)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ReadMostlyMixedLocking(benchmark::State& state) {
  ReadMostlyMixedBody(state, /*mvcc_reads=*/false);
}
BENCHMARK(BM_ReadMostlyMixedLocking)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Scan latency while a background writer holds row X (+ table IX) locks
/// for ~1 ms per transaction, back to back. With snapshot reads the scan
/// never touches the lock manager and proceeds at heap-walk speed; the
/// locking ablation's table S queues behind the writer's IX every time, so
/// per-scan latency absorbs the writer's hold time.
void SnapshotScanUnderWritersBody(benchmark::State& state, bool mvcc_reads) {
  MvccMixStack s(mvcc_reads);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      RowId rid = 1 + (++k * 2654435761u) % MvccMixStack::kRows;
      auto txn = s.tm->Begin(IsolationLevel::kSerializable);
      Status st = s.tm->Update(
          txn.get(), "Mix", rid,
          Row({Value::Int(static_cast<int64_t>(rid) - 1),
               Value::Int(static_cast<int64_t>(k))}));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (st.ok()) {
        (void)s.tm->Commit(txn.get());
      } else {
        (void)s.tm->Abort(txn.get());
      }
    }
  });
  for (auto _ : state) {
    auto txn = s.tm->Begin(IsolationLevel::kReadCommitted);
    auto cursor = s.tm->OpenCursor(txn.get(), s.table,
                                   AccessPlan::TableScan(),
                                   ReadOrigin::kStatement);
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      stop.store(true);
      writer.join();
      return;
    }
    int64_t sum = 0;
    RowId rid = 0;
    const Row* row = nullptr;
    while (cursor.value()->NextRef(&rid, &row).value()) {
      sum += (*row)[1].as_int();
    }
    benchmark::DoNotOptimize(sum);
    cursor.value().reset();
    (void)s.tm->Commit(txn.get());
  }
  stop.store(true);
  writer.join();
  state.counters["snapshot_reads"] =
      static_cast<double>(s.tm->stats().snapshot_reads.load());
  state.counters["versions_created"] =
      static_cast<double>(s.tm->stats().versions_created.load());
}

void BM_SnapshotScanUnderWriters(benchmark::State& state) {
  SnapshotScanUnderWritersBody(state, /*mvcc_reads=*/true);
}
BENCHMARK(BM_SnapshotScanUnderWriters)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_SnapshotScanUnderWritersLocking(benchmark::State& state) {
  SnapshotScanUnderWritersBody(state, /*mvcc_reads=*/false);
}
BENCHMARK(BM_SnapshotScanUnderWritersLocking)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// The sharded twin of SqlStack: the same 500-user travel database behind a
/// hash-partitioned router (User/Flight partition by primary key, Friends/
/// Reserve broadcast).
struct ShardedStack {
  std::unique_ptr<shard::Router> router;

  explicit ShardedStack(size_t num_shards) {
    shard::Router::Options opts;
    opts.num_shards = num_shards;
    router = shard::Router::Open(opts).value();
    workload::TravelDataOptions topts;
    topts.num_users = 500;
    topts.edges_per_node = 4;
    topts.num_cities = 6;
    (void)workload::TravelData::Build(router.get(), topts).value();
  }
};

void BM_ShardedPointSelect(benchmark::State& state) {
  // The same point select as BM_PointSelect, through the 4-shard router:
  // the plan pins the partition key, so exactly one shard is touched and
  // the commit takes the one-phase fast path. The acceptance bar is ~2x of
  // the unsharded point select (routing hash + branch enlistment + tagging
  // are the only additions).
  ShardedStack s(4);
  sql::Session session(s.router.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Execute("SELECT @uid, @hometown FROM User WHERE uid=77"));
  }
  TxnStats& st = s.router->stats();
  state.counters["shard_routed_lookups"] = benchmark::Counter(
      static_cast<double>(st.shard_routed_lookups.load()),
      benchmark::Counter::kAvgIterations);
  state.counters["single_shard_txns"] = benchmark::Counter(
      static_cast<double>(st.single_shard_txns.load()),
      benchmark::Counter::kAvgIterations);
  state.counters["two_phase_commits"] =
      static_cast<double>(st.two_phase_commits.load());
}
BENCHMARK(BM_ShardedPointSelect)->Unit(benchmark::kMicrosecond);

void BM_ShardedScan(benchmark::State& state) {
  // An uncovered predicate over the partitioned User table: fans out to
  // every shard and merges (each iteration is one fanout cursor).
  ShardedStack s(4);
  sql::Session session(s.router.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Execute("SELECT @uid FROM User WHERE hometown='CITY01'"));
  }
  state.counters["fanout_cursors"] = benchmark::Counter(
      static_cast<double>(s.router->stats().fanout_cursors.load()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ShardedScan)->Unit(benchmark::kMicrosecond);

/// A 32k-row partitioned table for the fanout/aggregate scaling benches:
/// Wide(id PK, a = id*7, b = id%97 — 97 groups).
constexpr int64_t kWideRows = 32768;

std::unique_ptr<shard::Router> MakeWideRouter(size_t num_shards) {
  shard::Router::Options opts;
  opts.num_shards = num_shards;
  auto router = shard::Router::Open(opts).value();
  Schema schema({{"id", TypeId::kInt64},
                 {"a", TypeId::kInt64},
                 {"b", TypeId::kInt64}});
  schema.set_primary_key({0});
  (void)router->CreateTable("Wide", schema).value();
  for (int64_t i = 0; i < kWideRows; ++i) {
    (void)router->Load("Wide", Row({Value::Int(i), Value::Int(i * 7),
                                    Value::Int(i % 97)}));
  }
  return router;
}

void BM_ShardedScanFanout(benchmark::State& state) {
  // Fanout scaling: one full scan of a 32k-row partitioned table at 1, 2,
  // and 4 shards. The per-shard heap walks run on one thread per shard, so
  // wall time falls as shards grow — on multi-core hardware. On a 1-vCPU
  // box the threads timeslice one core and wall time stays flat; the CPU
  // column still shows the serving thread's share dropping with shard
  // count (the drains moved off it).
  const size_t num_shards = static_cast<size_t>(state.range(0));
  auto router = MakeWideRouter(num_shards);
  constexpr int64_t kRows = kWideRows;
  for (auto _ : state) {
    auto txn = router->Begin(IsolationLevel::kSerializable);
    auto cursor = router->OpenCursor(txn.get(), "Wide",
                                     AccessPlan::TableScan(),
                                     ReadOrigin::kStatement);
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      return;
    }
    int64_t rows = 0, sum = 0;
    RowId rid = 0;
    const Row* row = nullptr;
    while (cursor.value()->NextRef(&rid, &row).value()) {
      ++rows;
      sum += (*row)[1].as_int();
    }
    benchmark::DoNotOptimize(sum);
    cursor.value().reset();
    (void)router->Commit(txn.get());
    if (rows != kRows) {
      state.SkipWithError("sharded scan returned wrong row count");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["fanout_cursors"] = benchmark::Counter(
      static_cast<double>(router->stats().fanout_cursors.load()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ShardedScanFanout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ShardedScanBatchSweep(benchmark::State& state) {
  // Consumer-side pacing sweep over the 4-shard fanout scan: max_rows = 1
  // is the scalar row-at-a-time pull loop (one virtual call per row);
  // larger targets move whole merged chunks across the cursor seam per
  // call, so per-row cost falls as the batch grows.
  const size_t batch = static_cast<size_t>(state.range(0));
  auto router = MakeWideRouter(4);
  for (auto _ : state) {
    auto txn = router->Begin(IsolationLevel::kSerializable);
    auto cursor = router->OpenCursor(txn.get(), "Wide",
                                     AccessPlan::TableScan(),
                                     ReadOrigin::kStatement);
    if (!cursor.ok()) {
      state.SkipWithError(cursor.status().ToString().c_str());
      return;
    }
    int64_t rows = 0, sum = 0;
    if (batch <= 1) {
      RowId rid = 0;
      Row row;
      while (cursor.value()->Next(&rid, &row).value()) {
        ++rows;
        sum += row[1].as_int();
      }
    } else {
      RowBatch rb;
      while (cursor.value()->NextBatch(&rb, batch).value()) {
        rows += static_cast<int64_t>(rb.size());
        for (const auto& [rid, row] : rb.rows) sum += row[1].as_int();
      }
    }
    benchmark::DoNotOptimize(sum);
    cursor.value().reset();
    (void)router->Commit(txn.get());
    if (rows != kWideRows) {
      state.SkipWithError("sharded batch scan returned wrong row count");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kWideRows);
}
BENCHMARK(BM_ShardedScanBatchSweep)
    ->Arg(1)
    ->Arg(32)
    ->Arg(256)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_GroupByAggregate(benchmark::State& state) {
  // One GROUP BY over the 32k-row partitioned table (97 groups, four
  // aggregate columns), through the full SQL path. Each shard folds its
  // partition inside its own drain thread and only 97 partial states per
  // shard reach the coordinator.
  const size_t num_shards = static_cast<size_t>(state.range(0));
  auto router = MakeWideRouter(num_shards);
  sql::Session session(router.get());
  for (auto _ : state) {
    auto res = session.Execute(
        "SELECT b, COUNT(*), SUM(a), MIN(a), MAX(a) FROM Wide GROUP BY b");
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    if (res.value().rows.size() != 97u) {
      state.SkipWithError("aggregate returned wrong group count");
      return;
    }
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * kWideRows);
  state.counters["aggregate_pushdowns"] = benchmark::Counter(
      static_cast<double>(router->stats().aggregate_pushdowns.load()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GroupByAggregate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Insert(benchmark::State& state) {
  SqlStack s;
  sql::Session session(s.tm.get());
  int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Execute(
        "INSERT INTO Reserve (uid, fid) VALUES (" + std::to_string(++k) +
        ", 100)"));
  }
}
BENCHMARK(BM_Insert)->Unit(benchmark::kMicrosecond);

void BM_CompileEntangled(benchmark::State& state) {
  SqlStack s;
  auto parsed = sql::Parser::ParseStatement(kEntangledSql).value();
  sql::VarEnv vars;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eq::Compiler::Compile(*parsed.entangled, vars, s.db, "bench"));
  }
}
BENCHMARK(BM_CompileEntangled)->Unit(benchmark::kMicrosecond);

void BM_GroundEntangled(benchmark::State& state) {
  // Grounds Friends(x,y), User(x,c), User(y,c): the Friends scan drives
  // per-binding primary-key probes into both User atoms.
  SqlStack s;
  auto parsed = sql::Parser::ParseStatement(kEntangledPairSql).value();
  sql::VarEnv vars;
  auto spec = eq::Compiler::Compile(*parsed.entangled, vars, s.db, "bench")
                  .value();
  for (auto _ : state) {
    auto txn = s.tm->Begin();
    benchmark::DoNotOptimize(eq::Grounder::Ground(spec, s.tm.get(),
                                                  txn.get()));
    (void)s.tm->Commit(txn.get());
  }
  state.counters["grounding_join_probes"] = benchmark::Counter(
      static_cast<double>(s.tm->stats().grounding_join_probes.load()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GroundEntangled)->Unit(benchmark::kMicrosecond);

void BM_GroundEntangledSnapshot(benchmark::State& state) {
  // Same body with probes disabled: one full snapshot per atom,
  // cross-filtered — O(|Friends| * |User|) valuation attempts.
  SqlStack s;
  auto parsed = sql::Parser::ParseStatement(kEntangledPairSql).value();
  sql::VarEnv vars;
  auto spec = eq::Compiler::Compile(*parsed.entangled, vars, s.db, "bench")
                  .value();
  eq::Grounder::Options opts;
  opts.use_index_probes = false;
  for (auto _ : state) {
    auto txn = s.tm->Begin();
    benchmark::DoNotOptimize(eq::Grounder::Ground(spec, s.tm.get(),
                                                  txn.get(), opts));
    (void)s.tm->Commit(txn.get());
  }
}
BENCHMARK(BM_GroundEntangledSnapshot)->Unit(benchmark::kMicrosecond);

/// Durable 4-shard stack for the commit-path benches: WAL-backed router in a
/// scratch dir; keys come from one atomic counter so every insert is a fresh
/// row regardless of thread or rerun.
struct GroupCommitStack {
  std::string dir;
  std::unique_ptr<shard::Router> router;
  std::atomic<int64_t> next_key{1};
  uint64_t commits0 = 0, flushes0 = 0;
  HistogramSnapshot commit_hist0;

  explicit GroupCommitStack(bool group_commit) {
    static std::atomic<int> seq{0};
    dir = (std::filesystem::temp_directory_path() /
           ("yt_bench_gc_" + std::to_string(::getpid()) + "_" +
            std::to_string(seq.fetch_add(1))))
              .string();
    std::filesystem::remove_all(dir);
    shard::Router::Options opts;
    opts.num_shards = 4;
    opts.dir = dir;
    router = shard::Router::Open(opts).value();
    Schema schema({{"id", TypeId::kInt64}, {"v", TypeId::kInt64}});
    schema.set_primary_key({0});
    (void)router->CreateTable("acct", schema).value();
    router->set_group_commit_enabled(group_commit);
    commits0 = router->stats().commits.load();
    flushes0 = router->stats().wal_flushes.load();
    commit_hist0 =
        MetricsRegistry::Global()->MergedHistogram("txn.commit_micros.");
  }
  ~GroupCommitStack() {
    router.reset();
    std::filesystem::remove_all(dir);
  }
};

std::unique_ptr<GroupCommitStack> g_gc_stack;  // NOLINT

/// N threads each run autocommit single-row inserts against the durable
/// router. With group commit on, concurrent committers ride one WAL flush
/// — leader pacing (100 us) holds the batch window open, so throughput
/// scales with committers while flushes_per_commit falls toward 1/N. The
/// Solo ablation performs a flush per commit at any thread count. (The
/// smoke tree runs fflush-only; under sync_on_flush the flush dominates
/// and the counter gap becomes the wall-clock gap.)
void GroupCommitBody(benchmark::State& state, bool group_commit) {
  if (state.thread_index() == 0) {
    g_gc_stack = std::make_unique<GroupCommitStack>(group_commit);
    if (group_commit) g_gc_stack->router->set_group_commit_delay_micros(100);
  }
  for (auto _ : state) {
    GroupCommitStack& s = *g_gc_stack;
    int64_t key = s.next_key.fetch_add(1);
    auto txn = s.router->Begin();
    Status st =
        s.router
            ->Insert(txn.get(), "acct", Row({Value::Int(key), Value::Int(0)}))
            .status();
    if (st.ok()) st = s.router->Commit(txn.get());
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const double commits = static_cast<double>(
        g_gc_stack->router->stats().commits.load() - g_gc_stack->commits0);
    const double flushes = static_cast<double>(
        g_gc_stack->router->stats().wal_flushes.load() - g_gc_stack->flushes0);
    state.counters["commits"] = commits;
    state.counters["wal_flushes"] = flushes;
    state.counters["flushes_per_commit"] =
        commits > 0 ? flushes / commits : 0.0;
    // Commit latency percentiles for THIS bench run: the global histogram
    // minus its state at stack creation (bucket counts subtract exactly).
    HistogramSnapshot delta =
        MetricsRegistry::Global()->MergedHistogram("txn.commit_micros.");
    delta.count -= g_gc_stack->commit_hist0.count;
    delta.sum -= g_gc_stack->commit_hist0.sum;
    for (int i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      delta.buckets[i] -= g_gc_stack->commit_hist0.buckets[i];
    }
    state.counters["commit_p50_us"] = delta.p50();
    state.counters["commit_p95_us"] = delta.p95();
    state.counters["commit_p99_us"] = delta.p99();
    g_gc_stack.reset();
  }
}

void BM_GroupCommit(benchmark::State& state) {
  GroupCommitBody(state, /*group_commit=*/true);
}
BENCHMARK(BM_GroupCommit)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_GroupCommitMetricsOff(benchmark::State& state) {
  // Instrumentation ablation for the durable commit path (flush-wait
  // recorders, batch histograms, 2PC spans all gated off). Compare against
  // BM_GroupCommit at the same thread count; budget <= 5%.
  if (state.thread_index() == 0) set_metrics_enabled(false);
  GroupCommitBody(state, /*group_commit=*/true);
  if (state.thread_index() == 0) set_metrics_enabled(true);
}
BENCHMARK(BM_GroupCommitMetricsOff)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_GroupCommitSolo(benchmark::State& state) {
  GroupCommitBody(state, /*group_commit=*/false);
}
BENCHMARK(BM_GroupCommitSolo)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Arg(0) sessions of autocommit inserts through the SessionServer. The
/// multiplexed variant serves them all on 2 worker threads (a blocked commit
/// parks its ticket and the worker drives another session); the ThreadPer
/// baseline spends one thread per session. Leader pacing is on (100 us) so
/// the batch window is real in both.
void ManySessionsBody(benchmark::State& state, bool thread_per_session) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  GroupCommitStack s(/*group_commit=*/true);
  s.router->set_group_commit_delay_micros(100);
  sql::SessionServer server(
      s.router.get(),
      sql::SessionServer::Options{thread_per_session ? sessions : 2});
  std::vector<sql::SessionServer::SessionId> ids;
  ids.reserve(sessions);
  for (size_t i = 0; i < sessions; ++i) ids.push_back(server.OpenSession());
  for (auto _ : state) {
    for (size_t i = 0; i < sessions; ++i) {
      server.Submit(ids[i],
                    "INSERT INTO acct VALUES (" +
                        std::to_string(s.next_key.fetch_add(1)) + ", 0)");
    }
    server.Drain();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(sessions));
  state.counters["server_threads"] = static_cast<double>(server.num_threads());
  state.counters["parked_runs"] = static_cast<double>(server.parked_runs());
  state.counters["wal_flushes"] =
      static_cast<double>(s.router->stats().wal_flushes.load() - s.flushes0);
}

void BM_ManySessions(benchmark::State& state) {
  ManySessionsBody(state, /*thread_per_session=*/false);
}
BENCHMARK(BM_ManySessions)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ManySessionsThreadPer(benchmark::State& state) {
  ManySessionsBody(state, /*thread_per_session=*/true);
}
BENCHMARK(BM_ManySessionsThreadPer)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace youtopia::bench

// Custom main instead of BENCHMARK_MAIN(): refuses to record numbers from an
// assert-enabled binary (scripts/check.sh greps the emitted context to make
// the same refusal on the JSON side). The system benchmark *library* reports
// its own build type; `youtopia_build_type` reports ours.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("youtopia_build_type", "release");
#else
  benchmark::AddCustomContext("youtopia_build_type", "debug");
  if (std::getenv("YOUTOPIA_ALLOW_DEBUG_BENCH") == nullptr) {
    std::fprintf(stderr,
                 "bench_sql: refusing to bench an assert-enabled build; use "
                 "-DCMAKE_BUILD_TYPE=Release (or set "
                 "YOUTOPIA_ALLOW_DEBUG_BENCH=1 to override)\n");
    return 1;
  }
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // Metrics exposition on exit, to stderr so JSON output stays parseable.
  std::fprintf(stderr, "--- metrics snapshot ---\n%s",
               youtopia::MetricsRegistry::Global()->DumpText().c_str());
  benchmark::Shutdown();
  return 0;
}
