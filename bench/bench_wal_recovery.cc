// Ablation: WAL durability costs and recovery speed — append/flush path,
// recovery replay time vs log size, and the checkpoint effect on recovery.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "src/txn/transaction_manager.h"
#include "src/wal/recovery.h"
#include "src/wal/wal_writer.h"

namespace youtopia::bench {
namespace {

Schema KV() {
  return Schema({{"k", TypeId::kInt64}, {"v", TypeId::kString}});
}

std::string TempPath(const char* tag) {
  return std::string("/tmp/yt_bench_") + tag + ".walog";
}

/// Writes a log with `n` committed single-insert transactions.
void BuildLog(const std::string& path, size_t n, bool checkpoint_halfway) {
  std::remove(path.c_str());
  std::remove((path + ".ckpt").c_str());
  Database db;
  LockManager locks;
  WalWriter wal;
  (void)wal.Open(path, {}, /*truncate=*/true);
  TransactionManager tm(&db, &locks, &wal);
  (void)tm.CreateTable("T", KV());
  for (size_t i = 0; i < n; ++i) {
    auto txn = tm.Begin();
    (void)tm.Insert(txn.get(), "T",
                    Row({Value::Int(static_cast<int64_t>(i)),
                         Value::Str("value-" + std::to_string(i))}));
    (void)tm.Commit(txn.get());
    if (checkpoint_halfway && i == n / 2) {
      (void)tm.Checkpoint(path + ".ckpt");
    }
  }
  (void)wal.Close();
}

void BM_WalAppendBuffered(benchmark::State& state) {
  std::string path = TempPath("append");
  WalWriter wal;
  (void)wal.Open(path, {}, true);
  int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(
        WalRecord::Insert(1, "T", ++k, Row({Value::Int(k)}))));
  }
  (void)wal.Close();
  std::remove(path.c_str());
}
BENCHMARK(BM_WalAppendBuffered);

void BM_WalAppendAndFlush(benchmark::State& state) {
  std::string path = TempPath("flush");
  WalWriter wal;
  (void)wal.Open(path, {}, true);
  int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.AppendAndFlush(
        WalRecord::Insert(1, "T", ++k, Row({Value::Int(k)}))));
  }
  (void)wal.Close();
  std::remove(path.c_str());
}
BENCHMARK(BM_WalAppendAndFlush)->Unit(benchmark::kMicrosecond);

void BM_Recovery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string path = TempPath(("recover_" + std::to_string(n)).c_str());
  BuildLog(path, n, /*checkpoint_halfway=*/false);
  for (auto _ : state) {
    auto r = RecoveryManager::Recover(path);
    benchmark::DoNotOptimize(r);
    if (!r.ok() || r.value().db->GetTable("T").value()->size() != n) {
      state.SkipWithError("recovery mismatch");
      return;
    }
  }
  state.counters["txns"] = static_cast<double>(n);
  std::remove(path.c_str());
}
BENCHMARK(BM_Recovery)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_RecoveryWithCheckpoint(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string path = TempPath(("recover_ckpt_" + std::to_string(n)).c_str());
  BuildLog(path, n, /*checkpoint_halfway=*/true);
  for (auto _ : state) {
    auto r = RecoveryManager::Recover(path);
    benchmark::DoNotOptimize(r);
    if (!r.ok() || r.value().db->GetTable("T").value()->size() != n) {
      state.SkipWithError("recovery mismatch");
      return;
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".ckpt").c_str());
}
BENCHMARK(BM_RecoveryWithCheckpoint)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// Checkpoint load alone: ~100k rows with a unique primary key and one
/// secondary hash index, saved once and reloaded from memory each
/// iteration (CRC, decode, heap and index inserts; no WAL, no disk).
void BM_CheckpointLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Schema schema({{"k", TypeId::kInt64},
                 {"city", TypeId::kString},
                 {"v", TypeId::kString}});
  schema.set_primary_key({0});
  Database db;
  Table* t = db.CreateTable("T", schema).value();
  (void)t->CreateIndex({"city"});
  for (size_t i = 0; i < n; ++i) {
    (void)t->Insert(Row({Value::Int(static_cast<int64_t>(i)),
                         Value::Str("city-" + std::to_string(i % 1000)),
                         Value::Str("value-" + std::to_string(i))}));
  }
  std::stringstream saved;
  (void)db.SaveTo(&saved);
  const std::string image = saved.str();
  for (auto _ : state) {
    std::istringstream in(image);
    auto loaded = Database::LoadFrom(&in);
    if (!loaded.ok() || loaded.value()->GetTable("T").value()->size() != n) {
      state.SkipWithError("checkpoint load mismatch");
      return;
    }
    benchmark::DoNotOptimize(loaded);
  }
  state.counters["rows"] = static_cast<double>(n);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_CheckpointLoad)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace youtopia::bench

BENCHMARK_MAIN();
