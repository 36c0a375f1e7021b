#ifndef PERFBENCH_TRAVEL_STACK_H_
#define PERFBENCH_TRAVEL_STACK_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/lock/lock_manager.h"
#include "src/storage/database.h"
#include "src/txn/transaction_manager.h"
#include "src/wal/wal_writer.h"
#include "src/workload/travel_data.h"

namespace perfbench {

/// A durable single-node engine over the paper's §D travel database:
/// TransactionManager + LockManager + WAL (fflush per group-commit batch,
/// no fsync) in `dir`. TravelData loads rows without logging them, so the
/// set-up ends with a checkpoint: the WAL then starts with a reference to
/// the checkpoint image, and recovery rebuilds the loaded rows from it
/// before replaying the run's log.
struct TravelStack {
  youtopia::Database db;
  youtopia::LockManager locks;
  youtopia::WalWriter wal;
  std::unique_ptr<youtopia::TransactionManager> tm;
  youtopia::workload::TravelData data;
  std::string dir;

  static youtopia::StatusOr<std::unique_ptr<TravelStack>> Build(
      const std::string& dir, youtopia::workload::TravelDataOptions data_opts,
      youtopia::IsolationLevel default_isolation);

  std::string wal_path() const { return dir + "/wal.log"; }
};

/// (uid, fid) multiset of a Reserve table.
std::map<std::pair<int64_t, int64_t>, int> ReserveRows(
    const youtopia::Database& db);

/// Compares two Reserve multisets; returns "" when equal.
std::string CompareReserve(
    const std::map<std::pair<int64_t, int64_t>, int>& got,
    const std::map<std::pair<int64_t, int64_t>, int>& want);

}  // namespace perfbench

#endif  // PERFBENCH_TRAVEL_STACK_H_
