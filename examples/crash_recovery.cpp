// Entanglement-aware crash recovery (paper §4): two transactions entangle
// and write their bookings, then commit as one group. The group's single
// GROUP_COMMIT record decides both members. In case 1 the process crashes
// while that record is being forced to disk, so recovery must roll BOTH
// back: keeping one half would leave a durable widowed transaction. In
// case 2 the record made it and both bookings survive.
//
// Exits non-zero when recovery rebuilds anything other than what is
// printed as expected.

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/common/fault.h"
#include "src/txn/transaction_manager.h"
#include "src/wal/recovery.h"
#include "src/wal/wal_writer.h"

using namespace youtopia;

namespace {

Schema BookingSchema() {
  return Schema({{"name", TypeId::kString}, {"fno", TypeId::kInt64}});
}

Status Scenario(const std::string& wal_path, bool crash_on_group_commit) {
  Database db;
  LockManager locks;
  WalWriter wal;
  YT_RETURN_IF_ERROR(wal.Open(wal_path, {}, /*truncate=*/true));
  TransactionManager tm(&db, &locks, &wal);
  YT_RETURN_IF_ERROR(tm.CreateTable("Bookings", BookingSchema()).status());

  auto mickey = tm.Begin();
  auto minnie = tm.Begin();
  YT_RETURN_IF_ERROR(
      tm.Insert(mickey.get(), "Bookings",
                Row({Value::Str("Mickey"), Value::Int(122)}))
          .status());
  YT_RETURN_IF_ERROR(
      tm.Insert(minnie.get(), "Bookings",
                Row({Value::Str("Minnie"), Value::Int(122)}))
          .status());
  // They entangled on flight 122; that writes nothing to the log.
  YT_RETURN_IF_ERROR(tm.LogEntangle(1, {mickey.get(), minnie.get()}));

  FaultInjector* fi = FaultInjector::Global();
  if (crash_on_group_commit) {
    // Crash injection: the process dies while forcing the GROUP_COMMIT.
    FaultInjector::SiteConfig crash;
    crash.action = FaultInjector::Action::kCrash;
    crash.nth = 1;
    fi->Arm("wal.group_flush", crash);
  }
  Status st = tm.CommitGroup({mickey.get(), minnie.get()});
  if (crash_on_group_commit) {
    if (st.ok() || !fi->crashed()) {
      return Status::Internal("the armed crash did not stop the commit");
    }
    std::printf("  ...crash while forcing the GROUP_COMMIT: %s\n",
                st.ToString().c_str());
  } else {
    YT_RETURN_IF_ERROR(st);
    std::printf("  ...group committed cleanly, then crash\n");
  }
  return Status::Ok();  // drop everything: the "crash"
}

Status Recover(const std::string& wal_path, size_t expected_rows) {
  FaultInjector::Global()->Reset();
  YT_ASSIGN_OR_RETURN(RecoveryManager::Result r,
                      RecoveryManager::Recover(wal_path));
  std::printf("  recovery: %zu durably committed, %zu discarded\n",
              r.committed.size(), r.discarded.size());
  Table* t = r.db->GetTable("Bookings").value();
  std::printf("  Bookings after recovery (%zu rows):\n", t->size());
  t->Scan([](RowId, const Row& row) {
    std::printf("    %s flight %s\n", row[0].as_string().c_str(),
                row[1].ToString().c_str());
    return true;
  });
  if (t->size() != expected_rows) {
    return Status::Internal("recovered " + std::to_string(t->size()) +
                            " bookings, expected " +
                            std::to_string(expected_rows));
  }
  return Status::Ok();
}

}  // namespace

int main() {
  const std::string wal_path =
      (std::filesystem::temp_directory_path() / "yt_example_crash.walog")
          .string();

  std::printf("Case 1: a crash while the group commit is forced\n");
  if (Status s = Scenario(wal_path, /*crash_on_group_commit=*/true);
      !s.ok()) {
    std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = Recover(wal_path, /*expected_rows=*/0); !s.ok()) {
    std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  => neither booking survived: no durable widow.\n\n");

  std::printf("Case 2: the GROUP_COMMIT record made it\n");
  if (Status s = Scenario(wal_path, /*crash_on_group_commit=*/false);
      !s.ok()) {
    std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = Recover(wal_path, /*expected_rows=*/2); !s.ok()) {
    std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("  => both bookings durable: the group is atomic.\n");
  std::remove(wal_path.c_str());
  return 0;
}
