#include "perfbench/src/travel_stack.h"

#include "perfbench/src/common.h"

namespace perfbench {

youtopia::StatusOr<std::unique_ptr<TravelStack>> TravelStack::Build(
    const std::string& dir, youtopia::workload::TravelDataOptions data_opts,
    youtopia::IsolationLevel default_isolation) {
  ResetDir(dir);
  auto s = std::make_unique<TravelStack>();
  s->dir = dir;
  youtopia::WalWriter::Options wo;
  wo.sync_on_flush = false;
  YT_RETURN_IF_ERROR(s->wal.Open(s->wal_path(), wo, /*truncate=*/true));
  youtopia::TransactionManager::Options to;
  to.default_isolation = default_isolation;
  s->tm = std::make_unique<youtopia::TransactionManager>(&s->db, &s->locks,
                                                         &s->wal, to);
  YT_ASSIGN_OR_RETURN(s->data, youtopia::workload::TravelData::Build(
                                   s->tm.get(), data_opts));
  YT_RETURN_IF_ERROR(s->tm->Checkpoint(dir + "/checkpoint.img"));
  return s;
}

std::map<std::pair<int64_t, int64_t>, int> ReserveRows(
    const youtopia::Database& db) {
  std::map<std::pair<int64_t, int64_t>, int> rows;
  auto t = db.GetTable("Reserve");
  if (!t.ok()) return rows;
  t.value()->Scan([&](youtopia::RowId, const youtopia::Row& row) {
    ++rows[{row[0].as_int(), row[1].as_int()}];
    return true;
  });
  return rows;
}

std::string CompareReserve(
    const std::map<std::pair<int64_t, int64_t>, int>& got,
    const std::map<std::pair<int64_t, int64_t>, int>& want) {
  if (got == want) return "";
  size_t missing = 0, extra = 0;
  for (const auto& [k, n] : want) {
    auto it = got.find(k);
    const int have = it == got.end() ? 0 : it->second;
    if (have < n) missing += static_cast<size_t>(n - have);
  }
  for (const auto& [k, n] : got) {
    auto it = want.find(k);
    const int expect = it == want.end() ? 0 : it->second;
    if (n > expect) extra += static_cast<size_t>(n - expect);
  }
  return "Reserve has " + std::to_string(missing) +
         " acknowledged rows missing and " + std::to_string(extra) +
         " rows nobody was acknowledged for";
}

}  // namespace perfbench
