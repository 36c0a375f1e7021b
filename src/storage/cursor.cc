#include "src/storage/cursor.h"

namespace youtopia {

AccessPlan AccessPlan::Lookup(std::vector<size_t> columns, Row key) {
  AccessPlan plan;
  plan.kind = Kind::kIndexLookup;
  plan.columns = std::move(columns);
  plan.key = std::move(key);
  return plan;
}

AccessPlan AccessPlan::Range(IndexRangeSpec spec) {
  AccessPlan plan;
  plan.kind = Kind::kIndexRange;
  plan.columns = std::move(spec.columns);
  plan.range = std::move(spec.range);
  plan.reverse = spec.reverse;
  plan.limit = spec.limit;
  plan.null_filter_from = spec.null_filter_from;
  return plan;
}

IndexRangeSpec AccessPlan::ToRangeSpec() const {
  IndexRangeSpec spec;
  spec.columns = columns;
  spec.range = range;
  spec.reverse = reverse;
  spec.limit = limit;
  spec.null_filter_from = null_filter_from;
  return spec;
}

std::string AccessPlan::ToString() const {
  if (kind == Kind::kTableScan) return "scan";
  std::string s = std::string(is_index() ? "index(" : "range(");
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(columns[i]);
  }
  if (kind == Kind::kIndexLookup) return s + ")=" + key.ToString();
  s += ")=" + range.ToString();
  if (reverse) s += " desc";
  if (ordered) s += " ordered";
  if (covers_where) s += " covered";
  return s;
}

StatusOr<bool> TableCursor::NextRef(RowId* rid, const Row** row) {
  YT_ASSIGN_OR_RETURN(bool more, NextBatch(&one_, 1));
  if (!more) return false;
  *rid = one_.rows[0].first;
  *row = &one_.rows[0].second;
  return true;
}

StatusOr<bool> TableCursor::Next(RowId* rid, Row* row) {
  YT_ASSIGN_OR_RETURN(bool more, NextBatch(&one_, 1));
  if (!more) return false;
  *rid = one_.rows[0].first;
  *row = std::move(one_.rows[0].second);
  return true;
}

Status TableCursor::Drain(const std::function<bool(RowId, Row&&)>& visitor) {
  RowBatch batch;
  while (true) {
    YT_ASSIGN_OR_RETURN(bool more, NextBatch(&batch));
    if (!more) return Status::Ok();
    for (auto& [rid, row] : batch.rows) {
      if (!visitor(rid, std::move(row))) return Status::Ok();
    }
  }
}

Status TableCursor::DrainRef(
    const std::function<bool(RowId, const Row&)>& visitor) {
  return Drain([&](RowId rid, Row&& row) { return visitor(rid, row); });
}

}  // namespace youtopia
