#include "src/shard/shard_map.h"

#include <algorithm>

namespace youtopia::shard {

void ShardMap::SetPartitioning(const std::string& table,
                               std::vector<size_t> columns) {
  std::unique_lock lock(mu_);
  tables_[table] = std::move(columns);
}

std::vector<size_t> ShardMap::PartitionColumns(const std::string& table) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? std::vector<size_t>() : it->second;
}

size_t ShardMap::ShardOfKey(const Row& partition_values) const {
  return partition_values.Hash() % num_shards_;
}

size_t ShardMap::ShardOfRow(const std::vector<size_t>& pcols,
                            const Row& row) const {
  if (pcols.empty()) return 0;
  std::vector<Value> vals;
  vals.reserve(pcols.size());
  for (size_t c : pcols) vals.push_back(row[c]);
  return ShardOfKey(Row(std::move(vals)));
}

size_t ShardMap::RouteRead(const std::vector<size_t>& pcols,
                           const AccessPlan& plan) const {
  if (pcols.empty()) return 0;
  // The plan pins `plan.columns[i] = key[i]` for every i < pinned; a single
  // shard is determined iff every partition column is among them.
  const Row* key = &plan.key;
  size_t pinned = plan.columns.size();
  switch (plan.kind) {
    case AccessPlan::Kind::kTableScan:
      return kAllShards;
    case AccessPlan::Kind::kIndexLookup:
      break;
    case AccessPlan::Kind::kIndexRange: {
      // A range pins a column only on its inclusive equality prefix:
      // lo[i] == hi[i] with both bounds present.
      const IndexRange& r = plan.range;
      if (r.lo_unbounded || r.hi_unbounded || !r.lo_incl || !r.hi_incl) {
        return kAllShards;
      }
      pinned = 0;
      size_t common = std::min(r.lo.size(), r.hi.size());
      while (pinned < common && r.lo[pinned] == r.hi[pinned]) ++pinned;
      key = &r.lo;
      break;
    }
  }
  std::vector<Value> vals;
  vals.reserve(pcols.size());
  for (size_t p : pcols) {
    size_t pos = static_cast<size_t>(
        std::find(plan.columns.begin(), plan.columns.end(), p) -
        plan.columns.begin());
    if (pos >= pinned) return kAllShards;
    vals.push_back((*key)[pos]);
  }
  return ShardOfKey(Row(std::move(vals)));
}

}  // namespace youtopia::shard
