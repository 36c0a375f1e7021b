#ifndef YOUTOPIA_SHARD_SHARD_MAP_H_
#define YOUTOPIA_SHARD_SHARD_MAP_H_

#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/cursor.h"

namespace youtopia::shard {

/// Table -> partition-column-set -> shard routing for the hash-partitioned
/// engine. A *partitioned* table's rows live on exactly one shard each,
/// chosen by the 64-bit hash of the row's projection onto the partition
/// columns (by default the table's primary key). A *broadcast* table (no
/// partition columns — small or unpartitionable relations) is fully
/// replicated on every shard: reads go to shard 0, writes to all replicas.
///
/// Routing interprets the engine-wide AccessPlan vocabulary:
///   * a point lookup (or single-key join probe) whose key pins every
///     partition column routes to exactly one shard;
///   * a range whose equality prefix pins every partition column routes to
///     one shard too;
///   * everything else — full scans, open ranges, lookups missing a
///     partition column — fans out to all shards (kAllShards).
/// Routing only prunes shards that cannot hold matching rows; it never
/// changes results.
class ShardMap {
 public:
  static constexpr size_t kAllShards = static_cast<size_t>(-1);

  explicit ShardMap(size_t num_shards) : num_shards_(num_shards) {}

  size_t num_shards() const { return num_shards_; }

  /// Registers `table` as partitioned by `columns` (schema positions), or
  /// as broadcast when `columns` is empty. Called once per table at DDL
  /// time (re-registering overwrites).
  void SetPartitioning(const std::string& table, std::vector<size_t> columns);

  /// Partition column positions; empty for broadcast tables. Unregistered
  /// tables are treated as broadcast (single replica set — with one shard
  /// the distinction vanishes anyway).
  std::vector<size_t> PartitionColumns(const std::string& table) const;
  bool IsBroadcast(const std::string& table) const {
    return PartitionColumns(table).empty();
  }

  /// Owning shard for the projected partition-column values themselves.
  size_t ShardOfKey(const Row& partition_values) const;

  // Routing over a table's partition columns `pcols`, as PartitionColumns
  // returns them: a caller that routes several times reads them once. The
  // table-name forms read them first. Broadcast tables (empty `pcols`)
  // always route to shard 0, the read replica.

  /// Owning shard of a full (schema-ordered, coerced) row.
  size_t ShardOfRow(const std::vector<size_t>& pcols, const Row& row) const;
  size_t ShardOfRow(const std::string& table, const Row& row) const {
    return ShardOfRow(PartitionColumns(table), row);
  }

  /// The single shard `plan` can touch, or kAllShards when it must fan
  /// out.
  size_t RouteRead(const std::vector<size_t>& pcols,
                   const AccessPlan& plan) const;
  size_t RouteRead(const std::string& table, const AccessPlan& plan) const {
    return RouteRead(PartitionColumns(table), plan);
  }

 private:
  size_t num_shards_;
  mutable std::shared_mutex mu_;
  /// Partition columns per table; empty vector = broadcast.
  std::unordered_map<std::string, std::vector<size_t>> tables_;
};

}  // namespace youtopia::shard

#endif  // YOUTOPIA_SHARD_SHARD_MAP_H_
