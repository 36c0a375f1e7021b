#ifndef YOUTOPIA_SHARD_MERGED_CURSOR_H_
#define YOUTOPIA_SHARD_MERGED_CURSOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/storage/cursor.h"

namespace youtopia::shard {

/// TableCursor over the union of per-shard results of one fanned-out
/// AccessPlan. Each source holds one shard's rows, already materialized
/// (the router drains the per-shard cursors — in parallel — before
/// constructing this), with RowIds already shard-tagged.
///
/// Two serving modes:
///   * unordered (scans, fanned-out equality lookups): sources are
///     concatenated in shard order — consumers treat these plans as
///     unordered sets, exactly as single-node RowId order is incidental;
///   * ordered (kIndexRange plans): a k-way merge on the rows' projection
///     onto the index key columns, ascending by Value::Compare per column
///     (NULL first) or descending under `reverse`, ties broken by source
///     order — so ORDER-BY-pushdown plans keep their no-sort guarantee
///     across shards.
/// An overall `limit` caps the merged output (per-shard cursors have
/// already capped their own fetches, so top-limit-of-union is correct).
///
/// Like every TableCursor, pulling past the end keeps returning false and
/// draining an exhausted cursor visits nothing.
class MergedCursor : public TableCursor {
 public:
  struct Source {
    std::vector<std::pair<RowId, Row>> rows;
    size_t pos = 0;
  };

  MergedCursor(std::vector<Source> sources, std::vector<size_t> key_columns,
               bool reverse, int64_t limit, bool ordered)
      : sources_(std::move(sources)),
        key_columns_(std::move(key_columns)),
        reverse_(reverse),
        limit_(limit),
        ordered_(ordered) {}

  /// Unordered mode hands an untouched source buffer that fits in
  /// `max_rows` over by swap (zero row moves for the common whole-shard
  /// case) and otherwise bulk-moves source remainders; ordered mode runs
  /// the k-way merge loop once per batch instead of once per row.
  StatusOr<bool> NextBatch(RowBatch* batch, size_t max_rows) override;

  size_t size_hint() const override;

 private:
  /// Ordered mode: advances to the source holding the next row in key
  /// order; returns its index or -1 at end (or at the limit).
  int Advance();
  /// -1 / 0 / +1 between the key projections of two rows.
  int CompareKeys(const Row& a, const Row& b) const;

  std::vector<Source> sources_;
  std::vector<size_t> key_columns_;
  bool reverse_;
  int64_t limit_;
  bool ordered_;
  int64_t emitted_ = 0;
};

}  // namespace youtopia::shard

#endif  // YOUTOPIA_SHARD_MERGED_CURSOR_H_
