#ifndef YOUTOPIA_STORAGE_CURSOR_H_
#define YOUTOPIA_STORAGE_CURSOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/storage/table.h"

namespace youtopia {

/// The access path chosen for one table read: a full heap scan, an index
/// equality lookup with the key values already coerced to the indexed
/// columns' types, or an ordered-index range scan over an interval built
/// from equality-prefix + range-suffix conjuncts (and/or an ORDER BY
/// request). This is the contract between planners (sql::Planner, the
/// grounder's atom planning) and the transaction manager: a planner emits an
/// AccessPlan, TransactionManager::OpenCursor interprets it and hands back a
/// TableCursor under the right locks. Plans only prune, never change
/// results — consumers re-evaluate their full predicate on every row.
struct AccessPlan {
  enum class Kind { kTableScan, kIndexLookup, kIndexRange };

  Kind kind = Kind::kTableScan;
  std::vector<size_t> columns;  ///< index columns (schema positions); for
                                ///< kIndexRange the FULL index column set
  Row key;                      ///< kIndexLookup: key, in `columns` order
  IndexRange range;             ///< kIndexRange: scanned interval (bounds
                                ///< may be prefix rows)
  bool reverse = false;         ///< kIndexRange: scan descending
  int64_t limit = -1;           ///< kIndexRange: row cap (-1 = unlimited)
  size_t null_filter_from = 0;  ///< kIndexRange: IndexRangeSpec semantics

  // Planner annotations the transaction manager ignores:
  bool ordered = false;         ///< kIndexRange: output satisfies the
                                ///< requested ORDER BY without a sort
  bool covers_where = false;    ///< every WHERE conjunct absorbed into the
                                ///< plan (no residual; LIMIT may push down)

  bool is_scan() const { return kind == Kind::kTableScan; }
  bool is_index() const { return kind == Kind::kIndexLookup; }
  bool is_range() const { return kind == Kind::kIndexRange; }

  static AccessPlan TableScan() { return AccessPlan{}; }
  static AccessPlan Lookup(std::vector<size_t> columns, Row key);
  static AccessPlan Range(IndexRangeSpec spec);

  /// The storage-level range spec of a kIndexRange plan.
  IndexRangeSpec ToRangeSpec() const;

  std::string ToString() const;
};

/// A batch of rows pulled through the cursor seam in one virtual call.
/// Column-agnostic: rows keep their Row shape, so any cursor type can fill
/// one. The (RowId, Row) pair layout deliberately matches every internal
/// materialization buffer in the engine (heap-scan chunks, merged fan-out
/// sources), which lets NextBatch hand whole chunks over by swap/move
/// instead of element-wise push_back.
/// Consumers move rows out and reuse the batch object across pulls — the
/// vector's capacity then ping-pongs between producer and consumer with no
/// steady-state allocation.
struct RowBatch {
  /// Default pull target, and the heap-scan chunk size, so a batched pull
  /// of a heap scan maps 1:1 onto one materialized chunk.
  static constexpr size_t kDefaultRows = 256;

  std::vector<std::pair<RowId, Row>> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
  void clear() { rows.clear(); }
  void reserve(size_t n) { rows.reserve(n); }
};

/// Pull-based cursor over one table read — every read access path (heap
/// scan, hash lookup, range lookup) produces one. Row locks are acquired as
/// rows are pulled, so lock acquisition can fail mid-read: a pull returns a
/// Status for that, or false/true for end/rows. Destroying a cursor closes
/// it (performs the isolation level's early lock release); a consumer that
/// stops early just drops the cursor.
///
/// A cursor implements one pull, NextBatch. The row-at-a-time pulls
/// (NextRef, Next) and DrainRef are defaults over it; they stay virtual only
/// so a decorator that wraps a cursor (a tracing layer timing every pull)
/// can intercept each entry point and forward it unchanged.
///
/// Exhaustion contract (all cursor types): once a cursor has reported
/// end-of-rows — through pulls or a drain that ran to completion — every
/// further pull returns false and every further drain visits nothing and
/// returns Ok. A drain whose *visitor* stopped early may have consumed the
/// rest of the current batch — callers must not resume a drain they cut
/// short; drop the cursor instead.
class TableCursor {
 public:
  virtual ~TableCursor() = default;

  /// Pulls the next batch of rows into `*batch` (cleared first), by move
  /// where the cursor owns its buffer. Returns at most `max_rows` rows (0
  /// counts as 1); a cursor holding an already-materialized chunk that fits
  /// hands it over whole by swap. Returns false only at end, with the batch
  /// left empty; a true return carries at least one row.
  virtual StatusOr<bool> NextBatch(
      RowBatch* batch, size_t max_rows = RowBatch::kDefaultRows) = 0;

  /// Pulls the next row as a borrowed view: `*row` stays valid until the
  /// next pull or the cursor's destruction. Returns false at end. Lends
  /// from a one-row NextBatch.
  virtual StatusOr<bool> NextRef(RowId* rid, const Row** row);

  /// Pulls the next row into `*row` by move, through a one-row NextBatch.
  /// Returns false at end.
  virtual StatusOr<bool> Next(RowId* rid, Row* row);

  /// Approximate number of rows left to pull (0 = unknown). A sizing hint
  /// for result-vector reserves, never a contract: filters and concurrent
  /// activity can make the real count smaller or larger.
  virtual size_t size_hint() const { return 0; }

  /// Drains the cursor through a move-taking visitor (returns false to
  /// stop early), one default-sized NextBatch at a time.
  Status Drain(const std::function<bool(RowId, Row&&)>& visitor);

  /// Drains the cursor through a borrowing visitor (returns false to stop
  /// early); the same batched walk as Drain.
  virtual Status DrainRef(const std::function<bool(RowId, const Row&)>& visitor);

 private:
  RowBatch one_;  ///< the one-row batch NextRef lends from and Next moves from
};

}  // namespace youtopia

#endif  // YOUTOPIA_STORAGE_CURSOR_H_
