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
/// sources), which lets native NextBatch overrides hand whole chunks over
/// by swap/move instead of element-wise push_back.
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
/// rows are pulled, so lock acquisition can fail mid-read: Next returns a
/// Status for that, or false/true for end/row. Destroying a cursor closes
/// it (performs the isolation level's early lock release); a consumer that
/// stops early just drops the cursor.
class TableCursor {
 public:
  virtual ~TableCursor() = default;

  /// Pulls the next row as a borrowed view: `*row` stays valid until the
  /// next pull or the cursor's destruction. Returns false at end.
  virtual StatusOr<bool> NextRef(RowId* rid, const Row** row) = 0;

  /// Pulls the next row into `*row`, by move where the cursor owns its
  /// buffer (heap scans, index fetches). Returns false at end.
  virtual StatusOr<bool> Next(RowId* rid, Row* row);

  /// Pulls the next batch of rows into `*batch` (cleared first), by move
  /// where the cursor owns its buffer — the batched form of Next. Returns
  /// false only at end, with the batch left empty; a true return carries
  /// at least one row. `max_rows` is a
  /// pacing target, not a hard cap: a cursor that can hand over a whole
  /// already-materialized chunk by swap may exceed it rather than split
  /// the chunk. The base implementation is a row-looping fallback over
  /// Next; heap-scan, fetched-row, shard-merge, and shard-tagging cursors
  /// override it natively so chunks cross the seam without per-row virtual
  /// calls.
  virtual StatusOr<bool> NextBatch(RowBatch* batch,
                                   size_t max_rows = RowBatch::kDefaultRows);

  /// Approximate number of rows left to pull (0 = unknown). A sizing hint
  /// for result-vector reserves, never a contract: filters and concurrent
  /// activity can make the real count smaller or larger.
  virtual size_t size_hint() const { return 0; }

  /// Drains the cursor through a move-taking visitor (returns false to
  /// stop early). Rides NextBatch, so native batch overrides amortize the
  /// per-row virtual call here too.
  ///
  /// Exhaustion contract (all cursor types, including merged shard
  /// cursors, which are built on it): once a cursor has reported
  /// end-of-rows — through pulls or a drain that ran to completion —
  /// every further Next/NextRef returns false and every further
  /// Drain/DrainRef visits nothing and returns Ok. A drain whose
  /// *visitor* stopped early leaves the cursor mid-stream on pull-based
  /// cursors but may have consumed the remainder on batched or zero-copy
  /// fast paths — callers must not resume a drain they cut short; drop
  /// the cursor instead.
  Status Drain(const std::function<bool(RowId, Row&&)>& visitor);

  /// Drains the cursor through a borrowing visitor (returns false to stop
  /// early; same exhaustion contract as Drain). Virtual so a cursor can
  /// skip intermediate buffering for visit-only consumers (a fresh locking
  /// heap scan drains zero-copy, straight off the heap — selective filters
  /// then copy only what they keep). Stays on the borrowing NextRef loop:
  /// batching here would force copies on cursors that only lend views.
  virtual Status DrainRef(const std::function<bool(RowId, const Row&)>& visitor);
};

}  // namespace youtopia

#endif  // YOUTOPIA_STORAGE_CURSOR_H_
