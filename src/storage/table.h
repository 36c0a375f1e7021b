#ifndef YOUTOPIA_STORAGE_TABLE_H_
#define YOUTOPIA_STORAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/row.h"
#include "src/common/schema.h"
#include "src/common/statusor.h"
#include "src/storage/mvcc.h"

namespace youtopia {

using TableId = uint32_t;
using RowId = uint64_t;

/// An interval over an ordered index's key space. Bounds are rows of key
/// values and may be *shorter* than the index key (prefix bounds): a bound
/// compares only on its own length, so with an index on (a, b),
/// lo = (5) inclusive admits every key whose first column is >= 5, and an
/// exclusive prefix bound excludes every extension of itself (the SQL
/// `a = 5 AND b > 3` shape builds lo = (5, 3) exclusive, which excludes
/// (5, 3, *) but admits (5, 4)). An unbounded side admits everything.
///
/// The same struct keys the lock manager's key-range locks: a range read
/// locks the interval it scanned, a writer locks the degenerate Point(k)
/// interval of each ordered-index key it touches, and two locks conflict
/// only when their intervals overlap.
struct IndexRange {
  Row lo, hi;
  bool lo_unbounded = true, hi_unbounded = true;
  bool lo_incl = true, hi_incl = true;

  /// The whole key space (both sides unbounded).
  static IndexRange All() { return IndexRange{}; }
  /// The degenerate single-key interval [key, key].
  static IndexRange Point(Row key);

  bool fully_unbounded() const { return lo_unbounded && hi_unbounded; }

  /// Compares `key` against a (possibly prefix) bound: only the bound's own
  /// length participates, so a key extending the bound compares equal.
  static int ComparePrefix(const Row& key, const Row& bound);

  /// True when `key` lies inside the interval under prefix-bound semantics.
  bool Contains(const Row& key) const;

  /// True when some key could lie in both intervals (conservative on the
  /// boundary: prefix bounds of different lengths are treated as touching).
  bool Overlaps(const IndexRange& o) const;

  /// Exact structural equality (bounds, flags); identifies a lock record.
  bool operator==(const IndexRange& o) const;

  std::string ToString() const;
};

/// One ordered-index range read: the index's full column set, the interval,
/// the direction, and an optional cap on returned rows (applied after
/// direction, so a reverse scan returns the *top* `limit` keys).
struct IndexRangeSpec {
  std::vector<size_t> columns;  ///< full column set of the ordered index
  IndexRange range;
  bool reverse = false;
  int64_t limit = -1;  ///< -1 = unlimited
  /// First key position whose NULL values disqualify a key (NULLs before it
  /// pass). SQL predicates never match NULL, so statements leave this at 0
  /// — every bound-constrained column filters; the grounder's valuation
  /// unification *does* match NULL on its equality prefix, so its range
  /// probes set it to the prefix length, NULL-filtering the range column
  /// only.
  size_t null_filter_from = 0;
};

/// Column set + flags of one index (access-path planning).
struct IndexInfo {
  std::vector<size_t> columns;
  bool unique = false;
  bool ordered = false;
};

/// In-memory versioned heap table: RowId -> version chain, with optional
/// hash or ordered (B-tree) indexes on column subsets. The heap is a paged
/// slot array indexed by RowId (RowIds are allocated densely from 1): page
/// `rid / kPageSlots`, slot `rid % kPageSlots`. A page is allocated when its
/// first slot fills and freed when its last slot empties. Each entry holds the
/// *latest* version in place plus a newest-first chain of committed
/// overwritten versions, each stamped with the commit timestamp that
/// created it. Physical access is guarded by a shared_mutex *latch*;
/// logical concurrency control lives above (2PL for writes and locking
/// reads, the commit clock for snapshot reads). Scan order is RowId order,
/// which is insertion order, so executions are deterministic.
///
/// There is one read path and one write path. Every read (Get, ScanChunk,
/// IndexLookup, RangeLookup) takes a ReadView and returns the version that
/// view sees: snapshot readers pass their cut and never touch the lock
/// manager; locking readers, recovery and write-candidate collection pass
/// ReadView::Latest(). Every write (Insert, Update, Delete) takes the
/// writing TxnId: a transaction's write leaves an uncommitted version it
/// owns (stamped or rolled back at its end), and writer 0 applies the write
/// committed in place (loads, recovery redo, checkpoint load).
///
/// Index maintenance under versioning is additive: a versioned update adds
/// the new key but keeps the old one (an older version still carries it),
/// so every index probe re-checks that the version it returns actually
/// projects the probed key. Stale entries are scrubbed when the last
/// version carrying the key disappears (rollback, same-writer overwrite,
/// GC prune, physical erase). Index buckets are kept RowId-sorted, so
/// lookups return RowIds ascending (descending within a key on a reverse
/// range read) without a sort.
class Table {
 public:
  /// A schema with primary-key columns gets a unique index over them
  /// automatically (ordered when the schema says so; also on
  /// recovery/checkpoint load, which reconstruct the table through this
  /// constructor).
  Table(TableId id, std::string name, Schema schema);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  // --- Write path ---
  //
  // The first write a transaction makes to a committed row pushes the
  // committed version onto the chain (`*pushed` reports it, for
  // versions_created accounting); re-writes by the same transaction
  // overwrite in place. `StampCommit` runs inside the commit clock's
  // publish window and stamps the row with its commit timestamp;
  // `RollbackWrite`/`RollbackInsert` restore the pre-transaction state on
  // abort (processed through the undo log in reverse, so the first
  // rollback of a row restores the committed version and later entries for
  // the same row no-op). Writer 0 writes committed in place and pushes
  // nothing.

  /// Appends a row that already came out of Coerce() (the transaction
  /// manager coerces once up front to compute index-key locks), owned by
  /// `writer`.
  StatusOr<RowId> Insert(Row coerced, TxnId writer);
  /// Validates/coerces `row` and appends it committed (writer 0).
  StatusOr<RowId> Insert(const Row& row);

  /// Inserts at a specific RowId (recovery redo / checkpoint load). Fails if
  /// the id is occupied by a live row; a committed tombstone at `rid` is
  /// replaced in place. Bumps the row-id allocator past `rid`. A RowId at or
  /// past kMaxRowId is refused before anything is allocated.
  Status InsertWithId(RowId rid, Row row);

  /// Overwrites live `rid` with a coerced row owned by `writer`.
  Status Update(RowId rid, Row coerced, TxnId writer, bool* pushed = nullptr);
  /// Validates/coerces `row` and overwrites `rid` committed (writer 0).
  Status Update(RowId rid, Row row);

  /// Deletes live `rid`. A transaction's delete leaves a tombstone, so the
  /// row stays readable to older snapshots; writer 0 erases the entry and
  /// its index keys outright.
  Status Delete(RowId rid, TxnId writer, bool* pushed = nullptr);

  /// Stamps `writer`'s uncommitted version of `rid` with commit timestamp
  /// `ts` and releases ownership. No-op unless `writer` owns the latest
  /// version (idempotent across redundant undo-log entries).
  void StampCommit(RowId rid, TxnId writer, uint64_t ts);
  /// Abort path for an inserted row: erases the entry outright.
  void RollbackInsert(RowId rid, TxnId writer);
  /// Abort path for an update/delete: pops the newest committed version
  /// back into place. No-op unless `writer` owns the latest version.
  void RollbackWrite(RowId rid, TxnId writer);

  // --- Read path (latch-only; the caller's view picks the version) ---

  /// The version of `rid` visible to `view`, or NotFound (absent, not yet
  /// visible, or deleted in the view).
  StatusOr<Row> Get(RowId rid, const ReadView& view) const;

  /// Chunked scan: copies up to `max_rows` rows visible to `view` with
  /// RowId >= `from` into `*out` (cleared and reserved first), in RowId
  /// order. Returns the RowId to resume from, or 0 when the heap past
  /// `from` is exhausted. Chunked scans hold the latch per chunk, not per
  /// table — cursors pull through this.
  RowId ScanChunk(const ReadView& view, RowId from, size_t max_rows,
                  std::vector<std::pair<RowId, Row>>* out) const;

  /// Index point probe: (rid, visible row) pairs, RowId-ascending, whose
  /// version visible to `view` projects `key` on `columns` (stale entries
  /// filtered out). NotFound when no index covers exactly those columns.
  /// Works on hash and ordered indexes alike.
  StatusOr<std::vector<std::pair<RowId, Row>>> IndexLookup(
      const std::vector<size_t>& columns, const Row& key,
      const ReadView& view) const;

  /// Ordered-index range read: (rid, visible row) pairs whose visible
  /// version's key projection lies in `spec.range`, in key order (then
  /// RowId order within a key; descending keys and RowIds when
  /// `spec.reverse`), truncated to `spec.limit`. Keys with NULL in a
  /// *bound-constrained* column are skipped (SQL comparisons with NULL
  /// select nothing) — NULLs in columns past every bound's length still
  /// qualify, so a fully unbounded range (ORDER BY service) returns every
  /// row. NotFound when no *ordered* index exists on exactly
  /// `spec.columns`.
  StatusOr<std::vector<std::pair<RowId, Row>>> RangeLookup(
      const IndexRangeSpec& spec, const ReadView& view) const;

  /// Visits the latest live rows in RowId order under one latch hold; the
  /// visitor returns false to stop early.
  void Scan(const std::function<bool(RowId, const Row&)>& visitor) const;

  /// Commit timestamp of the newest committed version of `rid` (0 when the
  /// row is absent or the latest version is uncommitted — the caller holds
  /// the row X lock, so an uncommitted latest is its own). First-updater-
  /// wins checks compare this against the writer's snapshot.
  uint64_t LatestBeginTs(RowId rid) const;

  /// Drops, on each of `rids`, every committed version unreachable from any
  /// snapshot >= `horizon` (keeps the newest version at-or-below the
  /// horizon; fully-superseded committed tombstones are erased outright).
  /// One exclusive latch hold for the whole batch; absent rows are skipped.
  /// Returns the number of versions pruned.
  size_t PruneRows(const std::vector<RowId>& rids, uint64_t horizon);

  /// Builds an index over the named columns (backfills existing rows).
  /// `unique` rejects duplicate keys — except keys containing NULL, which
  /// are exempt from uniqueness per SQL. `ordered` builds a B-tree instead
  /// of a hash map, enabling RangeLookup.
  Status CreateIndex(const std::vector<std::string>& column_names,
                     bool unique = false, bool ordered = false);
  /// Same, addressing columns by schema position.
  Status CreateIndexByPositions(const std::vector<size_t>& columns,
                                bool unique = false, bool ordered = false);

  bool HasIndexOn(const std::vector<size_t>& columns) const;

  /// Sizes every hash index for `rows` more keys, so a bulk load (checkpoint
  /// load knows its row count up front) inserts without rehashing.
  void ReserveRows(size_t rows);

  /// Column set + flags of every index, in creation order (access-path
  /// planning).
  std::vector<IndexInfo> IndexInfos() const;

  /// Validates/coerces a row against the schema without inserting it (the
  /// transaction manager pre-computes index-key locks from the coerced row).
  StatusOr<Row> Coerce(const Row& row) const { return CoerceToSchema(row); }

  /// Stable hash identifying (index columns, key) — the lock manager's
  /// index-key predicate locks are keyed on this.
  static uint64_t IndexKeyHash(const std::vector<size_t>& columns,
                               const Row& key);
  /// Stable hash identifying an index's column set — names the key-range
  /// lock *space* of an ordered index.
  static uint64_t IndexColumnsHash(const std::vector<size_t>& columns);

  /// IndexKeyHash for every index of this table, projected from `row` (which
  /// must already match the schema).
  std::vector<uint64_t> IndexKeyHashesFor(const Row& row) const;
  /// (IndexColumnsHash, projected key) for every *ordered* index — writers
  /// take key-range X locks on the Point() interval of each, so range
  /// readers of an interval containing the key are excluded.
  std::vector<std::pair<uint64_t, Row>> OrderedIndexKeysFor(
      const Row& row) const;

  /// Number of live rows (latest version not a tombstone).
  size_t size() const;

  /// Total stored versions across all chains (latest + history), for GC
  /// observability and tests.
  size_t version_count() const;

  /// Heap pages currently allocated (observability and tests).
  size_t heap_pages() const;

  /// Deep copy (used for database snapshots/checkpoints).
  std::unique_ptr<Table> Clone() const;

  /// Slots per heap page.
  static constexpr size_t kPageSlots = 1024;
  /// First RowId the heap refuses: the page table is a dense vector over
  /// RowId / kPageSlots, so this caps it at 4M page pointers (32 MiB) and
  /// keeps a stray id (a shard-tagged one, say) from ballooning it.
  static constexpr RowId kMaxRowId = RowId{1} << 32;

 private:
  /// One committed, superseded version in a chain.
  struct RowVersion {
    uint64_t begin_ts = 0;  ///< commit timestamp that created this version
    bool deleted = false;   ///< tombstone (the version is a delete)
    Row data;
  };

  /// One heap entry: the latest version in place + newest-first history of
  /// committed versions it superseded. `writer` != 0 marks the latest
  /// version uncommitted (owned by that transaction); `begin_ts` is only
  /// meaningful once `writer` == 0.
  struct VersionedRow {
    Row latest;
    bool deleted = false;
    uint64_t begin_ts = 0;
    TxnId writer = 0;
    std::vector<RowVersion> history;
  };

  /// One secondary index: a hash map or an ordered tree over projected keys.
  struct Index {
    std::vector<size_t> columns;
    bool unique = false;
    bool ordered = false;
    std::unordered_map<Row, std::vector<RowId>, RowHash> hash;  // !ordered
    std::map<Row, std::vector<RowId>> tree;                     // ordered
  };

  /// One fixed-size heap page; `used` counts its occupied slots.
  struct Page {
    std::array<std::optional<VersionedRow>, kPageSlots> slots;
    size_t used = 0;
  };

  /// Checks arity, coerces each value whose type differs from its column's
  /// (values already of the right type are left alone) and rejects NULL
  /// primary-key columns.
  StatusOr<Row> CoerceToSchema(Row row) const;
  /// The entry at `rid`, or nullptr when its slot is empty.
  VersionedRow* FindLocked(RowId rid);
  const VersionedRow* FindLocked(RowId rid) const;
  /// Calls `fn(rid, entry)` on each entry with RowId >= `from` in RowId
  /// order until `fn` returns false. Returns the RowId of the entry that
  /// stopped the walk, or 0 when the heap past `from` is exhausted.
  template <typename Fn>
  RowId WalkLocked(RowId from, const Fn& fn) const;
  /// Rejects rows that would duplicate a unique-index key among *live
  /// latest* versions (`self` excluded, for updates; keys containing NULL
  /// are exempt). Caller holds the latch.
  Status CheckUniqueLocked(const Row& row, RowId self) const;
  /// Adds a fresh entry at the unoccupied `rid` (unique check, index keys,
  /// live count), owned by `writer`.
  Status EmplaceLocked(RowId rid, Row coerced, TxnId writer);
  /// Adds `rid` under `row`'s key in every index, keeping buckets
  /// RowId-sorted.
  void IndexInsertLocked(RowId rid, const Row& row);
  /// Removes (key, rid) entries projected from `old_data` for every index
  /// key no remaining version of `rid` still carries (every key, once the
  /// entry is gone). Call *after* the version holding `old_data` has been
  /// discarded.
  void ScrubKeysLocked(RowId rid, const Row& old_data);
  /// True when some non-deleted version of `vr` projects `key` on `columns`.
  static bool AnyVersionCarriesKey(const VersionedRow& vr,
                                   const std::vector<size_t>& columns,
                                   const Row& key);
  /// The version of `vr` visible to `view`, or nullptr (tombstone/none).
  static const Row* VisibleVersion(const VersionedRow& vr,
                                   const ReadView& view);
  /// PruneRows for the entry `vr` at `rid` (caller holds the latch
  /// exclusively); may erase the entry. Returns the number of versions
  /// pruned.
  size_t PruneRowLocked(RowId rid, VersionedRow& vr, uint64_t horizon);
  /// Physically erases the entry at `rid` and every index key its versions
  /// carry, freeing its page once the page is empty.
  void EraseEntryLocked(RowId rid);
  const Index* FindIndexLocked(const std::vector<size_t>& columns) const;
  /// RowIds under `key` in `idx`, or nullptr when absent.
  static const std::vector<RowId>* IndexFind(const Index& idx, const Row& key);
  static Row ProjectKey(const Row& row, const std::vector<size_t>& columns);

  TableId id_;
  std::string name_;
  Schema schema_;
  mutable std::shared_mutex latch_;
  /// The heap's page table: entry i covers RowIds [i, i + 1) * kPageSlots;
  /// null while that page holds no entry.
  std::vector<std::unique_ptr<Page>> pages_;
  RowId next_row_id_ = 1;
  size_t live_rows_ = 0;  ///< entries whose latest version is not a tombstone
  std::vector<Index> indexes_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_STORAGE_TABLE_H_
