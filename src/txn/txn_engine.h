#ifndef YOUTOPIA_TXN_TXN_ENGINE_H_
#define YOUTOPIA_TXN_TXN_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/statusor.h"
#include "src/storage/aggregate.h"
#include "src/storage/cursor.h"
#include "src/storage/database.h"
#include "src/txn/transaction.h"

namespace youtopia {

/// Aggregate transaction counters (benches / tests). The access-path
/// counters make plan choices observable: every read routed through an
/// index bumps index_lookups / grounding_index_lookups, every full scan
/// bumps table_scans / grounding_scans, and every bind-driven join probe
/// bumps join_probes / grounding_join_probes (with *_cache_hits counting
/// per-binding keys the executor/grounder served from their probe caches
/// without re-entering the transaction manager). The shard counters make
/// routing and commit protocol choices observable: a shard::Router bumps
/// shard_routed_lookups for every plan pinned to one shard, fanout_cursors
/// for every plan fanned out across all shards, and exactly one of
/// single_shard_txns / two_phase_commits per commit operation; `prepares`
/// counts kPrepare WAL records written by a participant transaction manager
/// (zero on the one-phase fast path).
struct TxnStats {
  std::atomic<uint64_t> begins{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> aborts{0};
  std::atomic<uint64_t> group_commits{0};
  std::atomic<uint64_t> index_lookups{0};
  std::atomic<uint64_t> table_scans{0};
  std::atomic<uint64_t> grounding_index_lookups{0};
  std::atomic<uint64_t> grounding_scans{0};
  std::atomic<uint64_t> join_probes{0};
  std::atomic<uint64_t> join_probe_cache_hits{0};
  std::atomic<uint64_t> grounding_join_probes{0};
  std::atomic<uint64_t> grounding_join_probe_cache_hits{0};
  std::atomic<uint64_t> range_lookups{0};
  std::atomic<uint64_t> grounding_range_lookups{0};
  std::atomic<uint64_t> range_join_probes{0};
  std::atomic<uint64_t> range_probe_cache_hits{0};
  std::atomic<uint64_t> grounding_range_probes{0};
  std::atomic<uint64_t> grounding_range_probe_cache_hits{0};
  std::atomic<uint64_t> single_shard_txns{0};
  std::atomic<uint64_t> two_phase_commits{0};
  std::atomic<uint64_t> fanout_cursors{0};
  std::atomic<uint64_t> shard_routed_lookups{0};
  std::atomic<uint64_t> prepares{0};
  /// AggregateTable calls a sharded engine answered by folding partial
  /// states inside the per-shard drain threads instead of shipping rows to
  /// the coordinator.
  std::atomic<uint64_t> aggregate_pushdowns{0};
  /// MVCC observability: committed versions pushed onto chains by
  /// first-writes, versions dropped by GC, and reads served from the
  /// versioned heap without taking any lock (one count per snapshot-served
  /// cursor/get).
  std::atomic<uint64_t> versions_created{0};
  std::atomic<uint64_t> versions_pruned{0};
  std::atomic<uint64_t> snapshot_reads{0};
  /// Physical WAL flushes (one per group-commit batch, not per committer).
  /// With group commit, wal_flushes << commits under concurrency; read-only
  /// commits contribute zero (they write no commit record at all). On a
  /// shard::Router this aggregates every shard WAL plus the coordinator
  /// decision log.
  std::atomic<uint64_t> wal_flushes{0};
};

/// How a read is counted and recorded by the schedule observer — the one
/// axis that used to distinguish the `*ForGrounding` twins. kStatement and
/// kJoin record ordinary reads (R); kGrounding and kGroundingJoin record
/// grounding reads (R^G, table-granular, keeping the recorded schedule
/// conservative). The join origins additionally count as per-binding
/// probes instead of statement lookups.
enum class ReadOrigin { kStatement, kGrounding, kJoin, kGroundingJoin };

/// The transactional engine seam the SQL executor, the entangled-query
/// grounder, and the entangled transaction engine are written against.
/// Two implementations exist:
///   * TransactionManager — the single-node engine (one Database, one
///     LockManager, one WAL);
///   * shard::Router — the hash-partitioned engine, which routes the same
///     vocabulary across N per-shard TransactionManagers and runs
///     two-phase commit when a transaction wrote on more than one shard.
/// `db()` is the *catalog view*: every table's schema and index set is
/// visible there, and the Table pointers it hands out are valid arguments
/// to OpenCursor — but partitioned implementations do NOT keep every row in
/// it, so reads must go through the engine, never through Table::Scan
/// directly.
class TxnEngine {
 public:
  virtual ~TxnEngine() = default;

  virtual Database* db() const = 0;
  virtual TxnStats& stats() = 0;

  virtual std::unique_ptr<Transaction> Begin() = 0;
  virtual std::unique_ptr<Transaction> Begin(IsolationLevel level) = 0;

  /// Ablation switch for the versioned read path: when disabled, the
  /// snapshot-read levels (kReadCommitted, kSnapshot) fall back to locking
  /// reads and behave exactly as before MVCC. Writes always maintain
  /// version chains either way. Partitioned engines fan the switch out to
  /// every shard.
  virtual void set_mvcc_reads_enabled(bool enabled) = 0;
  virtual bool mvcc_reads_enabled() const = 0;

  // --- Data operations. ---

  virtual StatusOr<RowId> Insert(Transaction* txn, const std::string& table,
                                 const Row& row) = 0;
  virtual StatusOr<Row> Get(Transaction* txn, const std::string& table,
                            RowId rid) = 0;
  virtual Status Update(Transaction* txn, const std::string& table, RowId rid,
                        const Row& row) = 0;
  virtual Status Delete(Transaction* txn, const std::string& table,
                        RowId rid) = 0;

  /// Direct (non-transactional, unlocked, unlogged) row load for workload
  /// builders — setup is never part of a measurement. Partitioned engines
  /// route the row to its owning shard(s).
  virtual Status Load(const std::string& table, const Row& row) = 0;

  // --- The unified read path. ---

  /// Opens a pull cursor for `plan` over `t` — the one seam every read
  /// access path goes through. `t` must come from this engine's `db()`
  /// catalog view. See TransactionManager::OpenCursor for the lock
  /// protocol; shard::Router additionally routes the plan to one shard or
  /// fans it out across all of them behind a MergedCursor.
  virtual StatusOr<std::unique_ptr<TableCursor>> OpenCursor(
      Transaction* txn, Table* t, AccessPlan plan, ReadOrigin origin) = 0;

  /// Name-addressed convenience overload (resolves through `db()`).
  StatusOr<std::unique_ptr<TableCursor>> OpenCursor(Transaction* txn,
                                                    const std::string& table,
                                                    AccessPlan plan,
                                                    ReadOrigin origin) {
    YT_ASSIGN_OR_RETURN(Table * t, db()->GetTable(table));
    return OpenCursor(txn, t, std::move(plan), origin);
  }

  // --- Aggregation over one read. ---

  /// Folds `spec` over the rows `plan` selects from `t` and returns the
  /// merged group states (finalize with Aggregator::Finalize). Takes the
  /// same locks as OpenCursor(plan) — an aggregate read is a read. The
  /// base implementation drains a cursor batch-at-a-time through one
  /// Aggregator; shard::Router overrides it to fold per-shard partials
  /// inside the fan-out drain threads and merge them at the coordinator,
  /// so only group states — not rows — cross the shard boundary.
  virtual StatusOr<AggregateGroups> AggregateTable(Transaction* txn, Table* t,
                                                   AccessPlan plan,
                                                   const AggregateSpec& spec,
                                                   ReadOrigin origin);

  /// Name-addressed convenience overload (resolves through `db()`).
  StatusOr<AggregateGroups> AggregateTable(Transaction* txn,
                                           const std::string& table,
                                           AccessPlan plan,
                                           const AggregateSpec& spec,
                                           ReadOrigin origin) {
    YT_ASSIGN_OR_RETURN(Table * t, db()->GetTable(table));
    return AggregateTable(txn, t, std::move(plan), spec, origin);
  }

  // --- Write-statement candidate acquisition (X locks before reads). ---

  /// Indexed equality candidates for a write statement: X-locks the index
  /// key and every matched row (plus table IX) and returns the matched
  /// rows.
  virtual StatusOr<std::vector<std::pair<RowId, Row>>> LockRowsForWrite(
      Transaction* txn, const std::string& table,
      const std::vector<size_t>& columns, const Row& key) = 0;

  /// Range candidates for a write statement: X-locks the scanned interval
  /// and every matched row (plus table IX) up front and returns the matched
  /// rows.
  virtual StatusOr<std::vector<std::pair<RowId, Row>>> LockRowsForWriteRange(
      Transaction* txn, const std::string& table,
      const IndexRangeSpec& spec) = 0;

  /// Takes a table-level X lock up front (UPDATE/DELETE statements lock the
  /// whole table before scanning, avoiding S->X upgrade deadlocks between
  /// writers).
  virtual Status LockTableForWrite(Transaction* txn,
                                   const std::string& table) = 0;

  /// The uncovered-predicate write fallback: table X lock(s) up front, then
  /// every row of the table — the one way a write statement may see the
  /// whole heap (partitioned engines collect across all shards).
  virtual StatusOr<std::vector<std::pair<RowId, Row>>>
  LockTableAndCollectForWrite(Transaction* txn, const std::string& table) = 0;

  // --- Termination. ---

  virtual Status Commit(Transaction* txn) = 0;
  virtual Status Abort(Transaction* txn) = 0;

  /// Atomically commits a set of entangled transactions (durability of
  /// every member hinges on one record: GROUP_COMMIT on a single node, the
  /// coordinator's commit decision under cross-shard 2PC).
  virtual Status CommitGroup(const std::vector<Transaction*>& members) = 0;

  /// Logs an ENTANGLE record (and marks the members). Called by the
  /// entangled-query evaluator when an entanglement operation succeeds.
  virtual Status LogEntangle(EntanglementId eid,
                             const std::vector<Transaction*>& members) = 0;

  // --- DDL (system transaction 0, autocommitted). ---

  virtual StatusOr<Table*> CreateTable(const std::string& name,
                                       const Schema& schema) = 0;
  virtual Status CreateIndex(const std::string& table,
                             const std::vector<std::string>& columns,
                             bool unique = false, bool ordered = false) = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_TXN_TXN_ENGINE_H_
