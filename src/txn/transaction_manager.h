#ifndef YOUTOPIA_TXN_TRANSACTION_MANAGER_H_
#define YOUTOPIA_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/op_observer.h"
#include "src/common/statusor.h"
#include "src/lock/lock_manager.h"
#include "src/storage/cursor.h"
#include "src/storage/database.h"
#include "src/storage/mvcc.h"
#include "src/txn/transaction.h"
#include "src/txn/txn_engine.h"
#include "src/wal/wal_writer.h"

namespace youtopia {

/// Classical ACID transaction manager over the in-memory engine:
/// Strict 2PL through the LockManager, redo-only WAL through WalWriter
/// (optional: pass nullptr for a volatile database), in-memory undo for live
/// rollback. Exposes the group-commit primitive that the entangled layer
/// builds on. Implements the TxnEngine seam the executor/grounder
/// consume — shard::Router runs one of these per shard and
/// adds the Prepare/CommitPrepared participant protocol below for
/// cross-shard two-phase commit.
class TransactionManager : public TxnEngine {
 public:
  struct Options {
    IsolationLevel default_isolation = IsolationLevel::kFullEntangled;
    int64_t lock_timeout_micros = 2'000'000;  ///< 2 s default lock wait
    OpObserver* observer = nullptr;           ///< optional schedule recorder
    /// Snapshot-read levels (kReadCommitted, kSnapshot) read the versioned
    /// heap with zero locks. Off = they fall back to locking reads (the
    /// MVCC ablation baseline). Writes maintain version chains either way.
    bool enable_mvcc_reads = true;
    /// Commit clock / live-snapshot set for versioned reads. Null = the
    /// manager owns private ones; shard::Router passes one shared pair to
    /// every shard so a cross-shard statement reads one cut.
    VersionClock* clock = nullptr;
    SnapshotRegistry* snapshots = nullptr;
  };

  TransactionManager(Database* db, LockManager* locks, WalWriter* wal,
                     Options options);
  TransactionManager(Database* db, LockManager* locks, WalWriter* wal);
  ~TransactionManager() override;

  Database* db() const override { return db_; }
  LockManager* locks() const { return locks_; }
  WalWriter* wal() const { return wal_; }
  TxnStats& stats() override { return stats_; }
  OpObserver* observer() const { return options_.observer; }
  /// Ablation switch for the versioned read path (benches / differential
  /// tests): off makes snapshot-read levels take locks again.
  void set_mvcc_reads_enabled(bool enabled) override {
    options_.enable_mvcc_reads = enabled;
  }
  bool mvcc_reads_enabled() const override {
    return options_.enable_mvcc_reads;
  }
  VersionClock* clock() const { return clock_; }
  SnapshotRegistry* snapshots() const { return snapshots_; }
  /// Bumps the transaction-id allocator past recovered ids (reopen after
  /// crash recovery).
  void set_next_txn_id(TxnId next) { next_txn_id_.store(next); }

  /// Starts a transaction at the given (or default) isolation level.
  std::unique_ptr<Transaction> Begin() override;
  std::unique_ptr<Transaction> Begin(IsolationLevel level) override;

  // --- Data operations (acquire locks, log, maintain undo). ---

  StatusOr<RowId> Insert(Transaction* txn, const std::string& table,
                         const Row& row) override;
  StatusOr<Row> Get(Transaction* txn, const std::string& table,
                    RowId rid) override;
  Status Update(Transaction* txn, const std::string& table, RowId rid,
                const Row& row) override;
  Status Delete(Transaction* txn, const std::string& table,
                RowId rid) override;
  Status Load(const std::string& table, const Row& row) override;

  // --- The unified read path. ---

  /// Opens a pull cursor for `plan` over `t` — the one seam every read
  /// access path goes through. Lock protocol by plan kind:
  ///   * kTableScan: table S (the phantom-protection fallback for
  ///     predicates no index covers); the cursor walks the heap in chunks.
  ///   * kIndexLookup: table IS + S on the index-key hash (equality-
  ///     predicate phantom protection) + S on each row as it is pulled.
  ///   * kIndexRange: table IS + key-range S on the scanned interval
  ///     (gap + key phantom protection) + S on each row as it is pulled; a
  ///     fully unbounded interval degrades to the table S lock.
  /// kReadCommitted releases the shared locks when the cursor closes
  /// (grounding-origin heap scans keep the table S — quasi-read
  /// repeatability); kReadUncommitted takes no read locks. `origin` picks
  /// the stats counter and whether rows are recorded as R or R^G. The
  /// cursor must not outlive the transaction or the manager.
  using TxnEngine::OpenCursor;
  StatusOr<std::unique_ptr<TableCursor>> OpenCursor(Transaction* txn, Table* t,
                                                    AccessPlan plan,
                                                    ReadOrigin origin) override;

  /// The index lookup of write statements: X-locks the index key and every
  /// matched row (plus table IX) and returns the matched rows. UPDATE/DELETE
  /// with a covering index route here instead of LockTableForWrite, so
  /// writers on different keys no longer serialize on the table lock.
  StatusOr<std::vector<std::pair<RowId, Row>>> LockRowsForWrite(
      Transaction* txn, const std::string& table,
      const std::vector<size_t>& columns, const Row& key) override;

  /// The range lookup of write statements: X-locks the scanned interval and
  /// every matched row (plus table IX) up front and returns the matched
  /// rows. Range-covered UPDATE/DELETE route here instead of
  /// LockTableForWrite — X row locks are taken before any read, so the
  /// scan-then-upgrade (S->X) deadlock between range writers cannot occur.
  StatusOr<std::vector<std::pair<RowId, Row>>> LockRowsForWriteRange(
      Transaction* txn, const std::string& table,
      const IndexRangeSpec& spec) override;

  /// Takes a table-level X lock up front (UPDATE/DELETE statements lock the
  /// whole table before scanning, avoiding S->X upgrade deadlocks between
  /// writers).
  Status LockTableForWrite(Transaction* txn,
                           const std::string& table) override;

  /// LockTableForWrite plus a collection of the whole heap — the
  /// uncovered-predicate write fallback behind one call so partitioned
  /// engines can fan it out.
  StatusOr<std::vector<std::pair<RowId, Row>>> LockTableAndCollectForWrite(
      Transaction* txn, const std::string& table) override;

  // --- Termination. ---

  Status Abort(Transaction* txn) override;

  /// The one commit path (Commit(txn) is CommitGroup({txn})). The
  /// deciding record names exactly the members that wrote: none writes
  /// nothing, one force-writes its COMMIT, several force-write one
  /// GROUP_COMMIT naming them all, on which the durability of each hinges.
  /// A read-only member has no redo, so no record needs to name it.
  /// A failed force-write of that deciding record latches the process-wide
  /// crash (FaultInjector::ForceCrash) and leaves every member untouched.
  /// All members share one commit timestamp.
  Status CommitGroup(const std::vector<Transaction*>& members) override;

  /// Reports the entanglement to the schedule observer; writes nothing.
  Status LogEntangle(EntanglementId eid,
                     const std::vector<Transaction*>& members) override;

  // --- Two-phase-commit participant protocol (driven by shard::Router). ---

  /// Phase 1: makes the transaction's writes durable and votes yes by
  /// force-writing a PREPARE record carrying the coordinator's global
  /// transaction id. The transaction keeps every lock and moves to
  /// kReadyToCommit; its outcome now belongs to the coordinator — after a
  /// crash, recovery finds the PREPARE and resolves the transaction from
  /// the coordinator's decision log instead of presuming abort.
  Status Prepare(Transaction* txn, GroupId gtid);

  /// Phase 2 (commit): appends the shard-local COMMIT_DECISION record
  /// (unflushed — the decision is already durable in the coordinator's
  /// log; the local record just lets recovery resolve without consulting
  /// it) and runs the commit tail; the coordinator already stamped the
  /// writes through StampWritesAt. Abort-after-prepare is plain Abort().
  ///
  /// The in-memory commit always completes; the returned status reports
  /// only whether the advisory local record was appended. A non-OK return
  /// means this participant still depends on the coordinator's decision
  /// log to resolve its branch after a crash — the coordinator's
  /// decision-log GC must keep the gtid until every branch reports OK.
  /// Fault site: "txn.phase2.append".
  Status CommitPrepared(Transaction* txn, GroupId gtid);

  // --- DDL (system transaction 0, autocommitted). ---

  /// Creates the table; a schema with primary-key columns gets a unique
  /// index over them automatically (inside the Table constructor).
  StatusOr<Table*> CreateTable(const std::string& name,
                               const Schema& schema) override;

  /// Builds a secondary index (hash by default; `ordered` builds a B-tree
  /// enabling range access; `unique` enforces key uniqueness, NULL keys
  /// exempt) and WAL-logs it so recovery rebuilds it.
  Status CreateIndex(const std::string& table,
                     const std::vector<std::string>& columns,
                     bool unique = false, bool ordered = false) override;

  /// Writes a checkpoint image to `checkpoint_path` and truncates the WAL.
  /// Callers must quiesce transactions first.
  Status Checkpoint(const std::string& checkpoint_path);

  // --- MVCC snapshot management. ---

  /// Stamps `txn`'s written rows with commit timestamp `ts` and queues the
  /// updated/deleted ones for pruning. The caller holds the shared clock's
  /// commit mutex between allocating and publishing `ts`, so no snapshot
  /// ever sees a commit half-applied and the pending-prune list stays in
  /// commit-timestamp order. CommitGroup stamps its members here; a 2PC
  /// coordinator stamps every prepared write branch here before phase 2,
  /// so CommitPrepared never stamps.
  void StampWritesAt(Transaction* txn, uint64_t ts);

  /// Pins a coordinator-chosen snapshot timestamp on a (branch) transaction
  /// so every shard of a cross-shard statement reads the same cut. The
  /// coordinator holds the registry pin; the branch only carries the
  /// timestamp and never refreshes it per statement.
  void AdoptSnapshot(Transaction* txn, uint64_t ts);

  /// Drains the whole prunable prefix of the pending-prune list: every row
  /// a committed update or delete superseded a version of, whose commit is
  /// at-or-below the GC horizon (the oldest live snapshot, or the current
  /// clock reading when none is live), is pruned down to that horizon.
  /// Writing commits already drain a bounded slice of the list inline, so
  /// this is for tests and idle-time maintenance. Returns versions pruned
  /// (also accumulated into stats().versions_pruned).
  size_t GcVersions();

  /// Entries still queued on the pending-prune list (tests, observability).
  size_t pending_prunes() const;

 private:
  Status ApplyUndo(Transaction* txn);
  /// True when this transaction's reads are served from the versioned heap.
  bool SnapshotReadsActive(const Transaction* txn) const {
    return options_.enable_mvcc_reads &&
           UsesSnapshotReads(txn->isolation_level());
  }
  /// Appends CommitGroup's deciding record for `writers` (COMMIT for one,
  /// GROUP_COMMIT naming all of several) and force-writes it; a failure
  /// latches the process-wide crash.
  Status WriteDecision(std::vector<TxnId> writers);
  /// The commit tail every commit path shares: state, snapshot release,
  /// lock release, counters and metrics, observer, inline GC slice.
  void FinishCommit(std::span<Transaction* const> members);
  /// Pops up to `max_entries` entries at-or-below the GC horizon off the
  /// front of the pending-prune list and prunes their rows, one exclusive
  /// latch hold per table. Returns versions pruned.
  size_t DrainPrunes(size_t max_entries);
  /// The inline GC slice after a commit whose `superseded` rows were
  /// queued (no-op when it queued none: read-only and insert-only commits).
  void DrainAfterCommit(size_t superseded);
  /// The view a read of `txn` takes: its (refreshed) snapshot when it
  /// reads snapshots, else ReadView::Latest() under locks.
  ReadView ReadViewFor(Transaction* txn, bool grounding);
  Status AcquireReadLocks(Transaction* txn, const Table* t, RowId rid);
  void ReleaseEarlyReadLocks(Transaction* txn, const Table* t, RowId rid);
  /// X-locks the index-key hashes a write touches (sorted for deterministic
  /// acquisition order).
  Status AcquireIndexKeyLocks(Transaction* txn, const Table* t,
                              std::vector<uint64_t> hashes);
  /// Key-range X locks on the Point() interval of every ordered-index key a
  /// write touches (sorted for deterministic order) — this is what makes a
  /// write conflict with concurrent range readers whose scanned interval
  /// contains the key, and pass freely otherwise.
  Status AcquireOrderedKeyLocks(Transaction* txn, const Table* t,
                                std::vector<std::pair<uint64_t, Row>> keys);
  /// X-locks every row of `rows` in one lock-manager round.
  Status LockRowsX(Transaction* txn, const Table* t,
                   const std::vector<std::pair<RowId, Row>>& rows);
  /// Bumps the (plan kind, origin) cell of the access-path counters.
  void CountRead(const AccessPlan& plan, ReadOrigin origin);

  Database* db_;
  LockManager* locks_;
  WalWriter* wal_;  // may be nullptr (volatile mode)
  Options options_;
  std::atomic<TxnId> next_txn_id_{1};
  std::atomic<GroupId> next_group_id_{1};
  TxnStats stats_;
  // Commit clock + live-snapshot set: shared (Options) or privately owned.
  std::unique_ptr<VersionClock> owned_clock_;
  std::unique_ptr<SnapshotRegistry> owned_snapshots_;
  VersionClock* clock_;
  SnapshotRegistry* snapshots_;
  /// One queued prune: commit `ts` superseded a version of (`table`, `rid`).
  struct PendingPrune {
    TableId table;
    RowId rid;
    uint64_t ts;
  };
  /// Guards pending_prunes_; nests inside the clock's commit mutex.
  mutable std::mutex prune_mu_;
  std::deque<PendingPrune> pending_prunes_;  ///< commit-timestamp order
};

}  // namespace youtopia

#endif  // YOUTOPIA_TXN_TRANSACTION_MANAGER_H_
