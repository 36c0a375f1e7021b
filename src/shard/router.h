#ifndef YOUTOPIA_SHARD_ROUTER_H_
#define YOUTOPIA_SHARD_ROUTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/lock/lock_manager.h"
#include "src/shard/shard_map.h"
#include "src/storage/mvcc.h"
#include "src/txn/transaction_manager.h"
#include "src/txn/txn_engine.h"
#include "src/wal/wal_writer.h"

namespace youtopia::shard {

/// The sharded engine's top-level entry point: a TxnEngine that hash-
/// partitions tables across N in-process shards, each owning its own
/// Database + LockManager + TransactionManager + WAL file. The SQL
/// executor, sessions, the entangled-query grounder, and the entangled
/// transaction engine all run against it unchanged — it speaks the same
/// AccessPlan/OpenCursor vocabulary as the single-node manager.
///
/// Reads: a plan that pins every partition column (point lookups,
/// single-key join probes, equality-prefix-pinned ranges) routes to exactly
/// one shard; everything else fans out to all shards — the per-shard
/// cursors are drained (in parallel) and served back through a
/// MergedCursor that preserves index-key order and the plan's limit, so
/// consumers cannot tell a fanned-out read from a local one. Broadcast
/// tables are read on shard 0 and written on every replica (replica
/// writers serialize on shard 0's table X lock, keeping replicas — and
/// their RowIds — aligned).
///
/// RowIds crossing the router are *shard-tagged* for partitioned tables
/// (shard index + 1 in the top 16 bits), so Update/Delete/Get by RowId
/// route back to the owning shard. Broadcast RowIds stay untagged (they
/// are identical on every replica).
///
/// Transactions: Begin hands out a coordinator-side handle; per-shard
/// branch transactions enlist lazily on first touch. Commit runs one-phase
/// when at most one shard holds writes (read-only branches always commit
/// locally without voting — the classical read-only optimization) and
/// classical presumed-abort two-phase commit otherwise: every write branch
/// force-writes kPrepare(branch, gtid), the coordinator force-writes
/// kCommitDecision(gtid) to its own decision log — the commit point — and
/// phase 2 lazily appends per-shard decisions and releases locks. Recovery
/// (Router::Recover) replays each shard with the coordinator's decisions:
/// prepared-but-undecided branches abort, decided ones commit. Entangled
/// group commits whose writes all land on one shard go through that
/// shard's ENTANGLE + GROUP_COMMIT machinery instead of 2PC.
///
/// Cross-shard deadlocks (two transactions locking shards in opposite
/// orders) are invisible to the per-shard waits-for graphs; the per-shard
/// lock wait timeout is the safety net that breaks them.
class Router : public TxnEngine {
 public:
  struct Options {
    size_t num_shards = 4;
    /// Directory for the coordinator decision log (coord.wal) and the
    /// per-shard WALs (shard<i>/wal.log). Empty = volatile (no logging,
    /// no recovery — benches and pure in-memory tests).
    std::string dir;
    IsolationLevel default_isolation = IsolationLevel::kFullEntangled;
    int64_t lock_timeout_micros = 2'000'000;
    bool sync_on_flush = false;
  };

  /// What Recover resolved (tests / operators).
  struct RecoveryReport {
    std::set<GroupId> decided_commits;  ///< gtids in the decision log
    size_t in_doubt_branches = 0;       ///< prepared, no local outcome
    size_t in_doubt_committed = 0;      ///< ... resolved commit
    size_t in_doubt_aborted = 0;        ///< ... presumed abort
  };

  /// Fresh engine: creates the shard directories and truncates all logs.
  static StatusOr<std::unique_ptr<Router>> Open(Options options);

  /// Crash recovery: reads the coordinator decision log, replays every
  /// shard WAL against it (in-doubt branches resolve from the decisions),
  /// and reopens the logs for appending.
  static StatusOr<std::unique_ptr<Router>> Recover(
      Options options, RecoveryReport* report = nullptr);

  ~Router() override;

  // --- TxnEngine. ---

  /// The catalog view: shard 0's database. Every table and index exists on
  /// every shard with identical schemas; shard 0 additionally holds the
  /// broadcast replicas the router reads. Partitioned tables keep only
  /// their own rows here — never scan a catalog table directly.
  Database* db() const override { return shards_[0].db.get(); }
  TxnStats& stats() override { return stats_; }

  std::unique_ptr<Transaction> Begin() override;
  std::unique_ptr<Transaction> Begin(IsolationLevel level) override;

  StatusOr<RowId> Insert(Transaction* txn, const std::string& table,
                         const Row& row) override;
  StatusOr<Row> Get(Transaction* txn, const std::string& table,
                    RowId rid) override;
  Status Update(Transaction* txn, const std::string& table, RowId rid,
                const Row& row) override;
  Status Delete(Transaction* txn, const std::string& table,
                RowId rid) override;
  Status Load(const std::string& table, const Row& row) override;

  /// Router cursors reference the per-shard *branch* transactions, which
  /// are destroyed by Commit/Abort — close (drop) every cursor of a
  /// transaction before terminating it. (The executor and the drain
  /// wrappers always do; this only binds callers holding raw cursors.)
  using TxnEngine::OpenCursor;
  StatusOr<std::unique_ptr<TableCursor>> OpenCursor(
      Transaction* txn, Table* t, AccessPlan plan, ReadOrigin origin) override;

  /// Distributed aggregation with partial-state pushdown: a fanned-out
  /// plan folds `spec` inside each shard's drain thread and merges the
  /// per-shard group states at the coordinator, so the bytes crossing the
  /// shard boundary scale with the number of groups, not the number of
  /// rows. Pinned/broadcast plans fold on their one shard.
  using TxnEngine::AggregateTable;
  StatusOr<AggregateGroups> AggregateTable(Transaction* txn, Table* t,
                                           AccessPlan plan,
                                           const AggregateSpec& spec,
                                           ReadOrigin origin) override;

  /// Group-commit ablation: toggles the WAL group-commit queue on every
  /// shard WAL and the coordinator decision log at once. Off = every
  /// committer performs its own flush (the thread-per-flush baseline).
  void set_group_commit_enabled(bool on);
  bool group_commit_enabled() const;

  /// Group-commit pacing: the leader lingers up to `micros` before its batch
  /// flush so more concurrent committers can ride it. Fans to every shard
  /// WAL and the coordinator decision log. 0 (the default) = no lingering.
  void set_group_commit_delay_micros(int64_t micros);

  /// MVCC ablation: toggles snapshot reads on the coordinator and on every
  /// shard manager at once, so a cross-shard read either uses one
  /// timestamped cut per shard (on) or the classical locking path (off).
  void set_mvcc_reads_enabled(bool on) override;
  bool mvcc_reads_enabled() const override {
    return mvcc_reads_.load(std::memory_order_relaxed);
  }

  /// The engine-wide commit clock and snapshot registry shared by every
  /// shard: commits on any shard advance one clock, so a coordinator
  /// timestamp names the same cut everywhere (tests / GC inspection).
  VersionClock* clock() { return clock_.get(); }
  SnapshotRegistry* snapshots() { return snapshots_.get(); }

  StatusOr<std::vector<std::pair<RowId, Row>>> LockRowsForWrite(
      Transaction* txn, const std::string& table,
      const std::vector<size_t>& columns, const Row& key) override;
  StatusOr<std::vector<std::pair<RowId, Row>>> LockRowsForWriteRange(
      Transaction* txn, const std::string& table,
      const IndexRangeSpec& spec) override;
  Status LockTableForWrite(Transaction* txn,
                           const std::string& table) override;
  StatusOr<std::vector<std::pair<RowId, Row>>> LockTableAndCollectForWrite(
      Transaction* txn, const std::string& table) override;

  Status Commit(Transaction* txn) override;
  Status Abort(Transaction* txn) override;
  Status CommitGroup(const std::vector<Transaction*>& members) override;
  Status LogEntangle(EntanglementId eid,
                     const std::vector<Transaction*>& members) override;

  StatusOr<Table*> CreateTable(const std::string& name,
                               const Schema& schema) override;
  Status CreateIndex(const std::string& table,
                     const std::vector<std::string>& columns,
                     bool unique = false, bool ordered = false) override;

  // --- Sharding controls. ---

  /// Overrides the partitioning the next CreateTable(`table`) would derive
  /// (default: the schema's primary key; no key = broadcast). Empty
  /// `columns` forces broadcast. Must precede the CREATE.
  Status SetPartitioning(const std::string& table,
                         const std::vector<std::string>& columns);

  size_t num_shards() const { return shards_.size(); }
  const ShardMap& shard_map() const { return map_; }
  TransactionManager* shard_tm(size_t shard) { return shards_[shard].tm.get(); }
  Database* shard_db(size_t shard) { return shards_[shard].db.get(); }
  /// Path of one shard's WAL (tests inspect the record stream).
  std::string shard_wal_path(size_t shard) const;
  std::string coord_wal_path() const;

  // --- RowId shard tags. ---

  static constexpr int kShardTagShift = 48;
  static RowId TagRid(size_t shard, RowId rid) {
    return (static_cast<RowId>(shard + 1) << kShardTagShift) | rid;
  }
  static bool RidTagged(RowId rid) { return (rid >> kShardTagShift) != 0; }
  static size_t RidShard(RowId rid) {
    return static_cast<size_t>(rid >> kShardTagShift) - 1;
  }
  static RowId LocalRid(RowId rid) {
    return rid & ((1ull << kShardTagShift) - 1);
  }

  // --- Fault injection (2PC crash windows; see src/common/fault.h). ---
  //
  // The commit path probes these FaultInjector sites. Arming one with
  // Action::kCrash reproduces the classical 2PC crash windows — state and
  // logs are left exactly as a process kill would leave them (the caller
  // must then drop the router and FaultInjector::Global()->Reset() before
  // Recover):
  //
  //   2pc.before_prepare        no prepare written anywhere
  //   2pc.after_prepare         after each participant's yes-vote
  //                             (nth=1: one voted, the rest did not)
  //   2pc.before_decision       all voted, no decision logged
  //   2pc.after_decision        decision durable, no branch stamped/told
  //   2pc.after_stamp           decision durable and visible to snapshot
  //                             readers, no branch's locks released
  //   2pc.after_shard_decision  after each phase-2 delivery (nth=1: one
  //                             shard told, the rest resolve from the
  //                             coordinator's log)
  //
  // Faults at or past 2pc.after_decision always escalate to a full crash
  // latch: the decision is durable, so an in-memory abort would contradict
  // what recovery replays.

  // --- Decision-log GC. ---

  /// Prunes coordinator decision records whose branches can all resolve
  /// from their own shard logs. Phase-2 per-shard decisions are appended
  /// lazily (unflushed), so GC first flushes every shard WAL — turning
  /// "appended" into "durable", which is what pruning actually requires —
  /// then rewrites the coordinator log (temp file + rename) keeping DDL,
  /// ENTANGLE, and the decisions of gtids with an undelivered branch.
  /// Runs automatically every kDecisionGcInterval cross-shard commits;
  /// callable directly (tests / operators). Returns records pruned.
  StatusOr<size_t> GcDecisionLog();

  /// Decided gtids at least one of whose branches lacks an appended local
  /// decision record — GC retains these until delivery (or recovery)
  /// repairs them.
  size_t undelivered_decisions() const;

 private:
  struct Shard {
    std::unique_ptr<Database> db;
    std::unique_ptr<LockManager> locks;
    std::unique_ptr<WalWriter> wal;  // null in volatile mode
    std::unique_ptr<TransactionManager> tm;
  };

  /// Coordinator-side state of one distributed transaction: the lazily
  /// enlisted per-shard branches (index = shard).
  struct Dtxn {
    IsolationLevel level;
    std::vector<std::unique_ptr<Transaction>> branches;
    /// Set when a broadcast write applied to some replicas and failed on
    /// another: replicas are diverged, so only Abort may terminate this
    /// transaction (Commit refuses).
    bool abort_only = false;
  };

  explicit Router(Options options);

  StatusOr<Dtxn*> FindDtxn(const Transaction* txn);
  void EraseDtxn(TxnId id);
  /// The branch of `dt` on `shard`, enlisting (shard-level Begin) on first
  /// touch. Under snapshot reads the branch adopts the coordinator's
  /// current timestamp (re-synced on every touch), so all branches of one
  /// statement read the same cut — and a branch's first-updater-wins check
  /// runs against the coordinator's snapshot, not its own enlist time.
  Transaction* EnlistBranch(Dtxn* dt, const Transaction* txn, size_t shard);
  /// True when this transaction's reads go through the versioned heap.
  bool SnapshotReadsActive(const Transaction* txn) const {
    return mvcc_reads_.load(std::memory_order_relaxed) &&
           UsesSnapshotReads(txn->isolation_level());
  }
  /// Coordinator-side mirror of TransactionManager::MaybeRefreshSnapshot:
  /// advances a kReadCommitted coordinator's cut at statement boundaries
  /// (kSnapshot keeps its Begin-time pin; mid-statement and grounding
  /// refreshes are suppressed) and keeps the registry pin current so GC
  /// never prunes under an open coordinator snapshot.
  void RefreshCoordinatorSnapshot(Transaction* txn, bool grounding);
  /// Drops the coordinator's registry pin (terminal paths).
  void ReleaseCoordinatorSnapshot(Transaction* txn);
  /// Resolves `table` to its canonical catalog entry.
  StatusOr<Table*> CatalogTable(const std::string& table) const;
  /// Splits a distributed transaction's branches into writers and readers.
  void SplitBranches(Dtxn* dt,
                     std::vector<std::pair<size_t, Transaction*>>* writers,
                     std::vector<std::pair<size_t, Transaction*>>* readers);
  /// Decodes a partitioned table's shard-tagged RowId.
  StatusOr<std::pair<size_t, RowId>> ResolveRid(RowId rid) const;
  /// Fanout-collect for write-candidate acquisition: runs `per_shard`
  /// (shard index, branch) -> StatusOr<rows> over [lo, hi) and returns
  /// the shard-tagged concatenation.
  template <typename PerShard>
  StatusOr<std::vector<std::pair<RowId, Row>>> CollectForWrite(
      Dtxn* dt, const Transaction* txn, size_t lo, size_t hi,
      PerShard&& per_shard);
  /// The 2PC core shared by Commit and CommitGroup. `writers` span >= 2
  /// shards. A fired crash fault (or any failure while the process-wide
  /// crash latch is set) sets `*crashed` and returns an error with state
  /// and logs left exactly as a crash would leave them — the caller must
  /// skip abort cleanup then.
  Status TwoPhaseCommit(GroupId gtid,
                        const std::vector<std::pair<size_t, Transaction*>>&
                            writers,
                        const std::vector<std::pair<size_t, Transaction*>>&
                            readers,
                        bool* crashed);
  /// Aborts every branch (best effort) — failure/abort cleanup.
  void AbortBranches(Dtxn* dt);
  /// The fan-out core of OpenFanout and AggregateTable: enlists every
  /// shard and opens `plan` on it in shard order, then drains the per-shard
  /// cursors in parallel, handing each pulled batch to `sink(shard, batch)`
  /// on that shard's drain thread. Cursors close as their drain ends.
  /// Returns the first failed open or drain.
  Status DrainShards(const Transaction* txn, Dtxn* dt,
                     const std::string& table, const AccessPlan& plan,
                     ReadOrigin origin,
                     const std::function<void(size_t, RowBatch*)>& sink);
  /// Opens one fanned-out plan: per-shard cursors, parallel drain, merge.
  StatusOr<std::unique_ptr<TableCursor>> OpenFanout(const Transaction* txn,
                                                    Dtxn* dt,
                                                    const std::string& table,
                                                    const AccessPlan& plan,
                                                    ReadOrigin origin);

  Options options_;
  /// Shared across shards (constructed before them, destroyed after): one
  /// commit clock and one snapshot registry give cross-shard statements a
  /// single consistent cut and GC a global horizon.
  std::unique_ptr<VersionClock> clock_;
  std::unique_ptr<SnapshotRegistry> snapshots_;
  std::vector<Shard> shards_;
  std::unique_ptr<WalWriter> coord_wal_;  // null in volatile mode
  ShardMap map_;

  std::mutex mu_;  ///< guards dtxns_ and partition overrides
  std::unordered_map<TxnId, std::unique_ptr<Dtxn>> dtxns_;
  /// Pre-CREATE partitioning overrides, keyed by lower-cased table name.
  std::unordered_map<std::string, std::vector<std::string>> overrides_;

  std::atomic<TxnId> next_txn_id_{1};
  TxnStats stats_;
  /// Versioned snapshot reads when true (default); false = locking-read
  /// ablation (mirrored into every shard manager).
  std::atomic<bool> mvcc_reads_{true};

  /// Guards the coordinator log (decision writes, DDL/ENTANGLE appends,
  /// the GC rewrite) plus `undelivered_` and the GC cadence counter.
  mutable std::mutex coord_mu_;
  /// Decided gtids with a branch whose local decision append failed (or
  /// has not happened yet): their coordinator records are not GC-eligible.
  std::set<GroupId> undelivered_;
  size_t commits_since_decision_gc_ = 0;
  static constexpr size_t kDecisionGcInterval = 128;
};

}  // namespace youtopia::shard

#endif  // YOUTOPIA_SHARD_ROUTER_H_
