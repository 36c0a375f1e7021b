#include "src/txn/transaction_manager.h"

#include <algorithm>
#include <fstream>
#include <limits>

#include "src/common/fault.h"
#include "src/common/metrics.h"

namespace youtopia {

namespace {

/// Inline GC slice of a writing commit: a fixed floor plus twice its own
/// superseded rows, so every writing commit drains more than it queued and
/// a backlog left behind a released snapshot pin shrinks commit by commit.
constexpr size_t kPruneSliceBase = 64;
constexpr size_t kPruneSlicePerRow = 2;

/// Update/delete undo entries: the rows whose commit supersedes a version.
/// Inserts supersede nothing.
size_t SupersededRows(const Transaction& txn) {
  size_t n = 0;
  for (const UndoEntry& e : txn.undo_log()) {
    if (e.kind != UndoEntry::Kind::kInsert) ++n;
  }
  return n;
}

bool IsGroundingOrigin(ReadOrigin origin) {
  return origin == ReadOrigin::kGrounding ||
         origin == ReadOrigin::kGroundingJoin;
}

/// Per-isolation-level commit/abort latency histograms plus the engine-wide
/// termination counters, resolved against the registry once.
struct TxnMetricHandles {
  Counter* commits;
  Counter* aborts;
  Histogram* commit_by_level[5];
  Histogram* abort_by_level[5];
};

const TxnMetricHandles& TxnMetrics() {
  static const TxnMetricHandles h = [] {
    MetricsRegistry* r = MetricsRegistry::Global();
    static constexpr const char* kLevels[5] = {
        "full_entangled", "serializable", "read_committed",
        "read_uncommitted", "snapshot"};
    TxnMetricHandles out;
    out.commits = r->counter("txn.commits");
    out.aborts = r->counter("txn.aborts");
    for (int i = 0; i < 5; ++i) {
      out.commit_by_level[i] = r->histogram(
          std::string("txn.commit_micros.") + kLevels[i]);
      out.abort_by_level[i] = r->histogram(
          std::string("txn.abort_micros.") + kLevels[i]);
    }
    return out;
  }();
  return h;
}

Histogram* CommitLatencyHist(IsolationLevel l) {
  return TxnMetrics().commit_by_level[static_cast<int>(l)];
}

Histogram* AbortLatencyHist(IsolationLevel l) {
  return TxnMetrics().abort_by_level[static_cast<int>(l)];
}

/// The kReadCommitted early-release rule, shared by every cursor type:
/// drop the shared lock on `key` unless this transaction holds it in a
/// write mode (X; for table keys also IX) — those protect the
/// transaction's own uncommitted writes and must survive to commit.
void ReleaseUnlessWriteHeld(LockManager* locks, TxnId txn, LockKey key) {
  if (locks->Holds(txn, key, LockMode::kX)) return;
  if (key.is_table() && locks->Holds(txn, key, LockMode::kIX)) return;
  locks->ReleaseKey(txn, key);
}

/// Heap-scan cursor: a private walk of the heap in chunks of
/// RowBatch::kDefaultRows rows, each read at `view`. A snapshot view reads
/// lock-free (closing releases nothing); the Latest view reads under the
/// table S lock OpenCursor took, and closing performs the kReadCommitted
/// early release of that lock when `release_table_on_close`.
class HeapScanCursor : public TableCursor {
 public:
  // One batched pull == one chunk: the swap fast path in NextBatch leans on
  // the default pull target matching the chunk size.
  static constexpr size_t kChunkRows = RowBatch::kDefaultRows;

  HeapScanCursor(LockManager* locks, Transaction* txn, const Table* table,
                 ReadView view, bool release_table_on_close)
      : locks_(locks),
        txn_(txn),
        table_(table),
        view_(view),
        release_table_on_close_(release_table_on_close) {
    txn_->cursor_opened();
    buf_.reserve(kChunkRows);
  }

  ~HeapScanCursor() override {
    // Early release only when this is the transaction's last open cursor:
    // S locks merge per (txn, key), so dropping the table S here could
    // strip it from under a sibling cursor still scanning this table.
    if (txn_->cursor_closed() == 0 && release_table_on_close_ &&
        ReleasesReadLocksEarly(txn_->isolation_level())) {
      ReleaseUnlessWriteHeld(locks_, txn_->id(),
                             LockKey::Table(table_->id()));
    }
  }

  /// Visit-only drain of a fresh cursor skips the pull loop. A Latest-view
  /// read walks the heap directly under the latch (the table S lock
  /// already excludes writers; selective consumers copy only what they
  /// keep). A snapshot read walks chunk by chunk so concurrent writers
  /// never wait on the latch for a whole scan.
  Status DrainRef(
      const std::function<bool(RowId, const Row&)>& visitor) override {
    if (started_) return TableCursor::DrainRef(visitor);
    started_ = done_ = true;
    if (view_.latest()) {
      table_->Scan(visitor);
      return Status::Ok();
    }
    bool more = true;
    for (RowId from = 1; more && from != 0;) {
      from = table_->ScanChunk(view_, from, kChunkRows, &buf_);
      for (size_t i = 0; more && i < buf_.size(); ++i) {
        more = visitor(buf_[i].first, buf_[i].second);
      }
    }
    buf_.clear();  // drained: later pulls must find nothing buffered
    return Status::Ok();
  }

  StatusOr<bool> NextRef(RowId* rid, const Row** row) override {
    started_ = true;
    if (!Refill()) return false;
    *rid = buf_[pos_].first;
    *row = &buf_[pos_].second;
    ++pos_;
    return true;
  }

  StatusOr<bool> Next(RowId* rid, Row* row) override {
    started_ = true;
    if (!Refill()) return false;
    *rid = buf_[pos_].first;
    *row = std::move(buf_[pos_].second);
    ++pos_;
    return true;
  }

  /// Batched pull: a whole chunk moves over by swap — the chunk buffer and
  /// the caller's batch then ping-pong, so a full scan costs one virtual
  /// call and zero row copies per chunk.
  StatusOr<bool> NextBatch(RowBatch* batch, size_t max_rows) override {
    started_ = true;
    batch->clear();
    if (max_rows == 0) max_rows = 1;
    if (!Refill()) return false;
    if (pos_ == 0) {
      // Whole chunk (a smaller max_rows still takes the chunk wholesale —
      // the target is pacing, not a cap).
      batch->rows.swap(buf_);
      buf_.clear();  // keep the swapped-in capacity for the next chunk
    } else {
      size_t take = buf_.size() - pos_;
      batch->reserve(take);
      std::move(buf_.begin() + pos_, buf_.end(),
                std::back_inserter(batch->rows));
      buf_.clear();
      pos_ = 0;
    }
    return true;
  }

  size_t size_hint() const override { return table_->size(); }

 private:
  /// Ensures buf_[pos_] is the next unreturned row.
  bool Refill() {
    if (pos_ < buf_.size()) return true;
    if (done_) return false;
    RowId next = table_->ScanChunk(view_, next_from_, kChunkRows, &buf_);
    // Only a 0 resume point means the end: an empty chunk (every entry in
    // the window invisible at this view) is skipped, not returned.
    while (buf_.empty() && next != 0) {
      next = table_->ScanChunk(view_, next, kChunkRows, &buf_);
    }
    pos_ = 0;
    if (buf_.empty()) {
      done_ = true;
      return false;
    }
    next_from_ = next;
    if (next == 0) done_ = true;
    return true;
  }

  LockManager* locks_;
  Transaction* txn_;
  const Table* table_;
  ReadView view_;
  bool release_table_on_close_;
  std::vector<std::pair<RowId, Row>> buf_;
  RowId next_from_ = 1;
  size_t pos_ = 0;  ///< next unreturned row in buf_
  bool done_ = false;
  bool started_ = false;
};

/// The predicate S lock a locking lookup cursor holds over its matched
/// set; kNone marks a lock-free cursor (snapshot views, kReadUncommitted).
struct PredicateLock {
  enum class Kind { kNone, kIndexKey, kRange, kTableS };
  Kind kind = Kind::kNone;
  LockKey key;          ///< kIndexKey: the key hash; kTableS: the table
  RangeSpaceKey space;  ///< kRange
  IndexRange range;     ///< kRange
};

/// Cursor over the (RowId, Row) pairs an index or range lookup read at
/// open time; rows are handed out by move (the cursor owns its copies).
/// A locking cursor already holds its predicate lock when it opens, and
/// every writer X-locks the index keys (hash and ordered Point) of both
/// its before and after rows, so no other transaction can change a
/// matched row while the cursor lives: the pairs read at open are what a
/// per-pull read would return. Row S locks are still taken as rows are
/// pulled, and closing at kReadCommitted releases the visited row S plus
/// the predicate lock. Per-row schedule observation happens as rows are
/// pulled.
class FetchedRowsCursor : public TableCursor {
 public:
  FetchedRowsCursor(LockManager* locks, Transaction* txn, const Table* table,
                    OpObserver* observer, bool observe_rows,
                    std::vector<std::pair<RowId, Row>> rows,
                    PredicateLock predicate)
      : locks_(locks),
        txn_(txn),
        table_(table),
        observer_(observer),
        observe_rows_(observe_rows),
        rows_(std::move(rows)),
        predicate_(std::move(predicate)) {
    txn_->cursor_opened();
  }

  ~FetchedRowsCursor() override {
    // Last-open-cursor gate: see ~HeapScanCursor.
    if (txn_->cursor_closed() != 0 ||
        predicate_.kind == PredicateLock::Kind::kNone ||
        !ReleasesReadLocksEarly(txn_->isolation_level())) {
      return;
    }
    // Short read locks: drop the row S and predicate S now; keep table IS.
    // Never drop a lock this transaction holds in X — that protects its own
    // earlier uncommitted writes.
    for (RowId rid : visited_) {
      ReleaseUnlessWriteHeld(locks_, txn_->id(),
                             LockKey::RowOf(table_->id(), rid));
    }
    if (predicate_.kind == PredicateLock::Kind::kRange) {
      locks_->ReleaseSharedRange(txn_->id(), predicate_.space,
                                 predicate_.range);
    } else {
      ReleaseUnlessWriteHeld(locks_, txn_->id(), predicate_.key);
    }
  }

  StatusOr<bool> NextRef(RowId* rid, const Row** row) override {
    if (idx_ >= rows_.size()) return false;
    YT_RETURN_IF_ERROR(Visit(rows_[idx_].first));
    *rid = rows_[idx_].first;
    *row = &rows_[idx_].second;
    ++idx_;
    return true;
  }

  StatusOr<bool> Next(RowId* rid, Row* row) override {
    if (idx_ >= rows_.size()) return false;
    YT_RETURN_IF_ERROR(Visit(rows_[idx_].first));
    *rid = rows_[idx_].first;
    *row = std::move(rows_[idx_].second);
    ++idx_;
    return true;
  }

  /// Batched pull: one virtual call per batch, but the per-row S lock
  /// acquisition stays inside the loop — batching never changes the lock
  /// protocol. A batch covering the whole set moves over by swap.
  StatusOr<bool> NextBatch(RowBatch* batch, size_t max_rows) override {
    batch->clear();
    if (max_rows == 0) max_rows = 1;
    const size_t begin = idx_;
    const size_t end = std::min(rows_.size(), begin + max_rows);
    if (begin == end) return false;
    for (; idx_ < end; ++idx_) YT_RETURN_IF_ERROR(Visit(rows_[idx_].first));
    if (begin == 0 && end == rows_.size()) {
      batch->rows.swap(rows_);
      rows_.clear();
      idx_ = 0;
      return true;
    }
    batch->reserve(end - begin);
    std::move(rows_.begin() + begin, rows_.begin() + end,
              std::back_inserter(batch->rows));
    return true;
  }

  size_t size_hint() const override { return rows_.size() - idx_; }

 private:
  /// Per-pulled-row work: row S (locking cursors) and the R observation.
  Status Visit(RowId rid) {
    if (predicate_.kind != PredicateLock::Kind::kNone) {
      YT_RETURN_IF_ERROR(locks_->Acquire(txn_->id(),
                                         LockKey::RowOf(table_->id(), rid),
                                         LockMode::kS,
                                         txn_->lock_timeout_micros()));
      visited_.push_back(rid);
    }
    if (observe_rows_ && observer_ != nullptr) {
      observer_->OnRead(txn_->id(), {table_->name(), rid});
    }
    return Status::Ok();
  }

  LockManager* locks_;
  Transaction* txn_;
  const Table* table_;
  OpObserver* observer_;
  bool observe_rows_;
  std::vector<std::pair<RowId, Row>> rows_;
  PredicateLock predicate_;
  size_t idx_ = 0;  ///< next unreturned row in rows_
  std::vector<RowId> visited_;
};

}  // namespace

TransactionManager::TransactionManager(Database* db, LockManager* locks,
                                       WalWriter* wal, Options options)
    : db_(db), locks_(locks), wal_(wal), options_(options) {
  if (options_.clock != nullptr) {
    clock_ = options_.clock;
  } else {
    owned_clock_ = std::make_unique<VersionClock>();
    clock_ = owned_clock_.get();
  }
  if (options_.snapshots != nullptr) {
    snapshots_ = options_.snapshots;
  } else {
    owned_snapshots_ = std::make_unique<SnapshotRegistry>();
    snapshots_ = owned_snapshots_.get();
  }
  // Count physical flushes into our stats; shard::Router re-points every
  // shard's counter at its own aggregate after construction.
  if (wal_ != nullptr) wal_->set_flush_counter(&stats_.wal_flushes);
}

TransactionManager::TransactionManager(Database* db, LockManager* locks,
                                       WalWriter* wal)
    : TransactionManager(db, locks, wal, Options()) {}

TransactionManager::~TransactionManager() {
  // The WalWriter is caller-owned and may outlive us — detach the counter
  // before our stats go away.
  if (wal_ != nullptr) wal_->set_flush_counter(nullptr);
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  return Begin(options_.default_isolation);
}

std::unique_ptr<Transaction> TransactionManager::Begin(IsolationLevel level) {
  TxnId id = next_txn_id_.fetch_add(1);
  stats_.begins.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_unique<Transaction>(id, level,
                                           options_.lock_timeout_micros);
  // Sampled tracing: 1 in N transactions carries a trace id, so the
  // commit-path spans (lock waits, group-commit waits, 2PC phases) assemble
  // into a trace without taxing every transaction with ring pushes. A
  // transaction begun inside an already-sampled span (a traced SQL
  // statement) joins that trace instead of drawing again — its commit
  // spans then parent under the statement's tree.
  if (metrics_enabled()) {
    const TraceContext& ctx = CurrentTraceContext();
    if (ctx.trace_id != 0) {
      txn->set_trace_id(ctx.trace_id);
    } else if (Tracer::Global()->ShouldSample()) {
      txn->set_trace_id(Tracer::Global()->NewTraceId());
    }
  }
  if (wal_ != nullptr) {
    (void)wal_->Append(WalRecord::Begin(id));
  }
  // kSnapshot pins its one snapshot for the whole transaction right here;
  // kReadCommitted acquires a fresh cut lazily at each statement instead.
  if (options_.enable_mvcc_reads &&
      level == IsolationLevel::kSnapshot) {
    txn->set_read_ts(snapshots_->RegisterCurrent(*clock_));
    txn->set_snapshot_registered(true);
  }
  return txn;
}

void TransactionManager::AdoptSnapshot(Transaction* txn, uint64_t ts) {
  if (txn->snapshot_registered()) {
    snapshots_->Unregister(txn->read_ts());
    txn->set_snapshot_registered(false);
  }
  txn->set_read_ts(ts);
  txn->set_external_read_ts(true);
}

void TransactionManager::MaybeRefreshSnapshot(Transaction* txn,
                                              bool grounding) {
  if (txn->external_read_ts()) return;  // coordinator owns the snapshot
  if (txn->isolation_level() == IsolationLevel::kSnapshot &&
      txn->snapshot_registered()) {
    return;  // pinned at Begin for the whole transaction
  }
  // kReadCommitted: refresh per statement only — never mid-statement (a
  // join's probe cursors must read the same cut as their outer scan), and
  // grounding reads after the first keep the cut the grounding started on
  // (every body atom of an entangled query reads one consistent state).
  if (txn->read_ts() != 0 && (txn->open_cursors() > 0 || grounding)) return;
  if (txn->snapshot_registered()) {
    txn->set_read_ts(snapshots_->RefreshCurrent(txn->read_ts(), *clock_));
  } else {
    txn->set_read_ts(snapshots_->RegisterCurrent(*clock_));
    txn->set_snapshot_registered(true);
  }
}

void TransactionManager::StampWrites(Transaction* txn) {
  if (txn->undo_log().empty() || txn->commit_stamped()) return;
  // The [allocate, stamp, publish] window: the timestamp becomes readable
  // only after every row carrying it is stamped, so no snapshot ever sees
  // half a commit. Row X locks are still held here (released after).
  std::lock_guard<std::mutex> g(clock_->commit_mutex());
  uint64_t ts = clock_->AllocateCommitTs();
  StampRows(txn, ts);
  clock_->Publish(ts);
}

void TransactionManager::StampWritesAt(Transaction* txn, uint64_t ts) {
  StampRows(txn, ts);
  txn->set_commit_stamped(true);
}

void TransactionManager::StampRows(Transaction* txn, uint64_t ts) {
  std::vector<PendingPrune> superseded;
  for (const UndoEntry& e : txn->undo_log()) {
    auto t = db_->GetTable(e.table);
    if (!t.ok()) continue;
    t.value()->StampCommit(e.row_id, txn->id(), ts);
    if (e.kind != UndoEntry::Kind::kInsert) {
      superseded.push_back({t.value()->id(), e.row_id, ts});
    }
  }
  if (superseded.empty()) return;
  std::lock_guard<std::mutex> g(prune_mu_);
  pending_prunes_.insert(pending_prunes_.end(), superseded.begin(),
                         superseded.end());
}

void TransactionManager::ReleaseSnapshot(Transaction* txn) {
  if (!txn->snapshot_registered()) return;
  snapshots_->Unregister(txn->read_ts());
  txn->set_snapshot_registered(false);
}

size_t TransactionManager::GcVersions() {
  return DrainPrunes(std::numeric_limits<size_t>::max());
}

size_t TransactionManager::pending_prunes() const {
  std::lock_guard<std::mutex> g(prune_mu_);
  return pending_prunes_.size();
}

size_t TransactionManager::DrainPrunes(size_t max_entries) {
  // Horizon first, then pop: every popped entry is at-or-below it, and the
  // horizon stays a safe prune bound after it is read (see
  // SnapshotRegistry). The list is in commit-timestamp order, so the first
  // entry above the horizon ends the prunable prefix.
  uint64_t horizon = snapshots_->Horizon(*clock_);
  std::vector<PendingPrune> slice;
  {
    std::lock_guard<std::mutex> g(prune_mu_);
    while (slice.size() < max_entries && !pending_prunes_.empty() &&
           pending_prunes_.front().ts <= horizon) {
      slice.push_back(pending_prunes_.front());
      pending_prunes_.pop_front();
    }
  }
  std::sort(slice.begin(), slice.end(),
            [](const PendingPrune& a, const PendingPrune& b) {
              return a.table != b.table ? a.table < b.table : a.rid < b.rid;
            });
  size_t pruned = 0;
  std::vector<RowId> rids;
  for (size_t i = 0; i < slice.size();) {
    TableId table = slice[i].table;
    rids.clear();
    for (; i < slice.size() && slice[i].table == table; ++i) {
      if (rids.empty() || rids.back() != slice[i].rid) {
        rids.push_back(slice[i].rid);
      }
    }
    Table* t = db_->GetTableById(table);
    if (t != nullptr) pruned += t->PruneRows(rids, horizon);
  }
  if (pruned > 0) {
    stats_.versions_pruned.fetch_add(pruned, std::memory_order_relaxed);
  }
  return pruned;
}

void TransactionManager::DrainAfterCommit(size_t superseded) {
  if (superseded == 0) return;
  (void)DrainPrunes(kPruneSliceBase + kPruneSlicePerRow * superseded);
}

Status TransactionManager::AcquireIndexKeyLocks(Transaction* txn,
                                                const Table* t,
                                                std::vector<uint64_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  std::vector<LockKey> keys;
  keys.reserve(hashes.size());
  for (uint64_t h : hashes) keys.push_back(LockKey::IndexKey(t->id(), h));
  return locks_->AcquireBatch(txn->id(), keys, LockMode::kX,
                              txn->lock_timeout_micros());
}

Status TransactionManager::AcquireOrderedKeyLocks(
    Transaction* txn, const Table* t,
    std::vector<std::pair<uint64_t, Row>> keys) {
  std::sort(keys.begin(), keys.end(),
            [](const std::pair<uint64_t, Row>& a,
               const std::pair<uint64_t, Row>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second.Compare(b.second) < 0;
            });
  keys.erase(std::unique(keys.begin(), keys.end(),
                         [](const std::pair<uint64_t, Row>& a,
                            const std::pair<uint64_t, Row>& b) {
                           return a.first == b.first && a.second == b.second;
                         }),
             keys.end());
  for (auto& [index_id, key] : keys) {
    YT_RETURN_IF_ERROR(locks_->AcquireRange(
        txn->id(), RangeSpaceKey{t->id(), index_id},
        IndexRange::Point(std::move(key)), LockMode::kX,
        txn->lock_timeout_micros()));
  }
  return Status::Ok();
}

StatusOr<RowId> TransactionManager::Insert(Transaction* txn,
                                           const std::string& table,
                                           const Row& row) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::Table(t->id()),
                                     LockMode::kIX,
                                     txn->lock_timeout_micros()));
  // Index-key X locks before touching the index structures: concurrent
  // indexed equality readers of the same key hold S on the hash, so this
  // insert cannot create a phantom under them.
  YT_ASSIGN_OR_RETURN(Row coerced, t->Coerce(row));
  YT_RETURN_IF_ERROR(
      AcquireIndexKeyLocks(txn, t, t->IndexKeyHashesFor(coerced)));
  // Key-range X on each ordered-index key: a range reader whose scanned
  // interval contains this key holds S on that interval, so the insert
  // cannot create a phantom inside it.
  YT_RETURN_IF_ERROR(
      AcquireOrderedKeyLocks(txn, t, t->OrderedIndexKeysFor(coerced)));
  YT_ASSIGN_OR_RETURN(RowId rid,
                      t->Insert(std::move(coerced), txn->id()));
  // X on the new row: no other transaction can see it before commit anyway
  // (it is brand new), but the lock keeps the row protocol uniform.
  YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::RowOf(t->id(), rid),
                                     LockMode::kX,
                                     txn->lock_timeout_micros()));
  txn->undo_log().push_back(
      {UndoEntry::Kind::kInsert, t->name(), rid, Row()});
  txn->count_write();
  if (wal_ != nullptr) {
    // A failed redo append dooms the statement — ignoring it would let a
    // later durable COMMIT replay a transaction missing this write. The
    // undo entry above rolls the in-memory insert back on abort.
    YT_RETURN_IF_ERROR(
        wal_->Append(WalRecord::Insert(txn->id(), t->name(), rid, row))
            .status());
  }
  if (options_.observer != nullptr) {
    options_.observer->OnWrite(txn->id(), {t->name(), rid});
  }
  return rid;
}

Status TransactionManager::AcquireReadLocks(Transaction* txn, const Table* t,
                                            RowId rid) {
  if (!TakesReadLocks(txn->isolation_level())) return Status::Ok();
  YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::Table(t->id()),
                                     LockMode::kIS,
                                     txn->lock_timeout_micros()));
  return locks_->Acquire(txn->id(), LockKey::RowOf(t->id(), rid), LockMode::kS,
                         txn->lock_timeout_micros());
}

void TransactionManager::ReleaseEarlyReadLocks(Transaction* txn,
                                               const Table* t, RowId rid) {
  if (!ReleasesReadLocksEarly(txn->isolation_level())) return;
  // Short read locks: drop the row S immediately; keep table IS (cheap,
  // compatible with everything but table X) until commit.
  if (!locks_->Holds(txn->id(), LockKey::RowOf(t->id(), rid), LockMode::kX)) {
    locks_->ReleaseKey(txn->id(), LockKey::RowOf(t->id(), rid));
  }
}

ReadView TransactionManager::ReadViewFor(Transaction* txn, bool grounding) {
  if (!SnapshotReadsActive(txn)) return ReadView::Latest();
  MaybeRefreshSnapshot(txn, grounding);
  stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  return ReadView{txn->read_ts(), txn->id()};
}

StatusOr<Row> TransactionManager::Get(Transaction* txn,
                                      const std::string& table, RowId rid) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  const ReadView view = ReadViewFor(txn, /*grounding=*/false);
  if (view.latest()) YT_RETURN_IF_ERROR(AcquireReadLocks(txn, t, rid));
  auto row = t->Get(rid, view);
  if (options_.observer != nullptr) {
    options_.observer->OnRead(txn->id(), {t->name(), rid});
  }
  if (view.latest()) ReleaseEarlyReadLocks(txn, t, rid);
  return row;
}

Status TransactionManager::Update(Transaction* txn, const std::string& table,
                                  RowId rid, const Row& row) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::Table(t->id()),
                                     LockMode::kIX,
                                     txn->lock_timeout_micros()));
  YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::RowOf(t->id(), rid),
                                     LockMode::kX,
                                     txn->lock_timeout_micros()));
  // First-updater-wins: a snapshot transaction may not overwrite a version
  // committed after its snapshot (lost-update prevention — the X lock above
  // means any conflicting writer has already committed and stamped).
  if (options_.enable_mvcc_reads &&
      txn->isolation_level() == IsolationLevel::kSnapshot &&
      t->LatestBeginTs(rid) > txn->read_ts()) {
    return Status::Aborted("write-write conflict: row " + std::to_string(rid) +
                           " of " + t->name() +
                           " was updated after this snapshot");
  }
  YT_ASSIGN_OR_RETURN(Row before, t->Get(rid, ReadView::Latest()));
  // The update moves this row's index entries from the old keys to the new
  // ones; X both sides so equality readers of either key are excluded.
  YT_ASSIGN_OR_RETURN(Row coerced, t->Coerce(row));
  std::vector<uint64_t> hashes = t->IndexKeyHashesFor(before);
  for (uint64_t h : t->IndexKeyHashesFor(coerced)) hashes.push_back(h);
  YT_RETURN_IF_ERROR(AcquireIndexKeyLocks(txn, t, std::move(hashes)));
  std::vector<std::pair<uint64_t, Row>> okeys = t->OrderedIndexKeysFor(before);
  for (auto& k : t->OrderedIndexKeysFor(coerced)) okeys.push_back(std::move(k));
  YT_RETURN_IF_ERROR(AcquireOrderedKeyLocks(txn, t, std::move(okeys)));
  bool pushed = false;
  YT_RETURN_IF_ERROR(t->Update(rid, std::move(coerced), txn->id(), &pushed));
  if (pushed) {
    stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
  }
  txn->undo_log().push_back(
      {UndoEntry::Kind::kUpdate, t->name(), rid, before});
  txn->count_write();
  if (wal_ != nullptr) {
    // As in Insert: a lost redo record must fail the statement.
    YT_RETURN_IF_ERROR(
        wal_->Append(WalRecord::Update(txn->id(), t->name(), rid, before, row))
            .status());
  }
  if (options_.observer != nullptr) {
    options_.observer->OnWrite(txn->id(), {t->name(), rid});
  }
  return Status::Ok();
}

Status TransactionManager::Delete(Transaction* txn, const std::string& table,
                                  RowId rid) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::Table(t->id()),
                                     LockMode::kIX,
                                     txn->lock_timeout_micros()));
  YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::RowOf(t->id(), rid),
                                     LockMode::kX,
                                     txn->lock_timeout_micros()));
  // First-updater-wins, as in Update.
  if (options_.enable_mvcc_reads &&
      txn->isolation_level() == IsolationLevel::kSnapshot &&
      t->LatestBeginTs(rid) > txn->read_ts()) {
    return Status::Aborted("write-write conflict: row " + std::to_string(rid) +
                           " of " + t->name() +
                           " was updated after this snapshot");
  }
  YT_ASSIGN_OR_RETURN(Row before, t->Get(rid, ReadView::Latest()));
  YT_RETURN_IF_ERROR(
      AcquireIndexKeyLocks(txn, t, t->IndexKeyHashesFor(before)));
  YT_RETURN_IF_ERROR(
      AcquireOrderedKeyLocks(txn, t, t->OrderedIndexKeysFor(before)));
  bool pushed = false;
  YT_RETURN_IF_ERROR(t->Delete(rid, txn->id(), &pushed));
  if (pushed) {
    stats_.versions_created.fetch_add(1, std::memory_order_relaxed);
  }
  txn->undo_log().push_back(
      {UndoEntry::Kind::kDelete, t->name(), rid, before});
  txn->count_write();
  if (wal_ != nullptr) {
    // As in Insert: a lost redo record must fail the statement.
    YT_RETURN_IF_ERROR(
        wal_->Append(WalRecord::Delete(txn->id(), t->name(), rid, before))
            .status());
  }
  if (options_.observer != nullptr) {
    options_.observer->OnWrite(txn->id(), {t->name(), rid});
  }
  return Status::Ok();
}

void TransactionManager::CountRead(const AccessPlan& plan, ReadOrigin origin) {
  switch (plan.kind) {
    case AccessPlan::Kind::kTableScan:
      if (IsGroundingOrigin(origin)) {
        stats_.grounding_scans.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_.table_scans.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case AccessPlan::Kind::kIndexLookup:
      switch (origin) {
        case ReadOrigin::kStatement:
          stats_.index_lookups.fetch_add(1, std::memory_order_relaxed);
          break;
        case ReadOrigin::kGrounding:
          stats_.grounding_index_lookups.fetch_add(1,
                                                   std::memory_order_relaxed);
          break;
        case ReadOrigin::kJoin:
          stats_.join_probes.fetch_add(1, std::memory_order_relaxed);
          break;
        case ReadOrigin::kGroundingJoin:
          stats_.grounding_join_probes.fetch_add(1,
                                                 std::memory_order_relaxed);
          break;
      }
      break;
    case AccessPlan::Kind::kIndexRange:
      switch (origin) {
        case ReadOrigin::kStatement:
          stats_.range_lookups.fetch_add(1, std::memory_order_relaxed);
          break;
        case ReadOrigin::kGrounding:
          stats_.grounding_range_lookups.fetch_add(1,
                                                   std::memory_order_relaxed);
          break;
        case ReadOrigin::kJoin:
          stats_.range_join_probes.fetch_add(1, std::memory_order_relaxed);
          break;
        case ReadOrigin::kGroundingJoin:
          stats_.grounding_range_probes.fetch_add(1,
                                                  std::memory_order_relaxed);
          break;
      }
      break;
  }
}

StatusOr<std::unique_ptr<TableCursor>> TransactionManager::OpenCursor(
    Transaction* txn, Table* t, AccessPlan plan, ReadOrigin origin) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  const bool grounding = IsGroundingOrigin(origin);
  // Snapshot levels read their cut with zero lock-manager traffic — scans,
  // index probes, range reads, join probes and grounding alike. The
  // locking levels (and the MVCC ablation) read the latest versions under
  // the plan's S locks.
  const ReadView view = ReadViewFor(txn, grounding);
  const bool take_locks =
      view.latest() && TakesReadLocks(txn->isolation_level());

  if (plan.is_scan()) {
    if (take_locks) {
      YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::Table(t->id()),
                                         LockMode::kS,
                                         txn->lock_timeout_micros()));
    }
    CountRead(plan, origin);
    if (options_.observer != nullptr) {
      if (grounding) {
        options_.observer->OnGroundingRead(txn->id(), {t->name(), 0});
      } else {
        options_.observer->OnRead(txn->id(), {t->name(), 0});
      }
    }
    // Grounding scans keep the table S lock even at kReadCommitted
    // (quasi-read repeatability); statement scans drop it at close.
    return std::unique_ptr<TableCursor>(new HeapScanCursor(
        locks_, txn, t, view,
        /*release_table_on_close=*/take_locks && !grounding));
  }

  PredicateLock predicate;
  std::vector<std::pair<RowId, Row>> rows;
  if (plan.is_index()) {
    if (take_locks) {
      predicate.kind = PredicateLock::Kind::kIndexKey;
      predicate.key = LockKey::IndexKey(
          t->id(), Table::IndexKeyHash(plan.columns, plan.key));
      YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::Table(t->id()),
                                         LockMode::kIS,
                                         txn->lock_timeout_micros()));
      // S on the key hash: no writer can add/remove/move a row under this
      // equality key while the cursor lives (phantom protection for the
      // equality predicate).
      YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), predicate.key,
                                         LockMode::kS,
                                         txn->lock_timeout_micros()));
    }
    YT_ASSIGN_OR_RETURN(rows, t->IndexLookup(plan.columns, plan.key, view));
  } else {
    IndexRangeSpec spec = plan.ToRangeSpec();
    if (take_locks && spec.range.fully_unbounded()) {
      // A fully unbounded interval covers the whole key space; the table S
      // lock is the cheaper equivalent (one record, no interval tests).
      predicate.kind = PredicateLock::Kind::kTableS;
      predicate.key = LockKey::Table(t->id());
      YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), predicate.key,
                                         LockMode::kS,
                                         txn->lock_timeout_micros()));
    } else if (take_locks) {
      predicate.kind = PredicateLock::Kind::kRange;
      predicate.space =
          RangeSpaceKey{t->id(), Table::IndexColumnsHash(spec.columns)};
      predicate.range = spec.range;
      YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::Table(t->id()),
                                         LockMode::kIS,
                                         txn->lock_timeout_micros()));
      // S on the scanned interval: no writer can insert, delete, or move a
      // row whose key falls inside it while the cursor lives (gap + key
      // phantom protection for the range predicate).
      YT_RETURN_IF_ERROR(locks_->AcquireRange(txn->id(), predicate.space,
                                              spec.range, LockMode::kS,
                                              txn->lock_timeout_micros()));
    }
    YT_ASSIGN_OR_RETURN(rows, t->RangeLookup(spec, view));
  }
  CountRead(plan, origin);
  if (grounding && options_.observer != nullptr) {
    // Table-granular R^G, as with scans: the grounding read logically
    // covers the relation (quasi-read derivation stays conservative).
    options_.observer->OnGroundingRead(txn->id(), {t->name(), 0});
  }
  return std::unique_ptr<TableCursor>(new FetchedRowsCursor(
      locks_, txn, t, options_.observer, /*observe_rows=*/!grounding,
      std::move(rows), std::move(predicate)));
}

Status TransactionManager::LockTableForWrite(Transaction* txn,
                                             const std::string& table) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  return locks_->Acquire(txn->id(), LockKey::Table(t->id()), LockMode::kX,
                         txn->lock_timeout_micros());
}

StatusOr<std::vector<std::pair<RowId, Row>>>
TransactionManager::LockTableAndCollectForWrite(Transaction* txn,
                                                const std::string& table) {
  YT_RETURN_IF_ERROR(LockTableForWrite(txn, table));
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  std::vector<std::pair<RowId, Row>> out;
  out.reserve(t->size());
  t->Scan([&](RowId rid, const Row& row) {
    out.emplace_back(rid, row);
    return true;
  });
  return out;
}

Status TransactionManager::Load(const std::string& table, const Row& row) {
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  return t->Insert(row).status();
}

Status TransactionManager::LockRowsX(
    Transaction* txn, const Table* t,
    const std::vector<std::pair<RowId, Row>>& rows) {
  // The whole statement's row set locks in ONE lock-manager round — one
  // mutex acquisition and one wait instead of one per row.
  std::vector<LockKey> row_keys;
  row_keys.reserve(rows.size());
  for (const auto& [rid, row] : rows) {
    row_keys.push_back(LockKey::RowOf(t->id(), rid));
  }
  return locks_->AcquireBatch(txn->id(), row_keys, LockMode::kX,
                              txn->lock_timeout_micros());
}

StatusOr<std::vector<std::pair<RowId, Row>>>
TransactionManager::LockRowsForWriteRange(Transaction* txn,
                                          const std::string& table,
                                          const IndexRangeSpec& spec) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::Table(t->id()),
                                     LockMode::kIX,
                                     txn->lock_timeout_micros()));
  // X on the scanned interval first: serializes with range readers of any
  // overlapping interval and with writers touching keys inside it. Then X
  // row locks before any row is read — no S->X upgrade can occur later.
  YT_RETURN_IF_ERROR(locks_->AcquireRange(
      txn->id(), RangeSpaceKey{t->id(), Table::IndexColumnsHash(spec.columns)},
      spec.range, LockMode::kX, txn->lock_timeout_micros()));
  // The range X excludes every other writer of a matched row, so the rows
  // read here are the rows the X locks below protect.
  YT_ASSIGN_OR_RETURN(auto rows, t->RangeLookup(spec, ReadView::Latest()));
  YT_RETURN_IF_ERROR(LockRowsX(txn, t, rows));
  stats_.range_lookups.fetch_add(1, std::memory_order_relaxed);
  return rows;
}

StatusOr<std::vector<std::pair<RowId, Row>>>
TransactionManager::LockRowsForWrite(Transaction* txn,
                                     const std::string& table,
                                     const std::vector<size_t>& columns,
                                     const Row& key) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  YT_RETURN_IF_ERROR(locks_->Acquire(txn->id(), LockKey::Table(t->id()),
                                     LockMode::kIX,
                                     txn->lock_timeout_micros()));
  // X on the key hash first: serializes with equality readers of this key
  // and with concurrent writers inserting rows under it.
  YT_RETURN_IF_ERROR(locks_->Acquire(
      txn->id(), LockKey::IndexKey(t->id(), Table::IndexKeyHash(columns, key)),
      LockMode::kX, txn->lock_timeout_micros()));
  // The key X excludes every other writer of a matched row, so the rows
  // read here are the rows the X locks below protect.
  YT_ASSIGN_OR_RETURN(auto rows,
                      t->IndexLookup(columns, key, ReadView::Latest()));
  YT_RETURN_IF_ERROR(LockRowsX(txn, t, rows));
  stats_.index_lookups.fetch_add(1, std::memory_order_relaxed);
  return rows;
}

Status TransactionManager::ApplyUndo(Transaction* txn) {
  // Reverse order: the first rollback touching a row pops the committed
  // version back into place; later entries for the same row no-op (the
  // table checks version ownership). Inserted rows are erased outright.
  auto& log = txn->undo_log();
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(it->table));
    switch (it->kind) {
      case UndoEntry::Kind::kInsert:
        t->RollbackInsert(it->row_id, txn->id());
        break;
      case UndoEntry::Kind::kUpdate:
      case UndoEntry::Kind::kDelete:
        t->RollbackWrite(it->row_id, txn->id());
        break;
    }
  }
  log.clear();
  return Status::Ok();
}

Status TransactionManager::Commit(Transaction* txn) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  ScopedTraceSpan span("txn.commit", txn->trace_id());
  LatencyTimer timer(CommitLatencyHist(txn->isolation_level()));
  // Read-only commit: nothing was written (every Insert/Update/Delete pushes
  // an undo entry, and undo clears only on abort), so there is no redo to
  // make durable — skip the commit record AND the flush. This covers
  // read-only autocommit statements and the read-only branches of a
  // cross-shard transaction, which the Router commits locally through here.
  if (wal_ != nullptr && !txn->undo_log().empty()) {
    auto lsn = wal_->AppendAndFlush(WalRecord::Commit(txn->id()));
    if (!lsn.ok()) {
      // A failed commit-record force-write is unresolvable in place: the
      // record may or may not have reached the device, so aborting in
      // memory could contradict a COMMIT that recovery will replay. Stop
      // cold (every WAL freezes) and let recovery decide — the classical
      // fsync-failure rule.
      FaultInjector::Global()->ForceCrash("commit-record write failed: " +
                                          lsn.status().message());
      return lsn.status();
    }
  }
  // Stamp while the row X locks are still held; only then release.
  StampWrites(txn);
  txn->set_state(TxnState::kCommitted);
  ReleaseSnapshot(txn);
  locks_->ReleaseAll(txn->id());
  stats_.commits.fetch_add(1, std::memory_order_relaxed);
  if (timer.active()) TxnMetrics().commits->Add();
  if (options_.observer != nullptr) options_.observer->OnCommit(txn->id());
  DrainAfterCommit(SupersededRows(*txn));
  return Status::Ok();
}

Status TransactionManager::Abort(Transaction* txn) {
  if (txn->state() == TxnState::kAborted) return Status::Ok();
  if (txn->state() == TxnState::kCommitted) {
    return Status::Internal("cannot abort a committed transaction");
  }
  LatencyTimer timer(AbortLatencyHist(txn->isolation_level()));
  YT_RETURN_IF_ERROR(ApplyUndo(txn));
  if (wal_ != nullptr) {
    (void)wal_->Append(WalRecord::Abort(txn->id()));
  }
  txn->set_state(TxnState::kAborted);
  ReleaseSnapshot(txn);
  locks_->ReleaseAll(txn->id());
  stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  if (timer.active()) TxnMetrics().aborts->Add();
  if (options_.observer != nullptr) options_.observer->OnAbort(txn->id());
  return Status::Ok();
}

Status TransactionManager::Prepare(Transaction* txn, GroupId gtid) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  ScopedTraceSpan span("txn.prepare");
  if (wal_ != nullptr) {
    // Force-write: the yes-vote is durable (and with it, this
    // transaction's buffered redo records) before the coordinator may
    // decide commit. Unlike a commit record, a failed prepare write needs
    // no crash escalation: even if the PREPARE did reach the device,
    // recovery resolves it presumed-abort (no decision exists yet), which
    // matches the in-memory abort the coordinator performs.
    auto lsn = wal_->AppendAndFlush(WalRecord::Prepare(txn->id(), gtid));
    if (!lsn.ok()) return lsn.status();
  }
  txn->set_state(TxnState::kReadyToCommit);
  stats_.prepares.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status TransactionManager::CommitPrepared(Transaction* txn, GroupId gtid) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  // The local decision record is advisory — the coordinator's log already
  // holds the durable decision, so phase 2 completes in memory even when
  // the append fails (or the "txn.phase2.append" fault swallows it). The
  // returned status only tells the coordinator whether this participant's
  // own log now resolves the branch: decision-log GC must keep the
  // coordinator record until that is true everywhere.
  Status append_st;
  if (wal_ != nullptr) {
    FaultInjector* fi = FaultInjector::Global();
    if (fi->enabled()) append_st = fi->Hit("txn.phase2.append");
    if (append_st.ok()) {
      append_st =
          wal_->Append(WalRecord::CommitDecision(txn->id(), gtid)).status();
    }
  }
  StampWrites(txn);
  txn->set_state(TxnState::kCommitted);
  ReleaseSnapshot(txn);
  locks_->ReleaseAll(txn->id());
  stats_.commits.fetch_add(1, std::memory_order_relaxed);
  if (metrics_enabled()) TxnMetrics().commits->Add();
  if (options_.observer != nullptr) options_.observer->OnCommit(txn->id());
  DrainAfterCommit(SupersededRows(*txn));
  return append_st;
}

Status TransactionManager::CommitGroup(
    const std::vector<Transaction*>& members) {
  for (Transaction* t : members) {
    if (!t->active()) {
      return Status::Aborted("group member " + std::to_string(t->id()) +
                             " not active");
    }
  }
  GroupId gid = next_group_id_.fetch_add(1);
  std::vector<TxnId> ids;
  ids.reserve(members.size());
  for (Transaction* t : members) ids.push_back(t->id());
  if (wal_ != nullptr) {
    for (TxnId id : ids) {
      // Losing a member COMMIT makes the later GROUP_COMMIT unreplayable
      // for that member; fail before the group record is force-written —
      // every member is still undoable at this point.
      YT_RETURN_IF_ERROR(wal_->Append(WalRecord::Commit(id)).status());
    }
    auto lsn = wal_->AppendAndFlush(WalRecord::GroupCommit(gid, ids));
    if (!lsn.ok()) return lsn.status();
  }
  // One commit timestamp for the whole group: an entangled commit is
  // atomic, so no snapshot may see only part of it.
  bool any_writes = false;
  for (Transaction* t : members) any_writes |= !t->undo_log().empty();
  if (any_writes) {
    std::lock_guard<std::mutex> g(clock_->commit_mutex());
    uint64_t ts = clock_->AllocateCommitTs();
    for (Transaction* txn : members) StampRows(txn, ts);
    clock_->Publish(ts);
  }
  size_t superseded = 0;
  for (Transaction* t : members) {
    superseded += SupersededRows(*t);
    t->set_state(TxnState::kCommitted);
    ReleaseSnapshot(t);
    locks_->ReleaseAll(t->id());
    stats_.commits.fetch_add(1, std::memory_order_relaxed);
    if (metrics_enabled()) TxnMetrics().commits->Add();
    if (options_.observer != nullptr) options_.observer->OnCommit(t->id());
  }
  stats_.group_commits.fetch_add(1, std::memory_order_relaxed);
  DrainAfterCommit(superseded);
  return Status::Ok();
}

Status TransactionManager::LogEntangle(
    EntanglementId eid, const std::vector<Transaction*>& members) {
  std::vector<TxnId> ids;
  ids.reserve(members.size());
  for (Transaction* t : members) ids.push_back(t->id());
  for (Transaction* t : members) {
    t->MarkEntangled();
    t->AddPartners(ids);
  }
  if (wal_ != nullptr) {
    auto lsn = wal_->AppendAndFlush(WalRecord::Entangle(eid, ids));
    if (!lsn.ok()) return lsn.status();
  }
  if (options_.observer != nullptr) {
    options_.observer->OnEntangle(eid, ids);
  }
  return Status::Ok();
}

StatusOr<Table*> TransactionManager::CreateTable(const std::string& name,
                                                 const Schema& schema) {
  YT_ASSIGN_OR_RETURN(Table * t, db_->CreateTable(name, schema));
  if (wal_ != nullptr) {
    auto lsn = wal_->AppendAndFlush(WalRecord::CreateTable(name, schema));
    if (!lsn.ok()) return lsn.status();
  }
  return t;
}

Status TransactionManager::CreateIndex(const std::string& table,
                                       const std::vector<std::string>& columns,
                                       bool unique, bool ordered) {
  YT_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
  YT_RETURN_IF_ERROR(t->CreateIndex(columns, unique, ordered));
  if (wal_ != nullptr) {
    auto lsn = wal_->AppendAndFlush(
        WalRecord::CreateIndex(t->name(), columns, unique, ordered));
    if (!lsn.ok()) return lsn.status();
  }
  return Status::Ok();
}

Status TransactionManager::Checkpoint(const std::string& checkpoint_path) {
  if (wal_ == nullptr) return Status::Internal("no WAL configured");
  std::ofstream out(checkpoint_path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    return Status::Corruption("cannot open checkpoint file " +
                              checkpoint_path);
  }
  YT_RETURN_IF_ERROR(db_->SaveTo(&out));
  out.close();
  return wal_->ResetWithCheckpoint(checkpoint_path);
}

}  // namespace youtopia
