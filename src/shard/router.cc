#include "src/shard/router.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <thread>

#include "src/common/clock.h"
#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/shard/merged_cursor.h"
#include "src/wal/recovery.h"
#include "src/wal/wal_reader.h"

namespace youtopia::shard {

namespace {

/// Registry handles for the 2PC phases and the fan-out drain, resolved once.
struct ShardMetricHandles {
  Histogram* prepare_micros;   ///< phase 1: all write branches voted
  Histogram* decision_micros;  ///< decision append + durability wait
  Histogram* phase2_micros;    ///< all participants told
  Histogram* fanout_drain_micros;
};

const ShardMetricHandles& ShardMetrics() {
  static const ShardMetricHandles h = [] {
    MetricsRegistry* r = MetricsRegistry::Global();
    return ShardMetricHandles{r->histogram("2pc.prepare_micros"),
                              r->histogram("2pc.decision_micros"),
                              r->histogram("2pc.phase2_micros"),
                              r->histogram("shard.fanout_drain_micros")};
  }();
  return h;
}

/// Streams a single routed shard's cursor, tagging every RowId with the
/// owning shard so Update/Delete by RowId can route back. DrainRef/Drain
/// go through NextRef/Next (the base implementations), so tags are never
/// skipped.
class TaggingCursor : public TableCursor {
 public:
  TaggingCursor(std::unique_ptr<TableCursor> inner, size_t shard)
      : inner_(std::move(inner)), shard_(shard) {}

  StatusOr<bool> NextRef(RowId* rid, const Row** row) override {
    YT_ASSIGN_OR_RETURN(bool more, inner_->NextRef(rid, row));
    if (!more) return false;
    *rid = Router::TagRid(shard_, *rid);
    return true;
  }

  StatusOr<bool> Next(RowId* rid, Row* row) override {
    YT_ASSIGN_OR_RETURN(bool more, inner_->Next(rid, row));
    if (!more) return false;
    *rid = Router::TagRid(shard_, *rid);
    return true;
  }

  /// Batched pull: the inner cursor's chunks flow through untouched except
  /// for an in-place RowId tag per element.
  StatusOr<bool> NextBatch(RowBatch* batch, size_t max_rows) override {
    YT_ASSIGN_OR_RETURN(bool more, inner_->NextBatch(batch, max_rows));
    if (!more) return false;
    for (auto& [rid, row] : batch->rows) rid = Router::TagRid(shard_, rid);
    return true;
  }

  size_t size_hint() const override { return inner_->size_hint(); }

 private:
  std::unique_ptr<TableCursor> inner_;
  size_t shard_;
};

/// Keeps the coordinator transaction's open-cursor count honest across
/// router cursors: a kReadCommitted coordinator must not advance its
/// snapshot while a statement's outer cursor is still being consumed (its
/// join probes read the same cut), which RefreshCoordinatorSnapshot
/// enforces via open_cursors(). Applied only under snapshot reads — the
/// locking path's lifetimes belong to the branch cursors.
class CoordCursor : public TableCursor {
 public:
  CoordCursor(std::unique_ptr<TableCursor> inner, Transaction* coord)
      : inner_(std::move(inner)), coord_(coord) {
    coord_->cursor_opened();
  }
  ~CoordCursor() override { coord_->cursor_closed(); }

  StatusOr<bool> NextRef(RowId* rid, const Row** row) override {
    return inner_->NextRef(rid, row);
  }
  StatusOr<bool> Next(RowId* rid, Row* row) override {
    return inner_->Next(rid, row);
  }
  StatusOr<bool> NextBatch(RowBatch* batch, size_t max_rows) override {
    return inner_->NextBatch(batch, max_rows);
  }
  size_t size_hint() const override { return inner_->size_hint(); }

 private:
  std::unique_ptr<TableCursor> inner_;
  Transaction* coord_;
};

std::string PartitionAux(const std::vector<size_t>& pcols) {
  if (pcols.empty()) return "broadcast";
  std::string s = "p:";
  for (size_t i = 0; i < pcols.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(pcols[i]);
  }
  return s;
}

std::vector<size_t> ParsePartitionAux(const std::string& aux) {
  std::vector<size_t> pcols;
  if (aux.rfind("p:", 0) != 0) return pcols;  // "broadcast" or unknown
  for (const std::string& part : Split(aux.substr(2), ',')) {
    pcols.push_back(static_cast<size_t>(std::stoull(part)));
  }
  return pcols;
}

}  // namespace

Router::Router(Options options)
    : options_(std::move(options)),
      clock_(std::make_unique<VersionClock>()),
      snapshots_(std::make_unique<SnapshotRegistry>()),
      map_(options_.num_shards) {}

Router::~Router() = default;

std::string Router::shard_wal_path(size_t shard) const {
  return options_.dir + "/shard" + std::to_string(shard) + "/wal.log";
}

std::string Router::coord_wal_path() const {
  return options_.dir + "/coord.wal";
}

StatusOr<std::unique_ptr<Router>> Router::Open(Options options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::unique_ptr<Router> r(new Router(std::move(options)));
  const bool durable = !r->options_.dir.empty();
  WalWriter::Options wo;
  wo.sync_on_flush = r->options_.sync_on_flush;
  r->shards_.resize(r->options_.num_shards);
  for (size_t s = 0; s < r->shards_.size(); ++s) {
    Shard& sh = r->shards_[s];
    sh.db = std::make_unique<Database>();
    sh.locks = std::make_unique<LockManager>();
    if (durable) {
      std::error_code ec;
      std::filesystem::create_directories(
          r->options_.dir + "/shard" + std::to_string(s), ec);
      if (ec) {
        return Status::Corruption("cannot create shard directory under " +
                                  r->options_.dir);
      }
      sh.wal = std::make_unique<WalWriter>();
      YT_RETURN_IF_ERROR(sh.wal->Open(r->shard_wal_path(s), wo,
                                      /*truncate=*/true));
    }
    TransactionManager::Options to;
    to.default_isolation = r->options_.default_isolation;
    to.lock_timeout_micros = r->options_.lock_timeout_micros;
    to.clock = r->clock_.get();
    to.snapshots = r->snapshots_.get();
    sh.tm = std::make_unique<TransactionManager>(sh.db.get(), sh.locks.get(),
                                                 sh.wal.get(), to);
    // Physical flushes of every shard WAL count into the router's aggregate
    // (the TM constructor pointed the counter at its own per-shard stats).
    if (sh.wal != nullptr) sh.wal->set_flush_counter(&r->stats_.wal_flushes);
  }
  if (durable) {
    r->coord_wal_ = std::make_unique<WalWriter>();
    YT_RETURN_IF_ERROR(r->coord_wal_->Open(r->coord_wal_path(), wo,
                                           /*truncate=*/true));
    r->coord_wal_->set_flush_counter(&r->stats_.wal_flushes);
  }
  return r;
}

StatusOr<std::unique_ptr<Router>> Router::Recover(Options options,
                                                  RecoveryReport* report) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("recovery requires a WAL directory");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::unique_ptr<Router> r(new Router(std::move(options)));
  WalWriter::Options wo;
  wo.sync_on_flush = r->options_.sync_on_flush;

  // --- The coordinator's log: commit decisions + table partitionings.
  std::set<GroupId> decided;
  std::vector<WalRecord> table_records;
  GroupId max_gtid = 0;
  YT_ASSIGN_OR_RETURN(WalReader::Result coord,
                      WalReader::ReadAll(r->coord_wal_path()));
  if (coord.torn_tail) {
    // Same repair RecoveryManager applies to shard logs: drop the partial
    // trailing record so the append-mode reopen below lands new records
    // where readers can reach them.
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(r->coord_wal_path(), ec);
    if (!ec && size > coord.valid_bytes) {
      std::filesystem::resize_file(r->coord_wal_path(), coord.valid_bytes, ec);
      if (ec) {
        return Status::Corruption("cannot truncate torn coordinator log " +
                                  r->coord_wal_path());
      }
    }
  }
  for (const WalRecord& rec : coord.records) {
    switch (rec.type) {
      case WalRecordType::kCommitDecision:
        decided.insert(rec.group);
        max_gtid = std::max(max_gtid, rec.group);
        break;
      case WalRecordType::kCreateTable:
        table_records.push_back(rec);
        break;
      default:
        break;
    }
  }

  // --- Per-shard replay with the decisions resolving in-doubt branches.
  RecoveryManager::Options ropts;
  ropts.committed_gtids = &decided;
  r->shards_.resize(r->options_.num_shards);
  for (size_t s = 0; s < r->shards_.size(); ++s) {
    YT_ASSIGN_OR_RETURN(RecoveryManager::Result res,
                        RecoveryManager::Recover(r->shard_wal_path(s), ropts));
    if (report != nullptr) {
      report->in_doubt_branches += res.in_doubt.size();
      for (TxnId t : res.in_doubt) {
        if (res.committed.count(t)) {
          ++report->in_doubt_committed;
        } else {
          ++report->in_doubt_aborted;
        }
      }
    }
    Shard& sh = r->shards_[s];
    sh.db = std::move(res.db);
    sh.locks = std::make_unique<LockManager>();
    sh.wal = std::make_unique<WalWriter>();
    YT_RETURN_IF_ERROR(sh.wal->Open(r->shard_wal_path(s), wo,
                                    /*truncate=*/false));
    sh.wal->set_next_lsn(res.max_lsn + 1);
    // A branch resolved *committed* purely through the coordinator's
    // decision has no durable local record of its own. Write one now (and
    // flush): the shard log becomes self-resolving, which is what lets
    // decision-log GC eventually prune the coordinator entry — and what a
    // GC that already ran relies on.
    bool appended = false;
    for (const auto& [t, g] : res.in_doubt_gtid) {
      if (!res.committed.count(t)) continue;
      YT_RETURN_IF_ERROR(
          sh.wal->Append(WalRecord::CommitDecision(t, g)).status());
      appended = true;
    }
    if (appended) YT_RETURN_IF_ERROR(sh.wal->Flush());
    TransactionManager::Options to;
    to.default_isolation = r->options_.default_isolation;
    to.lock_timeout_micros = r->options_.lock_timeout_micros;
    to.clock = r->clock_.get();
    to.snapshots = r->snapshots_.get();
    sh.tm = std::make_unique<TransactionManager>(sh.db.get(), sh.locks.get(),
                                                 sh.wal.get(), to);
    sh.tm->set_next_txn_id(res.max_txn_id + 1);
    sh.wal->set_flush_counter(&r->stats_.wal_flushes);
    max_gtid = std::max(max_gtid, res.max_gtid);
  }

  // --- Rebuild the shard map from the coordinator's DDL records.
  for (const WalRecord& rec : table_records) {
    r->map_.SetPartitioning(rec.table, ParsePartitionAux(rec.aux));
  }

  r->coord_wal_ = std::make_unique<WalWriter>();
  YT_RETURN_IF_ERROR(r->coord_wal_->Open(r->coord_wal_path(), wo,
                                         /*truncate=*/false));
  r->coord_wal_->set_next_lsn(coord.max_lsn + 1);
  r->coord_wal_->set_flush_counter(&r->stats_.wal_flushes);
  // Never reuse a gtid: a presumed-aborted prepare must not be revived by
  // a later decision under the same id.
  r->next_txn_id_.store(max_gtid + 1);
  if (report != nullptr) report->decided_commits = std::move(decided);
  return r;
}

// --- Transaction bookkeeping. -------------------------------------------

std::unique_ptr<Transaction> Router::Begin() {
  return Begin(options_.default_isolation);
}

std::unique_ptr<Transaction> Router::Begin(IsolationLevel level) {
  TxnId id = next_txn_id_.fetch_add(1);
  stats_.begins.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_unique<Transaction>(id, level,
                                           options_.lock_timeout_micros);
  // Sampled tracing (see TransactionManager::Begin): the coordinator's
  // trace id threads through the 2PC spans so coordinator and branch spans
  // assemble into one trace; an ambient traced statement is joined rather
  // than re-drawn.
  if (metrics_enabled()) {
    const TraceContext& ctx = CurrentTraceContext();
    if (ctx.trace_id != 0) {
      txn->set_trace_id(ctx.trace_id);
    } else if (Tracer::Global()->ShouldSample()) {
      txn->set_trace_id(Tracer::Global()->NewTraceId());
    }
  }
  // kSnapshot pins one engine-wide cut for the whole transaction; every
  // branch it later enlists adopts this timestamp, so a cross-shard scan
  // reads the same point in commit order on every shard.
  if (mvcc_reads_.load(std::memory_order_relaxed) &&
      level == IsolationLevel::kSnapshot) {
    txn->set_read_ts(snapshots_->RegisterCurrent(*clock_));
    txn->set_snapshot_registered(true);
  }
  auto dt = std::make_unique<Dtxn>();
  dt->level = level;
  dt->branches.resize(shards_.size());
  std::lock_guard<std::mutex> g(mu_);
  dtxns_[id] = std::move(dt);
  return txn;
}

void Router::set_mvcc_reads_enabled(bool on) {
  mvcc_reads_.store(on, std::memory_order_relaxed);
  for (Shard& sh : shards_) sh.tm->set_mvcc_reads_enabled(on);
}

void Router::set_group_commit_enabled(bool on) {
  for (Shard& sh : shards_) {
    if (sh.wal != nullptr) sh.wal->set_group_commit_enabled(on);
  }
  if (coord_wal_ != nullptr) coord_wal_->set_group_commit_enabled(on);
}

void Router::set_group_commit_delay_micros(int64_t micros) {
  for (Shard& sh : shards_) {
    if (sh.wal != nullptr) {
      sh.wal->group_commit()->set_max_batch_delay_micros(micros);
    }
  }
  if (coord_wal_ != nullptr) {
    coord_wal_->group_commit()->set_max_batch_delay_micros(micros);
  }
}

bool Router::group_commit_enabled() const {
  if (coord_wal_ != nullptr) return coord_wal_->group_commit_enabled();
  for (const Shard& sh : shards_) {
    if (sh.wal != nullptr) return sh.wal->group_commit_enabled();
  }
  return true;  // volatile mode: nothing to flush either way
}

void Router::RefreshCoordinatorSnapshot(Transaction* txn, bool grounding) {
  if (!SnapshotReadsActive(txn)) return;
  if (txn->isolation_level() == IsolationLevel::kSnapshot &&
      txn->snapshot_registered()) {
    return;  // pinned at Begin for the whole transaction
  }
  // Same statement-boundary rule as the local manager: a join's probe
  // cursors and a grounding's later atoms keep the cut the statement
  // started on.
  if (txn->read_ts() != 0 && (txn->open_cursors() > 0 || grounding)) return;
  if (txn->snapshot_registered()) {
    txn->set_read_ts(snapshots_->RefreshCurrent(txn->read_ts(), *clock_));
  } else {
    txn->set_read_ts(snapshots_->RegisterCurrent(*clock_));
    txn->set_snapshot_registered(true);
  }
}

void Router::ReleaseCoordinatorSnapshot(Transaction* txn) {
  if (!txn->snapshot_registered()) return;
  snapshots_->Unregister(txn->read_ts());
  txn->set_snapshot_registered(false);
}

StatusOr<Router::Dtxn*> Router::FindDtxn(const Transaction* txn) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = dtxns_.find(txn->id());
  if (it == dtxns_.end()) {
    return Status::Internal("transaction " + std::to_string(txn->id()) +
                            " is not managed by this router");
  }
  return it->second.get();
}

void Router::EraseDtxn(TxnId id) {
  std::lock_guard<std::mutex> g(mu_);
  dtxns_.erase(id);
}

Transaction* Router::EnlistBranch(Dtxn* dt, const Transaction* txn,
                                  size_t shard) {
  std::unique_ptr<Transaction>& b = dt->branches[shard];
  if (b == nullptr) {
    b = shards_[shard].tm->Begin(dt->level);
    b->set_lock_timeout_micros(txn->lock_timeout_micros());
  }
  // Re-sync the coordinator's cut on every touch: a branch enlisted by an
  // earlier statement (or by a write, before the coordinator ever took a
  // snapshot) must not keep a stale timestamp once the coordinator has
  // refreshed. Adopted branches never self-refresh.
  if (SnapshotReadsActive(txn) && b->read_ts() != txn->read_ts()) {
    shards_[shard].tm->AdoptSnapshot(b.get(), txn->read_ts());
  }
  return b.get();
}

StatusOr<Table*> Router::CatalogTable(const std::string& table) const {
  return db()->GetTable(table);
}

StatusOr<std::pair<size_t, RowId>> Router::ResolveRid(RowId rid) const {
  if (!RidTagged(rid)) {
    return Status::InvalidArgument("partitioned RowId lacks a shard tag");
  }
  size_t s = RidShard(rid);
  if (s >= shards_.size()) {
    return Status::InvalidArgument("RowId shard tag out of range");
  }
  return std::make_pair(s, LocalRid(rid));
}

template <typename PerShard>
StatusOr<std::vector<std::pair<RowId, Row>>> Router::CollectForWrite(
    Dtxn* dt, const Transaction* txn, size_t lo, size_t hi,
    PerShard&& per_shard) {
  std::vector<std::pair<RowId, Row>> out;
  for (size_t s = lo; s < hi; ++s) {
    Transaction* b = EnlistBranch(dt, txn, s);
    YT_ASSIGN_OR_RETURN(auto rows, per_shard(s, b));
    out.reserve(out.size() + rows.size());
    for (auto& [rid, row] : rows) {
      out.emplace_back(TagRid(s, rid), std::move(row));
    }
  }
  return out;
}

// --- Data operations. ----------------------------------------------------

StatusOr<RowId> Router::Insert(Transaction* txn, const std::string& table,
                               const Row& row) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
  YT_ASSIGN_OR_RETURN(Row coerced, cat->Coerce(row));
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  const std::string& name = cat->name();
  if (map_.IsBroadcast(name)) {
    // Replica writers serialize on the primary replica's table X lock, so
    // every replica applies broadcast writes in the same order — which is
    // what keeps the replicas' RowId assignment aligned.
    Transaction* b0 = EnlistBranch(dt, txn, 0);
    YT_RETURN_IF_ERROR(shards_[0].tm->LockTableForWrite(b0, name));
    RowId rid = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      Transaction* b = EnlistBranch(dt, txn, s);
      auto r = shards_[s].tm->Insert(b, name, coerced);
      if (!r.ok()) {
        // Some replicas already applied: only Abort can restore them.
        if (s > 0) dt->abort_only = true;
        return r.status();
      }
      if (s == 0) {
        rid = r.value();
      } else if (r.value() != rid) {
        dt->abort_only = true;
        return Status::Internal("broadcast replicas diverged on " + name);
      }
    }
    txn->count_write();
    return rid;
  }
  size_t s = map_.ShardOfRow(name, coerced);
  Transaction* b = EnlistBranch(dt, txn, s);
  YT_ASSIGN_OR_RETURN(RowId rid, shards_[s].tm->Insert(b, name, coerced));
  txn->count_write();
  return TagRid(s, rid);
}

StatusOr<Row> Router::Get(Transaction* txn, const std::string& table,
                          RowId rid) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  RefreshCoordinatorSnapshot(txn, /*grounding=*/false);
  if (SnapshotReadsActive(txn)) {
    stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  }
  const std::string& name = cat->name();
  if (map_.IsBroadcast(name)) {
    return shards_[0].tm->Get(EnlistBranch(dt, txn, 0), name, rid);
  }
  YT_ASSIGN_OR_RETURN(auto loc, ResolveRid(rid));
  return shards_[loc.first].tm->Get(EnlistBranch(dt, txn, loc.first), name,
                                    loc.second);
}

Status Router::Update(Transaction* txn, const std::string& table, RowId rid,
                      const Row& row) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  const std::string& name = cat->name();
  if (map_.IsBroadcast(name)) {
    Transaction* b0 = EnlistBranch(dt, txn, 0);
    YT_RETURN_IF_ERROR(shards_[0].tm->LockTableForWrite(b0, name));
    for (size_t s = 0; s < shards_.size(); ++s) {
      Transaction* b = EnlistBranch(dt, txn, s);
      Status st = shards_[s].tm->Update(b, name, rid, row);
      if (!st.ok()) {
        if (s > 0) dt->abort_only = true;
        return st;
      }
    }
    txn->count_write();
    return Status::Ok();
  }
  YT_ASSIGN_OR_RETURN(auto loc, ResolveRid(rid));
  // A partition-key change that re-routes the row would strand it on a
  // shard routing can no longer find; migration (delete + reinsert) is a
  // follow-on, so reject it here. Key changes that hash to the same
  // shard stay findable and are allowed.
  YT_ASSIGN_OR_RETURN(Row coerced, cat->Coerce(row));
  if (map_.ShardOfRow(name, coerced) != loc.first) {
    return Status::Unimplemented(
        "UPDATE moves a row across shards (partition key changed); "
        "delete and reinsert instead");
  }
  YT_RETURN_IF_ERROR(shards_[loc.first].tm->Update(
      EnlistBranch(dt, txn, loc.first), name, loc.second, row));
  txn->count_write();
  return Status::Ok();
}

Status Router::Delete(Transaction* txn, const std::string& table, RowId rid) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  const std::string& name = cat->name();
  if (map_.IsBroadcast(name)) {
    Transaction* b0 = EnlistBranch(dt, txn, 0);
    YT_RETURN_IF_ERROR(shards_[0].tm->LockTableForWrite(b0, name));
    for (size_t s = 0; s < shards_.size(); ++s) {
      Transaction* b = EnlistBranch(dt, txn, s);
      Status st = shards_[s].tm->Delete(b, name, rid);
      if (!st.ok()) {
        if (s > 0) dt->abort_only = true;
        return st;
      }
    }
    txn->count_write();
    return Status::Ok();
  }
  YT_ASSIGN_OR_RETURN(auto loc, ResolveRid(rid));
  YT_RETURN_IF_ERROR(shards_[loc.first].tm->Delete(
      EnlistBranch(dt, txn, loc.first), name, loc.second));
  txn->count_write();
  return Status::Ok();
}

Status Router::Load(const std::string& table, const Row& row) {
  YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
  YT_ASSIGN_OR_RETURN(Row coerced, cat->Coerce(row));
  const std::string& name = cat->name();
  if (map_.IsBroadcast(name)) {
    RowId rid = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      YT_ASSIGN_OR_RETURN(Table * t, shards_[s].db->GetTable(name));
      YT_ASSIGN_OR_RETURN(RowId r, t->Insert(Row(coerced), /*writer=*/0));
      if (s == 0) {
        rid = r;
      } else if (r != rid) {
        return Status::Internal("broadcast replicas diverged on " + name);
      }
    }
    return Status::Ok();
  }
  size_t s = map_.ShardOfRow(name, coerced);
  YT_ASSIGN_OR_RETURN(Table * t, shards_[s].db->GetTable(name));
  return t->Insert(std::move(coerced), /*writer=*/0).status();
}

// --- The read path. -------------------------------------------------------

StatusOr<std::unique_ptr<TableCursor>> Router::OpenCursor(Transaction* txn,
                                                          Table* t,
                                                          AccessPlan plan,
                                                          ReadOrigin origin) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  const bool grounding = origin == ReadOrigin::kGrounding ||
                         origin == ReadOrigin::kGroundingJoin;
  RefreshCoordinatorSnapshot(txn, grounding);
  const bool track = SnapshotReadsActive(txn);
  if (track) {
    stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  }
  auto tracked = [&](std::unique_ptr<TableCursor> c)
      -> std::unique_ptr<TableCursor> {
    if (!track) return c;
    return std::unique_ptr<TableCursor>(new CoordCursor(std::move(c), txn));
  };
  const std::string& name = t->name();
  if (map_.IsBroadcast(name)) {
    // Broadcast replicas are read on shard 0 = the catalog database, so
    // `t` is already the right table. RowIds stay untagged (identical on
    // every replica).
    Transaction* b = EnlistBranch(dt, txn, 0);
    YT_ASSIGN_OR_RETURN(auto cursor,
                        shards_[0].tm->OpenCursor(b, t, std::move(plan),
                                                  origin));
    return tracked(std::move(cursor));
  }
  size_t s = map_.RouteRead(name, plan);
  if (s != ShardMap::kAllShards) {
    stats_.shard_routed_lookups.fetch_add(1, std::memory_order_relaxed);
    Transaction* b = EnlistBranch(dt, txn, s);
    YT_ASSIGN_OR_RETURN(Table * st, shards_[s].db->GetTable(name));
    YT_ASSIGN_OR_RETURN(auto cursor,
                        shards_[s].tm->OpenCursor(b, st, std::move(plan),
                                                  origin));
    return tracked(std::unique_ptr<TableCursor>(
        new TaggingCursor(std::move(cursor), s)));
  }
  stats_.fanout_cursors.fetch_add(1, std::memory_order_relaxed);
  YT_ASSIGN_OR_RETURN(auto merged, OpenFanout(txn, dt, name, plan, origin));
  return tracked(std::move(merged));
}

Status Router::DrainShards(
    const Transaction* txn, Dtxn* dt, const std::string& table,
    const AccessPlan& plan, ReadOrigin origin,
    const std::function<void(size_t, RowBatch*)>& sink) {
  const size_t n = shards_.size();
  // Enlist + open in shard order on the calling thread: lock acquisition
  // order across shards is deterministic for readers.
  std::vector<std::unique_ptr<TableCursor>> cursors(n);
  for (size_t s = 0; s < n; ++s) {
    Transaction* b = EnlistBranch(dt, txn, s);
    YT_ASSIGN_OR_RETURN(Table * st, shards_[s].db->GetTable(table));
    YT_ASSIGN_OR_RETURN(cursors[s],
                        shards_[s].tm->OpenCursor(b, st, plan, origin));
  }
  // Drain every shard's cursor, one thread per shard: the heap walks (and
  // per-row lock acquisitions) of different shards proceed in parallel.
  // Each thread touches exactly one branch transaction, so branch state
  // stays single-threaded. Fresh threads (not a pool) are deliberate:
  // drains can block on lock waits for up to the lock timeout, and a
  // bounded pool whose workers are all parked in lock waits would stall
  // every other fanout behind them.
  std::vector<Status> drained(n, Status::Ok());
  auto drain = [&](size_t s) {
    // Batched pull: a heap scan hands whole chunks over by swap, so the
    // sink sees one call per chunk, not one per row.
    RowBatch batch;
    while (true) {
      StatusOr<bool> more = cursors[s]->NextBatch(&batch);
      if (!more.ok()) {
        drained[s] = more.status();
        break;
      }
      if (!more.value()) break;
      sink(s, &batch);
    }
    cursors[s].reset();  // close (isolation-level early release) here
  };
  {
    LatencyTimer drain_timer(ShardMetrics().fanout_drain_micros);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t s = 0; s < n; ++s) threads.emplace_back(drain, s);
    for (std::thread& th : threads) th.join();
  }
  for (const Status& st : drained) {
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<TableCursor>> Router::OpenFanout(
    const Transaction* txn, Dtxn* dt, const std::string& table,
    const AccessPlan& plan, ReadOrigin origin) {
  const size_t n = shards_.size();
  std::vector<MergedCursor::Source> sources(n);
  if (plan.is_scan()) {
    for (size_t s = 0; s < n; ++s) {
      auto t = shards_[s].db->GetTable(table);
      if (t.ok()) sources[s].rows.reserve(t.value()->size());
    }
  }
  YT_RETURN_IF_ERROR(DrainShards(
      txn, dt, table, plan, origin, [&](size_t s, RowBatch* batch) {
        // Per row: one tag write plus one pair move, no visitor call.
        std::vector<std::pair<RowId, Row>>& rows = sources[s].rows;
        for (auto& [rid, row] : batch->rows) rid = TagRid(s, rid);
        if (rows.empty() && rows.capacity() < batch->rows.size()) {
          rows.swap(batch->rows);
          batch->clear();
          return;
        }
        rows.insert(rows.end(), std::make_move_iterator(batch->rows.begin()),
                    std::make_move_iterator(batch->rows.end()));
      }));
  // Ranges merge back in index-key order (ORDER-BY pushdown stays sorted
  // across shards); scans and fanned-out lookups concatenate.
  return std::unique_ptr<TableCursor>(
      new MergedCursor(std::move(sources), plan.columns, plan.reverse,
                       plan.limit, /*ordered=*/plan.is_range()));
}

StatusOr<AggregateGroups> Router::AggregateTable(Transaction* txn, Table* t,
                                                 AccessPlan plan,
                                                 const AggregateSpec& spec,
                                                 ReadOrigin origin) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  RefreshCoordinatorSnapshot(txn, origin == ReadOrigin::kGrounding ||
                                      origin == ReadOrigin::kGroundingJoin);
  if (SnapshotReadsActive(txn)) {
    stats_.snapshot_reads.fetch_add(1, std::memory_order_relaxed);
  }
  const std::string& name = t->name();
  if (map_.IsBroadcast(name)) {
    // One replica holds every row: fold locally on shard 0.
    Transaction* b = EnlistBranch(dt, txn, 0);
    return shards_[0].tm->AggregateTable(b, t, std::move(plan), spec, origin);
  }
  size_t pinned = map_.RouteRead(name, plan);
  if (pinned != ShardMap::kAllShards) {
    stats_.shard_routed_lookups.fetch_add(1, std::memory_order_relaxed);
    Transaction* b = EnlistBranch(dt, txn, pinned);
    YT_ASSIGN_OR_RETURN(Table * st, shards_[pinned].db->GetTable(name));
    return shards_[pinned].tm->AggregateTable(b, st, std::move(plan), spec,
                                              origin);
  }
  stats_.aggregate_pushdowns.fetch_add(1, std::memory_order_relaxed);
  stats_.fanout_cursors.fetch_add(1, std::memory_order_relaxed);
  // The pushdown: each drain thread folds its shard's rows into a private
  // Aggregator as it pulls them, so rows die inside the thread and only
  // the per-shard group states travel to the coordinator.
  const size_t n = shards_.size();
  std::vector<Aggregator> partials;
  partials.reserve(n);
  for (size_t s = 0; s < n; ++s) partials.emplace_back(spec);
  YT_RETURN_IF_ERROR(DrainShards(
      txn, dt, name, plan, origin, [&](size_t s, RowBatch* batch) {
        for (const auto& [rid, row] : batch->rows) partials[s].Accumulate(row);
      }));
  Aggregator merged(spec);
  for (size_t s = 0; s < n; ++s) {
    YT_RETURN_IF_ERROR(partials[s].Finish());
    merged.Merge(partials[s].TakeGroups());
  }
  YT_RETURN_IF_ERROR(merged.Finish());
  return merged.TakeGroups();
}

// --- Write-statement candidate acquisition. ------------------------------

StatusOr<std::vector<std::pair<RowId, Row>>> Router::LockRowsForWrite(
    Transaction* txn, const std::string& table,
    const std::vector<size_t>& columns, const Row& key) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  const std::string& name = cat->name();
  if (map_.IsBroadcast(name)) {
    Transaction* b0 = EnlistBranch(dt, txn, 0);
    YT_RETURN_IF_ERROR(shards_[0].tm->LockTableForWrite(b0, name));
    return shards_[0].tm->LockRowsForWrite(b0, name, columns, key);
  }
  size_t s = map_.RouteLookup(name, columns, key);
  const size_t lo = (s == ShardMap::kAllShards) ? 0 : s;
  const size_t hi = (s == ShardMap::kAllShards) ? shards_.size() : s + 1;
  return CollectForWrite(dt, txn, lo, hi, [&](size_t i, Transaction* b) {
    return shards_[i].tm->LockRowsForWrite(b, name, columns, key);
  });
}

StatusOr<std::vector<std::pair<RowId, Row>>> Router::LockRowsForWriteRange(
    Transaction* txn, const std::string& table, const IndexRangeSpec& spec) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  const std::string& name = cat->name();
  if (map_.IsBroadcast(name)) {
    Transaction* b0 = EnlistBranch(dt, txn, 0);
    YT_RETURN_IF_ERROR(shards_[0].tm->LockTableForWrite(b0, name));
    return shards_[0].tm->LockRowsForWriteRange(b0, name, spec);
  }
  // An equality prefix that pins every partition column routes the write
  // range to one shard (same rule as reads); open ranges fan out.
  size_t pinned = map_.RouteRead(name, AccessPlan::Range(spec));
  const size_t lo = (pinned == ShardMap::kAllShards) ? 0 : pinned;
  const size_t hi = (pinned == ShardMap::kAllShards) ? shards_.size()
                                                     : pinned + 1;
  return CollectForWrite(dt, txn, lo, hi, [&](size_t s, Transaction* b) {
    return shards_[s].tm->LockRowsForWriteRange(b, name, spec);
  });
}

Status Router::LockTableForWrite(Transaction* txn, const std::string& table) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  const std::string& name = cat->name();
  if (map_.IsBroadcast(name)) {
    return shards_[0].tm->LockTableForWrite(EnlistBranch(dt, txn, 0), name);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    YT_RETURN_IF_ERROR(
        shards_[s].tm->LockTableForWrite(EnlistBranch(dt, txn, s), name));
  }
  return Status::Ok();
}

StatusOr<std::vector<std::pair<RowId, Row>>>
Router::LockTableAndCollectForWrite(Transaction* txn,
                                    const std::string& table) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  const std::string& name = cat->name();
  if (map_.IsBroadcast(name)) {
    return shards_[0].tm->LockTableAndCollectForWrite(EnlistBranch(dt, txn, 0),
                                                      name);
  }
  return CollectForWrite(dt, txn, 0, shards_.size(),
                         [&](size_t s, Transaction* b) {
                           return shards_[s].tm->LockTableAndCollectForWrite(
                               b, name);
                         });
}

// --- Termination. ---------------------------------------------------------

void Router::SplitBranches(
    Dtxn* dt, std::vector<std::pair<size_t, Transaction*>>* writers,
    std::vector<std::pair<size_t, Transaction*>>* readers) {
  for (size_t s = 0; s < dt->branches.size(); ++s) {
    Transaction* b = dt->branches[s].get();
    if (b == nullptr) continue;
    (b->num_writes() > 0 ? writers : readers)->emplace_back(s, b);
  }
}

void Router::AbortBranches(Dtxn* dt) {
  for (size_t s = 0; s < dt->branches.size(); ++s) {
    Transaction* b = dt->branches[s].get();
    if (b != nullptr && b->active()) (void)shards_[s].tm->Abort(b);
  }
}

Status Router::TwoPhaseCommit(
    GroupId gtid,
    const std::vector<std::pair<size_t, Transaction*>>& writers,
    const std::vector<std::pair<size_t, Transaction*>>& readers,
    bool* crashed) {
  FaultInjector* fi = FaultInjector::Global();
  // Pre-decision probe: a fired kError aborts the attempt (presumed abort
  // is still correct — no decision exists); a fired kCrash additionally
  // latches the process, and `*crashed` tells the caller to leave state
  // exactly as the kill would.
  auto probe = [&](const char* site) -> Status {
    if (!fi->enabled()) return Status::Ok();
    Status s = fi->Hit(site);
    if (!s.ok() && fi->crashed()) *crashed = true;
    return s;
  };
  // Any engine failure while the process-wide crash latch is set is part
  // of the crash, not an abortable error.
  auto check = [&](Status s) -> Status {
    if (!s.ok() && fi->enabled() && fi->crashed()) *crashed = true;
    return s;
  };
  // Post-decision probe: the decision is durable, so an in-memory abort
  // would contradict what recovery replays — every fired fault past the
  // commit point escalates to a full crash.
  auto post = [&](const char* site) -> Status {
    if (!fi->enabled()) return Status::Ok();
    Status s = fi->Hit(site);
    if (!s.ok()) {
      if (!fi->crashed()) fi->ForceCrash(site);
      *crashed = true;
    }
    return s;
  };

  // Phase 1: every write branch force-writes PREPARE (its buffered redo
  // records flush with it) and votes yes by returning Ok.
  YT_RETURN_IF_ERROR(probe("2pc.before_prepare"));
  {
    ScopedTraceSpan span("2pc.prepare");
    LatencyTimer timer(ShardMetrics().prepare_micros);
    for (const auto& [s, b] : writers) {
      YT_RETURN_IF_ERROR(check(shards_[s].tm->Prepare(b, gtid)));
      YT_RETURN_IF_ERROR(probe("2pc.after_prepare"));
    }
  }
  YT_RETURN_IF_ERROR(probe("2pc.before_decision"));
  // The commit point: the decision is durable in the coordinator's log.
  // The append serializes under coord_mu_, but the durability wait happens
  // OUTSIDE it, through the decision log's group-commit queue — concurrent
  // cross-shard commits stack their decision records into one flush instead
  // of serializing one fsync each behind the mutex.
  if (coord_wal_ != nullptr) {
    ScopedTraceSpan span("2pc.decision");
    LatencyTimer timer(ShardMetrics().decision_micros);
    StatusOr<uint64_t> lsn = 0;
    {
      std::lock_guard<std::mutex> g(coord_mu_);
      lsn = coord_wal_->Append(WalRecord::CommitDecision(0, gtid));
      // Until every branch holds its own (lazily appended) local decision,
      // this coordinator record is what resolves the transaction — GC must
      // retain it. Inserting before the flush settles is conservative: if
      // the flush fails we crash below, and recovery rebuilds the set.
      if (lsn.ok()) undelivered_.insert(gtid);
    }
    Status st = lsn.ok() ? coord_wal_->SyncToLsn(lsn.value()) : lsn.status();
    if (!st.ok()) {
      // Ambiguous outcome: the record may or may not have reached the
      // device. Aborting in memory could contradict a decision recovery
      // will read, so stop cold and let recovery arbitrate.
      fi->ForceCrash("coordinator decision write failed: " + st.message());
      *crashed = true;
      return st;
    }
  }
  YT_RETURN_IF_ERROR(post("2pc.after_decision"));
  // One commit timestamp for every write branch, stamped and published
  // before any participant commits: a distributed transaction becomes
  // visible to snapshot readers atomically, never shard by shard as
  // phase 2 reaches each participant.
  if (!writers.empty()) {
    std::lock_guard<std::mutex> g(clock_->commit_mutex());
    uint64_t ts = clock_->AllocateCommitTs();
    for (const auto& [s, b] : writers) {
      shards_[s].tm->StampWritesAt(b, ts);
    }
    clock_->Publish(ts);
  }
  YT_RETURN_IF_ERROR(post("2pc.after_stamp"));
  // Read-only branches never voted; release them with a local commit.
  for (const auto& [s, b] : readers) {
    (void)shards_[s].tm->Commit(b);
  }
  // Phase 2: tell every participant. Append failures past the commit
  // point never abort — recovery resolves from the decision log — but
  // they do keep the gtid in `undelivered_` so GC retains its record.
  bool delivered_all = true;
  {
    ScopedTraceSpan span("2pc.phase2");
    LatencyTimer timer(ShardMetrics().phase2_micros);
    for (const auto& [s, b] : writers) {
      if (!shards_[s].tm->CommitPrepared(b, gtid).ok()) delivered_all = false;
      YT_RETURN_IF_ERROR(post("2pc.after_shard_decision"));
    }
  }
  if (fi->enabled() && fi->crashed()) {
    // A WAL-layer fault (torn write, frozen log) latched the crash while
    // phase 2 ran; surface it as one.
    *crashed = true;
    return Status::Internal("simulated crash at " + fi->crash_site());
  }
  if (coord_wal_ != nullptr) {
    bool run_gc = false;
    {
      std::lock_guard<std::mutex> g(coord_mu_);
      if (delivered_all) undelivered_.erase(gtid);
      if (++commits_since_decision_gc_ >= kDecisionGcInterval) {
        commits_since_decision_gc_ = 0;
        run_gc = true;
      }
    }
    // Periodic GC outside coord_mu_ (GcDecisionLog takes it); best
    // effort — a failed GC never fails the commit that triggered it.
    if (run_gc) (void)GcDecisionLog();
  }
  return Status::Ok();
}

StatusOr<size_t> Router::GcDecisionLog() {
  if (coord_wal_ == nullptr) return static_cast<size_t>(0);
  FaultInjector* fi = FaultInjector::Global();
  if (fi->enabled() && fi->crashed()) {
    return Status::Internal("decision-log GC refused under crash latch");
  }
  std::lock_guard<std::mutex> g(coord_mu_);
  // A decision is prunable only once every branch can resolve from its own
  // shard log. Phase 2 appends those local records lazily (unflushed), so
  // flush every shard WAL first — turning "appended" into "durable", the
  // property pruning actually requires.
  for (Shard& sh : shards_) {
    if (sh.wal != nullptr) YT_RETURN_IF_ERROR(sh.wal->Flush());
  }
  YT_RETURN_IF_ERROR(coord_wal_->Flush());
  YT_ASSIGN_OR_RETURN(WalReader::Result log,
                      WalReader::ReadAll(coord_wal_path()));
  std::vector<WalRecord> keep;
  size_t pruned = 0;
  for (WalRecord& rec : log.records) {
    if (rec.type == WalRecordType::kCommitDecision &&
        undelivered_.count(rec.group) == 0) {
      ++pruned;
      continue;
    }
    keep.push_back(std::move(rec));
  }
  if (pruned == 0) return static_cast<size_t>(0);
  // Rewrite through a sibling file + atomic rename: a crash mid-GC leaves
  // either the old complete log or the new complete log, never half of
  // one.
  const std::string tmp = coord_wal_path() + ".gc";
  {
    WalWriter w;
    WalWriter::Options wo;
    wo.sync_on_flush = options_.sync_on_flush;
    YT_RETURN_IF_ERROR(w.Open(tmp, wo, /*truncate=*/true));
    for (WalRecord& rec : keep) {
      YT_RETURN_IF_ERROR(w.Append(std::move(rec)).status());
    }
    YT_RETURN_IF_ERROR(w.Flush());
    YT_RETURN_IF_ERROR(w.Close());
  }
  YT_RETURN_IF_ERROR(coord_wal_->Close());
  std::error_code ec;
  std::filesystem::rename(tmp, coord_wal_path(), ec);
  if (ec) {
    return Status::Corruption("decision-log GC rename failed for " +
                              coord_wal_path());
  }
  WalWriter::Options wo;
  wo.sync_on_flush = options_.sync_on_flush;
  YT_RETURN_IF_ERROR(coord_wal_->Open(coord_wal_path(), wo,
                                      /*truncate=*/false));
  coord_wal_->set_next_lsn(keep.size() + 1);
  return pruned;
}

size_t Router::undelivered_decisions() const {
  std::lock_guard<std::mutex> g(coord_mu_);
  return undelivered_.size();
}

Status Router::Commit(Transaction* txn) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  if (dt->abort_only) {
    return Status::Aborted(
        "transaction must abort: a broadcast write applied to only some "
        "replicas");
  }
  std::vector<std::pair<size_t, Transaction*>> writers, readers;
  SplitBranches(dt, &writers, &readers);
  if (writers.size() <= 1) {
    // The one-phase fast path: at most one shard holds writes, so its
    // local commit record alone decides the transaction — no prepare
    // round, no decision log entry (asserted via stats().prepares).
    for (const auto& [s, b] : readers) {
      YT_RETURN_IF_ERROR(shards_[s].tm->Commit(b));
    }
    for (const auto& [s, b] : writers) {
      YT_RETURN_IF_ERROR(shards_[s].tm->Commit(b));
    }
    stats_.single_shard_txns.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.two_phase_commits.fetch_add(1, std::memory_order_relaxed);
    // The coordinator's root span: phase spans and every branch's spans
    // (prepare force-writes, group-commit waits) nest under it, giving one
    // trace across coordinator and branches.
    ScopedTraceSpan span("2pc.commit", txn->trace_id());
    bool crashed = false;
    Status st = TwoPhaseCommit(txn->id(), writers, readers, &crashed);
    if (!st.ok()) {
      if (crashed) return st;  // leave state exactly as a crash would
      AbortBranches(dt);
      txn->set_state(TxnState::kAborted);
      ReleaseCoordinatorSnapshot(txn);
      EraseDtxn(txn->id());
      stats_.aborts.fetch_add(1, std::memory_order_relaxed);
      return st;
    }
  }
  txn->set_state(TxnState::kCommitted);
  ReleaseCoordinatorSnapshot(txn);
  EraseDtxn(txn->id());
  stats_.commits.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Router::Abort(Transaction* txn) {
  if (txn->state() == TxnState::kAborted) return Status::Ok();
  if (txn->state() == TxnState::kCommitted) {
    return Status::Internal("cannot abort a committed transaction");
  }
  YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(txn));
  AbortBranches(dt);
  txn->set_state(TxnState::kAborted);
  ReleaseCoordinatorSnapshot(txn);
  EraseDtxn(txn->id());
  stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Router::CommitGroup(const std::vector<Transaction*>& members) {
  if (members.empty()) return Status::Ok();
  for (Transaction* t : members) {
    if (!t->active()) {
      return Status::Aborted("group member " + std::to_string(t->id()) +
                             " not active");
    }
  }
  std::vector<Dtxn*> dts;
  dts.reserve(members.size());
  std::vector<std::pair<size_t, Transaction*>> writers, readers;
  for (Transaction* t : members) {
    YT_ASSIGN_OR_RETURN(Dtxn * dt, FindDtxn(t));
    if (dt->abort_only) {
      return Status::Aborted(
          "group member " + std::to_string(t->id()) +
          " must abort: a broadcast write applied to only some replicas");
    }
    dts.push_back(dt);
    SplitBranches(dt, &writers, &readers);
  }
  std::set<size_t> write_shards;
  for (const auto& [s, b] : writers) write_shards.insert(s);

  auto abort_all = [&](const Status& why) {
    for (size_t i = 0; i < members.size(); ++i) {
      AbortBranches(dts[i]);
      members[i]->set_state(TxnState::kAborted);
      ReleaseCoordinatorSnapshot(members[i]);
      EraseDtxn(members[i]->id());
      stats_.aborts.fetch_add(1, std::memory_order_relaxed);
    }
    return why;
  };

  if (write_shards.size() <= 1) {
    // Every member's writes land on one shard (or none): the group commits
    // through that shard's ENTANGLE + GROUP_COMMIT machinery — atomic via
    // the group record, no prepare round.
    if (!writers.empty()) {
      size_t s = *write_shards.begin();
      std::vector<Transaction*> branches;
      branches.reserve(writers.size());
      for (const auto& [ws, b] : writers) branches.push_back(b);
      if (branches.size() == 1) {
        Status st = shards_[s].tm->Commit(branches[0]);
        if (!st.ok()) return abort_all(st);
      } else {
        EntanglementId eid = next_txn_id_.fetch_add(1);
        Status st = shards_[s].tm->LogEntangle(eid, branches);
        if (st.ok()) st = shards_[s].tm->CommitGroup(branches);
        if (!st.ok()) return abort_all(st);
      }
    }
    for (const auto& [s, b] : readers) {
      (void)shards_[s].tm->Commit(b);
    }
    stats_.single_shard_txns.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Cross-shard group: one 2PC instance covers every member's write
    // branches under a single gtid — one decision record commits or aborts
    // the whole entangled group.
    stats_.two_phase_commits.fetch_add(1, std::memory_order_relaxed);
    GroupId gtid = next_txn_id_.fetch_add(1);
    bool crashed = false;
    Status st = TwoPhaseCommit(gtid, writers, readers, &crashed);
    if (!st.ok()) {
      if (crashed) return st;
      return abort_all(st);
    }
  }
  for (Transaction* t : members) {
    t->set_state(TxnState::kCommitted);
    ReleaseCoordinatorSnapshot(t);
    EraseDtxn(t->id());
    stats_.commits.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.group_commits.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Router::LogEntangle(EntanglementId eid,
                           const std::vector<Transaction*>& members) {
  std::vector<TxnId> ids;
  ids.reserve(members.size());
  for (Transaction* t : members) ids.push_back(t->id());
  for (Transaction* t : members) {
    t->MarkEntangled();
    t->AddPartners(ids);
  }
  // Durable narration only: commit-time atomicity of the group comes from
  // the single-shard ENTANGLE+GROUP_COMMIT path or the 2PC decision record,
  // both written by CommitGroup. coord_mu_ keeps the append out of a
  // concurrent decision-log GC rewrite.
  if (coord_wal_ != nullptr) {
    std::lock_guard<std::mutex> g(coord_mu_);
    auto lsn = coord_wal_->AppendAndFlush(WalRecord::Entangle(eid, ids));
    if (!lsn.ok()) return lsn.status();
  }
  return Status::Ok();
}

// --- DDL. -----------------------------------------------------------------

Status Router::SetPartitioning(const std::string& table,
                               const std::vector<std::string>& columns) {
  if (db()->GetTable(table).ok()) {
    return Status::InvalidArgument(
        "partitioning must be set before CREATE TABLE " + table);
  }
  std::lock_guard<std::mutex> g(mu_);
  overrides_[ToLower(table)] = columns;
  return Status::Ok();
}

StatusOr<Table*> Router::CreateTable(const std::string& name,
                                     const Schema& schema) {
  std::vector<size_t> pcols;
  bool overridden = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = overrides_.find(ToLower(name));
    if (it != overrides_.end()) {
      overridden = true;
      for (const std::string& cn : it->second) {
        YT_ASSIGN_OR_RETURN(size_t pos, schema.IndexOf(cn));
        pcols.push_back(pos);
      }
    } else {
      // Default rule: partition by primary-key hash; keyless tables are
      // broadcast.
      pcols = schema.primary_key();
    }
  }
  // The auto-built primary-key unique index is per shard: it enforces
  // global uniqueness only when equal keys co-locate, i.e. the partition
  // columns are a subset of the key.
  if (!pcols.empty() && !schema.primary_key().empty()) {
    for (size_t p : pcols) {
      if (std::find(schema.primary_key().begin(), schema.primary_key().end(),
                    p) == schema.primary_key().end()) {
        return Status::InvalidArgument(
            "partition columns of a keyed table must be a subset of its "
            "primary key (per-shard PK uniqueness would not be global)");
      }
    }
  }
  // Validation passed: the override is consumed by this CREATE. (A failed
  // CREATE above keeps it, so a corrected retry still partitions as
  // requested.)
  if (overridden) {
    std::lock_guard<std::mutex> g(mu_);
    overrides_.erase(ToLower(name));
  }
  Table* cat = nullptr;
  for (size_t s = 0; s < shards_.size(); ++s) {
    YT_ASSIGN_OR_RETURN(Table * t, shards_[s].tm->CreateTable(name, schema));
    if (s == 0) cat = t;
  }
  map_.SetPartitioning(cat->name(), pcols);
  if (coord_wal_ != nullptr) {
    std::lock_guard<std::mutex> g(coord_mu_);
    WalRecord rec = WalRecord::CreateTable(cat->name(), schema);
    rec.aux = PartitionAux(pcols);
    auto lsn = coord_wal_->AppendAndFlush(std::move(rec));
    if (!lsn.ok()) return lsn.status();
  }
  return cat;
}

Status Router::CreateIndex(const std::string& table,
                           const std::vector<std::string>& columns,
                           bool unique, bool ordered) {
  // Per-shard indexes can only enforce uniqueness globally when equal
  // keys are guaranteed to land on the same shard — i.e. the partition
  // columns are a subset of the index columns. Broadcast tables hold one
  // logical copy (every replica sees every row), so any unique index
  // works there.
  if (unique) {
    YT_ASSIGN_OR_RETURN(Table * cat, CatalogTable(table));
    if (!map_.IsBroadcast(cat->name())) {
      std::vector<size_t> positions;
      positions.reserve(columns.size());
      for (const std::string& cn : columns) {
        YT_ASSIGN_OR_RETURN(size_t pos, cat->schema().IndexOf(cn));
        positions.push_back(pos);
      }
      for (size_t p : map_.PartitionColumns(cat->name())) {
        if (std::find(positions.begin(), positions.end(), p) ==
            positions.end()) {
          return Status::InvalidArgument(
              "unique index on a partitioned table must cover the "
              "partition columns (uniqueness is enforced per shard)");
        }
      }
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    YT_RETURN_IF_ERROR(
        shards_[s].tm->CreateIndex(table, columns, unique, ordered));
  }
  return Status::Ok();
}

}  // namespace youtopia::shard
