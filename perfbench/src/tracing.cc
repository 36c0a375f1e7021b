#include "perfbench/src/tracing.h"

#include <utility>

#include "perfbench/src/common.h"

namespace perfbench {

using youtopia::AccessPlan;
using youtopia::ReadOrigin;
using youtopia::Row;
using youtopia::RowId;
using youtopia::Status;
using youtopia::StatusOr;
using youtopia::Table;
using youtopia::TableCursor;
using youtopia::Transaction;

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kBegin: return "begin";
    case Layer::kRead: return "read";
    case Layer::kGround: return "ground";
    case Layer::kWrite: return "write";
    case Layer::kCommit: return "commit";
    case Layer::kCommitGroup: return "commit_group";
    case Layer::kAbort: return "abort";
    case Layer::kEntangle: return "entangle";
    case Layer::kOther: return "other";
  }
  return "?";
}

namespace {

std::atomic<uint64_t> g_generation{1};

uint64_t TxnIdOf(const Transaction* txn) {
  return txn == nullptr ? 0 : txn->id();
}

bool IsGrounding(ReadOrigin origin) {
  return origin == ReadOrigin::kGrounding ||
         origin == ReadOrigin::kGroundingJoin;
}

/// Times one decorated call: EnterCall on construction, span on Finish.
class CallTimer {
 public:
  CallTimer(SpanRecorder* rec, Layer layer, uint64_t txn_id,
            const std::vector<Transaction*>* members = nullptr)
      : rec_(rec), members_(members) {
    span_.layer = layer;
    span_.txn_id = txn_id;
    span_.context_id = rec_->EnterCall();
    span_.start_ns = NowNanos();
  }
  ~CallTimer() {
    span_.end_ns = NowNanos();
    if (members_ == nullptr) {
      rec_->ExitCall(span_, nullptr);
      return;
    }
    std::vector<uint64_t> ids;
    for (const Transaction* m : *members_) ids.push_back(TxnIdOf(m));
    rec_->ExitCall(span_, &ids);
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

  Span& span() { return span_; }

 private:
  SpanRecorder* rec_;
  const std::vector<Transaction*>* members_;
  Span span_;
};

/// Cursor wrapper: every pull and the close (destruction, which performs
/// the isolation level's early lock release) is a span of the cursor's
/// layer, carrying the rows it handed over.
class TracingCursor : public TableCursor {
 public:
  TracingCursor(std::unique_ptr<TableCursor> inner, SpanRecorder* rec,
                Layer layer, uint64_t txn_id)
      : inner_(std::move(inner)), rec_(rec), layer_(layer), txn_id_(txn_id) {}

  ~TracingCursor() override {
    CallTimer t(rec_, layer_, txn_id_);
    inner_.reset();
  }

  StatusOr<bool> NextRef(RowId* rid, const Row** row) override {
    CallTimer t(rec_, layer_, txn_id_);
    StatusOr<bool> r = inner_->NextRef(rid, row);
    if (r.ok() && r.value()) t.span().rows = 1;
    return r;
  }
  StatusOr<bool> Next(RowId* rid, Row* row) override {
    CallTimer t(rec_, layer_, txn_id_);
    StatusOr<bool> r = inner_->Next(rid, row);
    if (r.ok() && r.value()) t.span().rows = 1;
    return r;
  }
  StatusOr<bool> NextBatch(youtopia::RowBatch* batch,
                           size_t max_rows) override {
    CallTimer t(rec_, layer_, txn_id_);
    StatusOr<bool> r = inner_->NextBatch(batch, max_rows);
    if (r.ok()) t.span().rows = static_cast<uint32_t>(batch->size());
    return r;
  }
  size_t size_hint() const override { return inner_->size_hint(); }
  Status DrainRef(
      const std::function<bool(RowId, const Row&)>& visitor) override {
    CallTimer t(rec_, layer_, txn_id_);
    uint32_t rows = 0;
    Status s = inner_->DrainRef([&](RowId rid, const Row& row) {
      ++rows;
      return visitor(rid, row);
    });
    t.span().rows = rows;
    return s;
  }

 private:
  std::unique_ptr<TableCursor> inner_;
  SpanRecorder* rec_;
  Layer layer_;
  uint64_t txn_id_;
};

}  // namespace

SpanRecorder::SpanRecorder() : generation_(g_generation.fetch_add(1)) {}

SpanRecorder::ThreadBuffer& SpanRecorder::Local() {
  thread_local uint64_t owner = 0;
  thread_local ThreadBuffer* buf = nullptr;
  if (owner != generation_) {
    std::lock_guard<std::mutex> g(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buf = buffers_.back().get();
    buf->thread = static_cast<uint32_t>(buffers_.size());
    buf->spans.reserve(1 << 16);
    owner = generation_;
  }
  return *buf;
}

uint64_t SpanRecorder::EnterCall() {
  ThreadBuffer& b = Local();
  if (b.contexts.empty() || b.depth > b.contexts.back().second) {
    b.contexts.emplace_back(next_context_.fetch_add(1), b.depth);
  }
  ++b.depth;
  return b.contexts.back().first;
}

void SpanRecorder::ExitCall(const Span& span,
                            const std::vector<uint64_t>* txn_ids) {
  ThreadBuffer& b = Local();
  --b.depth;
  if (txn_ids == nullptr) {
    b.spans.push_back(span);
    b.spans.back().thread = b.thread;
    return;
  }
  for (uint64_t id : *txn_ids) {
    b.spans.push_back(span);
    b.spans.back().thread = b.thread;
    b.spans.back().txn_id = id;
  }
}

uint64_t SpanRecorder::CloseStatement() {
  ThreadBuffer& b = Local();
  if (b.contexts.empty() || b.contexts.back().second != b.depth) return 0;
  const uint64_t id = b.contexts.back().first;
  b.contexts.pop_back();
  return id;
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

// --- TracingEngine: forward and time. -----------------------------------

std::unique_ptr<Transaction> TracingEngine::Begin() {
  CallTimer t(rec_, Layer::kBegin, 0);
  auto txn = inner_->Begin();
  t.span().txn_id = TxnIdOf(txn.get());
  return txn;
}

std::unique_ptr<Transaction> TracingEngine::Begin(
    youtopia::IsolationLevel level) {
  CallTimer t(rec_, Layer::kBegin, 0);
  auto txn = inner_->Begin(level);
  t.span().txn_id = TxnIdOf(txn.get());
  return txn;
}

StatusOr<RowId> TracingEngine::Insert(Transaction* txn,
                                      const std::string& table,
                                      const Row& row) {
  CallTimer t(rec_, Layer::kWrite, TxnIdOf(txn));
  return inner_->Insert(txn, table, row);
}

StatusOr<Row> TracingEngine::Get(Transaction* txn, const std::string& table,
                                 RowId rid) {
  CallTimer t(rec_, Layer::kRead, TxnIdOf(txn));
  return inner_->Get(txn, table, rid);
}

Status TracingEngine::Update(Transaction* txn, const std::string& table,
                             RowId rid, const Row& row) {
  CallTimer t(rec_, Layer::kWrite, TxnIdOf(txn));
  return inner_->Update(txn, table, rid, row);
}

Status TracingEngine::Delete(Transaction* txn, const std::string& table,
                             RowId rid) {
  CallTimer t(rec_, Layer::kWrite, TxnIdOf(txn));
  return inner_->Delete(txn, table, rid);
}

Status TracingEngine::Load(const std::string& table, const Row& row) {
  CallTimer t(rec_, Layer::kOther, 0);
  return inner_->Load(table, row);
}

StatusOr<std::unique_ptr<TableCursor>> TracingEngine::OpenCursor(
    Transaction* txn, Table* t, AccessPlan plan, ReadOrigin origin) {
  const Layer layer = IsGrounding(origin) ? Layer::kGround : Layer::kRead;
  CallTimer timer(rec_, layer, TxnIdOf(txn));
  auto cursor = inner_->OpenCursor(txn, t, std::move(plan), origin);
  if (!cursor.ok()) return cursor.status();
  return std::unique_ptr<TableCursor>(std::make_unique<TracingCursor>(
      std::move(cursor).value(), rec_, layer, TxnIdOf(txn)));
}

StatusOr<youtopia::AggregateGroups> TracingEngine::AggregateTable(
    Transaction* txn, Table* t, AccessPlan plan,
    const youtopia::AggregateSpec& spec, ReadOrigin origin) {
  CallTimer timer(rec_, IsGrounding(origin) ? Layer::kGround : Layer::kRead,
                  TxnIdOf(txn));
  return inner_->AggregateTable(txn, t, std::move(plan), spec, origin);
}

StatusOr<std::vector<std::pair<RowId, Row>>> TracingEngine::LockRowsForWrite(
    Transaction* txn, const std::string& table,
    const std::vector<size_t>& columns, const Row& key) {
  CallTimer t(rec_, Layer::kWrite, TxnIdOf(txn));
  return inner_->LockRowsForWrite(txn, table, columns, key);
}

StatusOr<std::vector<std::pair<RowId, Row>>>
TracingEngine::LockRowsForWriteRange(Transaction* txn,
                                     const std::string& table,
                                     const youtopia::IndexRangeSpec& spec) {
  CallTimer t(rec_, Layer::kWrite, TxnIdOf(txn));
  return inner_->LockRowsForWriteRange(txn, table, spec);
}

Status TracingEngine::LockTableForWrite(Transaction* txn,
                                        const std::string& table) {
  CallTimer t(rec_, Layer::kWrite, TxnIdOf(txn));
  return inner_->LockTableForWrite(txn, table);
}

StatusOr<std::vector<std::pair<RowId, Row>>>
TracingEngine::LockTableAndCollectForWrite(Transaction* txn,
                                           const std::string& table) {
  CallTimer t(rec_, Layer::kWrite, TxnIdOf(txn));
  return inner_->LockTableAndCollectForWrite(txn, table);
}

Status TracingEngine::Commit(Transaction* txn) {
  CallTimer t(rec_, Layer::kCommit, TxnIdOf(txn));
  t.span().readonly_commit =
      txn->num_writes() == 0 && txn->undo_log().empty();
  return inner_->Commit(txn);
}

Status TracingEngine::Abort(Transaction* txn) {
  CallTimer t(rec_, Layer::kAbort, TxnIdOf(txn));
  return inner_->Abort(txn);
}

Status TracingEngine::CommitGroup(const std::vector<Transaction*>& members) {
  // Every member waits for the whole group: one span per member.
  CallTimer t(rec_, Layer::kCommitGroup, 0, &members);
  return inner_->CommitGroup(members);
}

Status TracingEngine::LogEntangle(youtopia::EntanglementId eid,
                                  const std::vector<Transaction*>& members) {
  CallTimer t(rec_, Layer::kEntangle, 0, &members);
  return inner_->LogEntangle(eid, members);
}

StatusOr<Table*> TracingEngine::CreateTable(const std::string& name,
                                            const youtopia::Schema& schema) {
  CallTimer t(rec_, Layer::kOther, 0);
  return inner_->CreateTable(name, schema);
}

Status TracingEngine::CreateIndex(const std::string& table,
                                  const std::vector<std::string>& columns,
                                  bool unique, bool ordered) {
  CallTimer t(rec_, Layer::kOther, 0);
  return inner_->CreateIndex(table, columns, unique, ordered);
}

}  // namespace perfbench
