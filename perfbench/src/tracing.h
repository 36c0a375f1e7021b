#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/txn/txn_engine.h"

namespace perfbench {

/// The engine layer a timed call belongs to. Cursor opens and pulls of
/// grounding origins (kGrounding / kGroundingJoin) count as kGround, every
/// other read as kRead.
enum class Layer : uint8_t {
  kBegin,
  kRead,
  kGround,
  kWrite,
  kCommit,
  kCommitGroup,
  kAbort,
  kEntangle,
  kOther,
};
inline constexpr int kNumLayers = 9;
const char* LayerName(Layer l);

/// One timed engine call, recorded from outside the engine.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t txn_id = 0;      ///< transaction the call ran for (0 = none)
  uint64_t context_id = 0;  ///< statement context (see SpanRecorder)
  uint32_t rows = 0;        ///< rows handed over (cursor pulls)
  uint32_t thread = 0;
  Layer layer = Layer::kOther;
  bool readonly_commit = false;  ///< Commit of a transaction without writes
};

/// In-memory span store with per-thread buffers (no lock on the record
/// path).
///
/// Statement contexts attribute engine calls to client statements without
/// any hook inside the engine. A worker thread runs statements strictly
/// nested: a statement opens when its first engine call arrives, and ends
/// when the client's completion callback fires on the same thread. A
/// statement can only start inside another one's engine call when the
/// group-commit queue lends a parked committer's thread to other sessions
/// (SessionServer's park-don't-block), because the engine never calls back
/// into this decorator. So an engine call that arrives while another call
/// is open on its thread starts a nested statement context, and the
/// callback closes the innermost one.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Marks entry into a decorated call on this thread; returns the id of
  /// the statement context the call belongs to.
  uint64_t EnterCall();
  /// Records `span` (once per id of `txn_ids` when given: a group call
  /// is charged in full to each member).
  void ExitCall(const Span& span, const std::vector<uint64_t>* txn_ids);

  /// Ends the innermost statement context of this thread; returns its id,
  /// or 0 when no engine call happened since it opened. Call from the
  /// client's completion callback.
  uint64_t CloseStatement();

  /// Every recorded span. Call only while no decorated call is running.
  std::vector<Span> Collect() const;

 private:
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<std::pair<uint64_t, int>> contexts;  ///< (id, depth)
    int depth = 0;
    uint32_t thread = 0;
  };
  ThreadBuffer& Local();

  uint64_t generation_;
  std::atomic<uint64_t> next_context_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

/// TxnEngine decorator: forwards every virtual call to `inner` and records
/// one span per call, wrapping returned cursors so that each pull (and the
/// close) is a span too. Nothing in the engine downcasts a TxnEngine*, so
/// it can stand in for the real engine under Session, SessionServer and
/// EntangledTransactionEngine.
class TracingEngine : public youtopia::TxnEngine {
 public:
  TracingEngine(youtopia::TxnEngine* inner, SpanRecorder* recorder)
      : inner_(inner), rec_(recorder) {}

  youtopia::Database* db() const override { return inner_->db(); }
  youtopia::TxnStats& stats() override { return inner_->stats(); }

  std::unique_ptr<youtopia::Transaction> Begin() override;
  std::unique_ptr<youtopia::Transaction> Begin(
      youtopia::IsolationLevel level) override;

  void set_mvcc_reads_enabled(bool enabled) override {
    inner_->set_mvcc_reads_enabled(enabled);
  }
  bool mvcc_reads_enabled() const override {
    return inner_->mvcc_reads_enabled();
  }

  youtopia::StatusOr<youtopia::RowId> Insert(youtopia::Transaction* txn,
                                             const std::string& table,
                                             const youtopia::Row& row) override;
  youtopia::StatusOr<youtopia::Row> Get(youtopia::Transaction* txn,
                                        const std::string& table,
                                        youtopia::RowId rid) override;
  youtopia::Status Update(youtopia::Transaction* txn, const std::string& table,
                          youtopia::RowId rid,
                          const youtopia::Row& row) override;
  youtopia::Status Delete(youtopia::Transaction* txn, const std::string& table,
                          youtopia::RowId rid) override;
  youtopia::Status Load(const std::string& table,
                        const youtopia::Row& row) override;

  using youtopia::TxnEngine::OpenCursor;
  youtopia::StatusOr<std::unique_ptr<youtopia::TableCursor>> OpenCursor(
      youtopia::Transaction* txn, youtopia::Table* t, youtopia::AccessPlan plan,
      youtopia::ReadOrigin origin) override;

  using youtopia::TxnEngine::AggregateTable;
  youtopia::StatusOr<youtopia::AggregateGroups> AggregateTable(
      youtopia::Transaction* txn, youtopia::Table* t, youtopia::AccessPlan plan,
      const youtopia::AggregateSpec& spec,
      youtopia::ReadOrigin origin) override;

  youtopia::StatusOr<std::vector<std::pair<youtopia::RowId, youtopia::Row>>>
  LockRowsForWrite(youtopia::Transaction* txn, const std::string& table,
                   const std::vector<size_t>& columns,
                   const youtopia::Row& key) override;
  youtopia::StatusOr<std::vector<std::pair<youtopia::RowId, youtopia::Row>>>
  LockRowsForWriteRange(youtopia::Transaction* txn, const std::string& table,
                        const youtopia::IndexRangeSpec& spec) override;
  youtopia::Status LockTableForWrite(youtopia::Transaction* txn,
                                     const std::string& table) override;
  youtopia::StatusOr<std::vector<std::pair<youtopia::RowId, youtopia::Row>>>
  LockTableAndCollectForWrite(youtopia::Transaction* txn,
                              const std::string& table) override;

  youtopia::Status Commit(youtopia::Transaction* txn) override;
  youtopia::Status Abort(youtopia::Transaction* txn) override;
  youtopia::Status CommitGroup(
      const std::vector<youtopia::Transaction*>& members) override;
  youtopia::Status LogEntangle(
      youtopia::EntanglementId eid,
      const std::vector<youtopia::Transaction*>& members) override;

  youtopia::StatusOr<youtopia::Table*> CreateTable(
      const std::string& name, const youtopia::Schema& schema) override;
  youtopia::Status CreateIndex(const std::string& table,
                               const std::vector<std::string>& columns,
                               bool unique, bool ordered) override;

 private:
  youtopia::TxnEngine* inner_;
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
