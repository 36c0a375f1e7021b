#ifndef YOUTOPIA_TXN_TRANSACTION_H_
#define YOUTOPIA_TXN_TRANSACTION_H_

#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/row.h"
#include "src/storage/table.h"
#include "src/txn/isolation_level.h"

namespace youtopia {

/// Lifecycle states. kBlocked and kReadyToCommit exist for the entangled
/// execution model (§4): a transaction blocks while its entangled query
/// waits for evaluation and becomes ready-to-commit when its program ends
/// but group-commit constraints are still pending.
enum class TxnState {
  kActive = 0,
  kBlocked,
  kReadyToCommit,
  kCommitted,
  kAborted,
};

const char* TxnStateName(TxnState s);

/// One undo action; applied in reverse order on abort. The WAL is redo-only,
/// so rollback of live transactions is entirely in-memory.
struct UndoEntry {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind;
  std::string table;
  RowId row_id = 0;
  Row before;  ///< pre-image for update/delete undo
};

/// A classical transaction handle. Created by TransactionManager::Begin and
/// driven through the manager's data operations; not thread-safe (one
/// connection drives one transaction, as in the paper's setup).
class Transaction {
 public:
  Transaction(TxnId id, IsolationLevel level, int64_t lock_timeout_micros)
      : id_(id), level_(level), lock_timeout_micros_(lock_timeout_micros) {}

  TxnId id() const { return id_; }
  IsolationLevel isolation_level() const { return level_; }
  TxnState state() const { return state_; }
  void set_state(TxnState s) { state_ = s; }
  bool active() const {
    return state_ == TxnState::kActive || state_ == TxnState::kBlocked ||
           state_ == TxnState::kReadyToCommit;
  }

  int64_t lock_timeout_micros() const { return lock_timeout_micros_; }
  /// Per-transaction override of the manager default (tests and sessions
  /// bounding a single statement's blocking).
  void set_lock_timeout_micros(int64_t micros) {
    lock_timeout_micros_ = micros;
  }

  /// Entanglement bookkeeping (set when the transaction receives an
  /// entangled-query answer; drives group commit + widow prevention).
  bool entangled() const { return entangled_; }
  void MarkEntangled() { entangled_ = true; }
  const std::vector<TxnId>& partners() const { return partners_; }
  void AddPartners(const std::vector<TxnId>& ps);

  std::vector<UndoEntry>& undo_log() { return undo_log_; }
  const std::vector<UndoEntry>& undo_log() const { return undo_log_; }

  /// Number of data operations performed (stats/tests).
  size_t num_writes() const { return num_writes_; }
  void count_write() { ++num_writes_; }

  /// Snapshot timestamp for versioned reads. 0 means "no snapshot yet";
  /// kReadCommitted transactions get a fresh one per statement while
  /// kSnapshot pins the Begin-time one. When the snapshot was adopted from
  /// a distributed coordinator (`external`), per-statement refresh is
  /// suppressed so every branch of a cross-shard statement reads one cut.
  uint64_t read_ts() const { return read_ts_; }
  void set_read_ts(uint64_t ts) { read_ts_ = ts; }
  bool external_read_ts() const { return external_read_ts_; }
  void set_external_read_ts(bool v) { external_read_ts_ = v; }
  /// Whether this transaction currently pins `read_ts` in the snapshot
  /// registry (so Commit/Abort know to unregister it exactly once).
  bool snapshot_registered() const { return snapshot_registered_; }
  void set_snapshot_registered(bool v) { snapshot_registered_ = v; }
  /// Trace id this transaction's spans belong to (0 = untraced). Stamped at
  /// Begin when metrics are on; a 2PC coordinator re-uses it so coordinator
  /// and branch spans assemble into one trace.
  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  /// Open read cursors of this transaction (transactions are
  /// single-threaded, so plain bookkeeping suffices). A closing cursor may
  /// perform kReadCommitted early lock release only when it is the last
  /// one open — shared locks are merged per (txn, key), so releasing while
  /// a sibling cursor is still open could strip a table/row S lock that
  /// sibling depends on.
  void cursor_opened() { ++open_cursors_; }
  /// Returns the count after closing.
  int cursor_closed() { return --open_cursors_; }
  /// Currently open cursors — nonzero means a statement is mid-flight, so
  /// kReadCommitted snapshot refresh must wait (a join's probe cursors read
  /// the same cut as their outer scan).
  int open_cursors() const { return open_cursors_; }

 private:
  TxnId id_;
  IsolationLevel level_;
  int64_t lock_timeout_micros_;
  TxnState state_ = TxnState::kActive;
  uint64_t read_ts_ = 0;
  bool external_read_ts_ = false;
  bool snapshot_registered_ = false;
  uint64_t trace_id_ = 0;
  int open_cursors_ = 0;
  bool entangled_ = false;
  std::vector<TxnId> partners_;
  std::vector<UndoEntry> undo_log_;
  size_t num_writes_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_TXN_TRANSACTION_H_
