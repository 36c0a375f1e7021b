#ifndef YOUTOPIA_ETXN_HANDLE_H_
#define YOUTOPIA_ETXN_HANDLE_H_

#include <condition_variable>
#include <mutex>
#include <string>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/sql/expr_eval.h"

namespace youtopia::etxn {

/// Future-like completion handle for a submitted entangled transaction.
/// Resolution statuses:
///   OK         — committed (group-committed when entangled);
///   kTimedOut  — the WITH TIMEOUT deadline expired, for an entangled
///                program while waiting for partners (the §3.1 error
///                thrown to the app);
///   kAborted   — explicit ROLLBACK or a widow-prevention cascade that
///                could not be retried;
///   other      — program error (bad SQL etc.).
class TxnHandle {
 public:
  /// Blocks until the transaction reaches a final state.
  Status Wait();

  /// Non-blocking poll.
  bool done() const;

  /// Number of run attempts (1 = committed in its first run).
  int attempts() const;

  /// The classical transaction id of the successful attempt (0 otherwise).
  TxnId committed_txn_id() const;

  /// Snapshot of the host variables at completion (answer bindings like
  /// @ArrivalDay end up here on success).
  sql::VarEnv final_vars() const;

 private:
  friend class EntangledTransactionEngine;

  void Resolve(Status s, TxnId txn, sql::VarEnv vars);
  void BumpAttempts();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Status result_;
  int attempts_ = 0;
  TxnId committed_txn_ = 0;
  sql::VarEnv final_vars_;
};

}  // namespace youtopia::etxn

#endif  // YOUTOPIA_ETXN_HANDLE_H_
