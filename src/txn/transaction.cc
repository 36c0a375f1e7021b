#include "src/txn/transaction.h"

namespace youtopia {

const char* TxnStateName(TxnState s) {
  switch (s) {
    case TxnState::kActive: return "ACTIVE";
    case TxnState::kBlocked: return "BLOCKED";
    case TxnState::kReadyToCommit: return "READY_TO_COMMIT";
    case TxnState::kCommitted: return "COMMITTED";
    case TxnState::kAborted: return "ABORTED";
  }
  return "?";
}

const char* IsolationLevelName(IsolationLevel l) {
  switch (l) {
    case IsolationLevel::kFullEntangled: return "FULL_ENTANGLED";
    case IsolationLevel::kSerializable: return "SERIALIZABLE";
    case IsolationLevel::kReadCommitted: return "READ_COMMITTED";
    case IsolationLevel::kReadUncommitted: return "READ_UNCOMMITTED";
    case IsolationLevel::kSnapshot: return "SNAPSHOT";
  }
  return "?";
}

}  // namespace youtopia
