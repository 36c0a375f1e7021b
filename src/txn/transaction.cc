#include "src/txn/transaction.h"

namespace youtopia {

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
