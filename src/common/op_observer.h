#ifndef YOUTOPIA_COMMON_OP_OBSERVER_H_
#define YOUTOPIA_COMMON_OP_OBSERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"

namespace youtopia {

/// Identifies a read/write target for schedule recording: a whole table
/// (row == 0) or one row. Grounding reads are table-granular (a conjunctive
/// query reads the relation); point reads are row-granular. Two ObjectRefs
/// conflict when they name the same table and either is whole-table or both
/// name the same row.
struct ObjectRef {
  std::string table;
  uint64_t row = 0;

  bool Overlaps(const ObjectRef& o) const {
    return table == o.table && (row == 0 || o.row == 0 || row == o.row);
  }
  bool operator==(const ObjectRef& o) const {
    return table == o.table && row == o.row;
  }
  std::string ToString() const {
    return row == 0 ? table : table + "#" + std::to_string(row);
  }
};

/// Observation tap for every logical operation the engine performs. The
/// isolation module's ScheduleRecorder implements this to capture the
/// R / W / R^G / E / C / A streams of Appendix C; the default no-op keeps
/// the hot path free.
class OpObserver {
 public:
  virtual ~OpObserver() = default;
  virtual void OnRead(TxnId /*txn*/, const ObjectRef& /*obj*/) {}
  virtual void OnWrite(TxnId /*txn*/, const ObjectRef& /*obj*/) {}
  virtual void OnGroundingRead(TxnId /*txn*/, const ObjectRef& /*obj*/) {}
  virtual void OnEntangle(EntanglementId /*eid*/,
                          const std::vector<TxnId>& /*members*/) {}
  virtual void OnCommit(TxnId /*txn*/) {}
  virtual void OnAbort(TxnId /*txn*/) {}
};

}  // namespace youtopia

#endif  // YOUTOPIA_COMMON_OP_OBSERVER_H_
