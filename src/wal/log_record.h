#ifndef YOUTOPIA_WAL_LOG_RECORD_H_
#define YOUTOPIA_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/row.h"
#include "src/common/schema.h"
#include "src/common/statusor.h"
#include "src/storage/table.h"

namespace youtopia {

/// WAL record kinds. The log is redo-only: recovery replays the after-images
/// of durably committed transactions; live rollback uses in-memory undo.
/// One force-written record decides a commit that wrote: kCommit for a
/// lone writer, kGroupCommit naming every writer of a group. An entangled
/// group is therefore durable as a whole or not at all (paper §4: no
/// widowed transaction survives a crash); entanglement itself logs nothing.
///
/// kPrepare and kCommitDecision are the two-phase-commit records of the
/// sharded engine. A participant shard force-writes kPrepare(txn, gtid) to
/// vote yes; from then on the transaction is *in doubt* after a crash — its
/// outcome is the coordinator's, resolved from the coordinator log's
/// kCommitDecision(gtid) (present = commit, absent = presumed abort).
/// Phase 2 appends a shard-local kCommitDecision(txn, gtid) so a shard that
/// got the decision can also resolve on its own.
enum class WalRecordType : uint8_t {
  kBegin = 1,
  kInsert,
  kUpdate,
  kDelete,
  kCommit,
  kAbort,
  kGroupCommit,     ///< all members of a group are durably committed
  kCreateTable,     ///< DDL (system transaction, txn = 0)
  kCheckpointRef,   ///< first record of a fresh log; points at a checkpoint
  kCreateIndex,     ///< DDL: secondary index (column names in aux)
  kPrepare,         ///< 2PC vote: writes durable, outcome in doubt (group =
                    ///< the coordinator's global transaction id)
  kCommitDecision,  ///< 2PC decision for `group`; txn = 0 in the
                    ///< coordinator log, the branch id on a shard
};

/// One WAL record. Unused fields are empty for a given type.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kBegin;
  TxnId txn = 0;
  std::string table;
  RowId row_id = 0;
  Row before;  ///< update/delete before-image (debugging / audits)
  Row after;   ///< insert/update after-image (redo)
  Schema schema;
  GroupId group = 0;
  std::vector<TxnId> members;
  std::string aux;  ///< checkpoint path for kCheckpointRef

  static WalRecord Begin(TxnId txn);
  static WalRecord Insert(TxnId txn, std::string table, RowId rid, Row after);
  static WalRecord Update(TxnId txn, std::string table, RowId rid, Row before,
                          Row after);
  static WalRecord Delete(TxnId txn, std::string table, RowId rid, Row before);
  static WalRecord Commit(TxnId txn);
  static WalRecord Abort(TxnId txn);
  static WalRecord GroupCommit(GroupId group, std::vector<TxnId> members);
  static WalRecord Prepare(TxnId txn, GroupId gtid);
  static WalRecord CommitDecision(TxnId txn, GroupId gtid);
  static WalRecord CreateTable(std::string table, Schema schema);
  static WalRecord CreateIndex(std::string table,
                               const std::vector<std::string>& columns,
                               bool unique = false, bool ordered = false);
  static WalRecord CheckpointRef(std::string path, uint64_t lsn_at_checkpoint);

  /// Column names of a kCreateIndex record (decoded from aux, which holds
  /// "col,col[|flag,flag]" with flags drawn from {unique, ordered}).
  std::vector<std::string> IndexColumns() const;
  bool IndexUnique() const;
  bool IndexOrdered() const;

  /// Payload encoding (no framing; the writer adds length + CRC).
  void EncodeTo(std::string* dst) const;
  static StatusOr<WalRecord> Decode(std::string_view payload);

  std::string ToString() const;
};

const char* WalRecordTypeName(WalRecordType t);

}  // namespace youtopia

#endif  // YOUTOPIA_WAL_LOG_RECORD_H_
