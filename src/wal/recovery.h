#ifndef YOUTOPIA_WAL_RECOVERY_H_
#define YOUTOPIA_WAL_RECOVERY_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/storage/database.h"
#include "src/wal/wal_reader.h"

namespace youtopia {

/// Repairs a torn log tail in place: truncates the file at `wal_path` to
/// the last intact record boundary `log` (its ReadAll result) found.
/// Without this, a writer's append-mode reopen would place new records
/// *after* the garbage bytes, where no reader can ever reach them — every
/// later commit would be silently unrecoverable. Returns the bytes removed
/// (0 for an intact tail). Idempotent: a re-run sees a clean tail.
StatusOr<uint64_t> TruncateTornTail(const std::string& wal_path,
                                    const WalReader::Result& log);

/// Entanglement-aware crash recovery (paper §4, "Persistence and Recovery").
///
/// Analysis: a transaction is durably committed iff its COMMIT record or a
/// GROUP_COMMIT record naming it is in the log. A commit writes exactly one
/// of them, naming every member that wrote, so the members of an entangled
/// group are decided by one record. That implements the paper's rule: "if
/// two transactions entangle and only one manages to commit prior to a
/// crash, both must be rolled back during recovery."
///
/// A transaction with a PREPARE record but no local COMMIT / ABORT /
/// COMMIT_DECISION is *in doubt*: it voted yes in a two-phase commit and
/// its outcome belongs to the coordinator. It commits iff its global
/// transaction id appears in `Options::committed_gtids` (the decisions
/// read from the coordinator's log) and is presumed aborted otherwise —
/// the classical presumed-abort rule; shard::Router::Recover wires the
/// coordinator log through here.
///
/// Redo: rebuild the database from the checkpoint referenced by the log head
/// (if any), then replay DDL and the after-images of durably committed
/// transactions in LSN order. Because the log is redo-only, losers need no
/// undo: their effects were never reapplied.
class RecoveryManager {
 public:
  struct Options {
    /// Commit decisions known from the coordinator's log; nullptr means
    /// no external decisions (every in-doubt transaction aborts).
    const std::set<GroupId>* committed_gtids = nullptr;
  };

  struct Result {
    std::unique_ptr<Database> db;
    std::set<TxnId> committed;       ///< durably committed transactions
    std::set<TxnId> discarded;       ///< in-flight or aborted at crash time
    std::set<TxnId> in_doubt;        ///< prepared, resolved only through the
                                     ///< coordinator's decisions (members of
                                     ///< committed or discarded too)
    /// The coordinator gtid of each in-doubt branch — the coordinator
    /// writes a durable shard-local decision for the committed ones after
    /// recovery, so its own decision log can be GC'd safely.
    std::map<TxnId, GroupId> in_doubt_gtid;
    uint64_t max_lsn = 0;
    TxnId max_txn_id = 0;
    /// Highest 2PC global transaction id seen in PREPARE / COMMIT_DECISION
    /// records — the coordinator must allocate above this after recovery
    /// so a presumed-aborted gtid can never be reused (and later decided).
    GroupId max_gtid = 0;
    bool torn_tail = false;
    /// Torn-tail bytes removed from the log file (the partial trailing
    /// record a crash mid-write left); 0 when the tail was clean.
    uint64_t truncated_bytes = 0;
  };

  /// Runs recovery from `wal_path`. Checkpoints are located through the
  /// log's CheckpointRef head record.
  static StatusOr<Result> Recover(const std::string& wal_path);
  static StatusOr<Result> Recover(const std::string& wal_path,
                                  const Options& options);
};

}  // namespace youtopia

#endif  // YOUTOPIA_WAL_RECOVERY_H_
