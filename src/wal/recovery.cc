#include "src/wal/recovery.h"

#include <filesystem>
#include <fstream>
#include <map>

#include "src/common/fault.h"

namespace youtopia {

namespace {

/// Repairs a torn log tail in place: truncates the file to the last intact
/// record boundary. Without this, the writer's append-mode reopen would
/// place new records *after* the garbage bytes, where no reader can ever
/// reach them — every post-recovery commit would be silently unrecoverable.
/// Idempotent: a re-run recovery sees a clean tail.
Status TruncateTornTail(const std::string& wal_path,
                        const WalReader::Result& log,
                        uint64_t* truncated_bytes) {
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(wal_path, ec);
  if (ec || size <= log.valid_bytes) return Status::Ok();
  *truncated_bytes = size - log.valid_bytes;
  std::filesystem::resize_file(wal_path, log.valid_bytes, ec);
  if (ec) {
    return Status::Corruption("cannot truncate torn WAL tail of " + wal_path);
  }
  return Status::Ok();
}

}  // namespace

StatusOr<RecoveryManager::Result> RecoveryManager::Recover(
    const std::string& wal_path) {
  return Recover(wal_path, Options());
}

StatusOr<RecoveryManager::Result> RecoveryManager::Recover(
    const std::string& wal_path, const Options& options) {
  YT_ASSIGN_OR_RETURN(WalReader::Result log, WalReader::ReadAll(wal_path));

  Result result;
  result.torn_tail = log.torn_tail;
  result.max_lsn = log.max_lsn;
  if (log.torn_tail) {
    YT_RETURN_IF_ERROR(
        TruncateTornTail(wal_path, log, &result.truncated_bytes));
  }

  // --- Load checkpoint base image if the log starts with a reference.
  if (!log.records.empty() &&
      log.records.front().type == WalRecordType::kCheckpointRef) {
    std::ifstream in(log.records.front().aux, std::ios::binary);
    if (!in.good()) {
      return Status::Corruption("missing checkpoint file " +
                                log.records.front().aux);
    }
    YT_ASSIGN_OR_RETURN(result.db, Database::LoadFrom(&in));
  } else {
    result.db = std::make_unique<Database>();
  }

  // --- Analysis pass.
  std::set<TxnId> has_commit;
  std::set<TxnId> has_abort;
  std::set<TxnId> entangled;        // appears in any ENTANGLE record
  std::set<TxnId> group_committed;  // appears in any GROUP_COMMIT record
  std::map<TxnId, GroupId> prepared;  // 2PC yes-vote -> coordinator gtid
  std::set<TxnId> seen;
  for (const WalRecord& r : log.records) {
    if (r.txn != 0) {
      seen.insert(r.txn);
      result.max_txn_id = std::max(result.max_txn_id, r.txn);
    }
    switch (r.type) {
      case WalRecordType::kCommit:
        has_commit.insert(r.txn);
        break;
      case WalRecordType::kCommitDecision:
        // Shard-local phase-2 record: resolves the branch like a COMMIT.
        if (r.txn != 0) has_commit.insert(r.txn);
        result.max_gtid = std::max(result.max_gtid, r.group);
        break;
      case WalRecordType::kPrepare:
        prepared.emplace(r.txn, r.group);
        result.max_gtid = std::max(result.max_gtid, r.group);
        break;
      case WalRecordType::kAbort:
        has_abort.insert(r.txn);
        break;
      case WalRecordType::kEntangle:
        for (TxnId m : r.members) {
          entangled.insert(m);
          seen.insert(m);
          result.max_txn_id = std::max(result.max_txn_id, m);
        }
        break;
      case WalRecordType::kGroupCommit:
        for (TxnId m : r.members) group_committed.insert(m);
        break;
      default:
        break;
    }
  }
  // Resolve in-doubt transactions: prepared, no local terminal record.
  // The coordinator's decision log is the authority; absence of a commit
  // decision there means presumed abort.
  for (const auto& [t, gtid] : prepared) {
    if (has_commit.count(t) || has_abort.count(t)) continue;
    result.in_doubt.insert(t);
    result.in_doubt_gtid.emplace(t, gtid);
    if (options.committed_gtids != nullptr &&
        options.committed_gtids->count(gtid)) {
      has_commit.insert(t);
    }
  }
  for (TxnId t : seen) {
    bool durable;
    if (entangled.count(t)) {
      durable = group_committed.count(t) > 0;
      if (!durable && has_commit.count(t)) result.rolled_back.insert(t);
    } else {
      durable = has_commit.count(t) > 0;
    }
    if (durable) {
      result.committed.insert(t);
    } else if (!result.rolled_back.count(t)) {
      result.discarded.insert(t);
    }
  }

  // --- Redo pass: DDL always (system txn 0), DML only for winners.
  FaultInjector* fi = FaultInjector::Global();
  for (const WalRecord& r : log.records) {
    // "recovery.redo" fires per replayed record: a kCrash here kills the
    // replay mid-pass, and a re-run must reach the same final state
    // (recovery idempotence — the log is never mutated by redo, only the
    // rebuilt in-memory image, which a failed attempt discards).
    if (fi->enabled()) YT_RETURN_IF_ERROR(fi->Hit("recovery.redo"));
    switch (r.type) {
      case WalRecordType::kCreateTable: {
        if (!result.db->GetTable(r.table).ok()) {
          YT_ASSIGN_OR_RETURN(Table * t,
                              result.db->CreateTable(r.table, r.schema));
          (void)t;
        }
        break;
      }
      case WalRecordType::kCreateIndex: {
        YT_ASSIGN_OR_RETURN(Table * t, result.db->GetTable(r.table));
        Status s =
            t->CreateIndex(r.IndexColumns(), r.IndexUnique(), r.IndexOrdered());
        // AlreadyExists: the index came back with a checkpoint image.
        if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
        break;
      }
      case WalRecordType::kInsert: {
        if (!result.committed.count(r.txn)) break;
        YT_ASSIGN_OR_RETURN(Table * t, result.db->GetTable(r.table));
        YT_RETURN_IF_ERROR(t->InsertWithId(r.row_id, r.after));
        break;
      }
      case WalRecordType::kUpdate: {
        if (!result.committed.count(r.txn)) break;
        YT_ASSIGN_OR_RETURN(Table * t, result.db->GetTable(r.table));
        YT_RETURN_IF_ERROR(t->Update(r.row_id, r.after));
        break;
      }
      case WalRecordType::kDelete: {
        if (!result.committed.count(r.txn)) break;
        YT_ASSIGN_OR_RETURN(Table * t, result.db->GetTable(r.table));
        YT_RETURN_IF_ERROR(t->Delete(r.row_id, /*writer=*/0));
        break;
      }
      default:
        break;
    }
  }
  return result;
}

}  // namespace youtopia
