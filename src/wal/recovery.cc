#include "src/wal/recovery.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_map>

#include "src/common/fault.h"

namespace youtopia {

StatusOr<uint64_t> TruncateTornTail(const std::string& wal_path,
                                    const WalReader::Result& log) {
  if (!log.torn_tail) return 0;
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(wal_path, ec);
  if (ec || size <= log.valid_bytes) return 0;
  std::filesystem::resize_file(wal_path, log.valid_bytes, ec);
  if (ec) {
    return Status::Corruption("cannot truncate torn WAL tail of " + wal_path);
  }
  return size - log.valid_bytes;
}

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
  YT_ASSIGN_OR_RETURN(result.truncated_bytes, TruncateTornTail(wal_path, log));

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
  std::set<TxnId> has_commit;  // named by a commit-deciding record
  std::set<TxnId> has_abort;
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
      case WalRecordType::kGroupCommit:
        has_commit.insert(r.members.begin(), r.members.end());
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
    if (has_commit.count(t)) {
      result.committed.insert(t);
    } else {
      result.discarded.insert(t);
    }
  }

  // --- Redo pass: DDL always (system txn 0), DML only for winners. Each
  // table name resolves to its Table* once (tables are never dropped during
  // redo), and after-images move out of the log into the heap.
  FaultInjector* fi = FaultInjector::Global();
  std::unordered_map<std::string, Table*> tables;
  auto table_of = [&](const std::string& name) -> StatusOr<Table*> {
    auto it = tables.find(name);
    if (it != tables.end()) return it->second;
    YT_ASSIGN_OR_RETURN(Table * t, result.db->GetTable(name));
    tables.emplace(name, t);
    return t;
  };
  for (WalRecord& r : log.records) {
    // "recovery.redo" fires per replayed record: a kCrash here kills the
    // replay mid-pass, and a re-run must reach the same final state
    // (recovery idempotence — the log is never mutated by redo, only the
    // rebuilt in-memory image, which a failed attempt discards).
    if (fi->enabled()) YT_RETURN_IF_ERROR(fi->Hit("recovery.redo"));
    switch (r.type) {
      case WalRecordType::kCreateTable: {
        if (!result.db->GetTable(r.table).ok()) {
          YT_RETURN_IF_ERROR(
              result.db->CreateTable(r.table, r.schema).status());
        }
        break;
      }
      case WalRecordType::kCreateIndex: {
        YT_ASSIGN_OR_RETURN(Table * t, table_of(r.table));
        Status s =
            t->CreateIndex(r.IndexColumns(), r.IndexUnique(), r.IndexOrdered());
        // AlreadyExists: the index came back with a checkpoint image.
        if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
        break;
      }
      case WalRecordType::kInsert: {
        if (!result.committed.count(r.txn)) break;
        YT_ASSIGN_OR_RETURN(Table * t, table_of(r.table));
        YT_RETURN_IF_ERROR(t->InsertWithId(r.row_id, std::move(r.after)));
        break;
      }
      case WalRecordType::kUpdate: {
        if (!result.committed.count(r.txn)) break;
        YT_ASSIGN_OR_RETURN(Table * t, table_of(r.table));
        YT_RETURN_IF_ERROR(t->Update(r.row_id, std::move(r.after)));
        break;
      }
      case WalRecordType::kDelete: {
        if (!result.committed.count(r.txn)) break;
        YT_ASSIGN_OR_RETURN(Table * t, table_of(r.table));
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
