#include "src/wal/log_record.h"

#include "src/common/serde.h"
#include "src/common/strings.h"

namespace youtopia {

const char* WalRecordTypeName(WalRecordType t) {
  switch (t) {
    case WalRecordType::kBegin: return "BEGIN";
    case WalRecordType::kInsert: return "INSERT";
    case WalRecordType::kUpdate: return "UPDATE";
    case WalRecordType::kDelete: return "DELETE";
    case WalRecordType::kCommit: return "COMMIT";
    case WalRecordType::kAbort: return "ABORT";
    case WalRecordType::kGroupCommit: return "GROUP_COMMIT";
    case WalRecordType::kCreateTable: return "CREATE_TABLE";
    case WalRecordType::kCheckpointRef: return "CHECKPOINT_REF";
    case WalRecordType::kCreateIndex: return "CREATE_INDEX";
    case WalRecordType::kPrepare: return "PREPARE";
    case WalRecordType::kCommitDecision: return "COMMIT_DECISION";
  }
  return "?";
}

WalRecord WalRecord::Begin(TxnId txn) {
  WalRecord r;
  r.type = WalRecordType::kBegin;
  r.txn = txn;
  return r;
}

WalRecord WalRecord::Insert(TxnId txn, std::string table, RowId rid,
                            Row after) {
  WalRecord r;
  r.type = WalRecordType::kInsert;
  r.txn = txn;
  r.table = std::move(table);
  r.row_id = rid;
  r.after = std::move(after);
  return r;
}

WalRecord WalRecord::Update(TxnId txn, std::string table, RowId rid,
                            Row before, Row after) {
  WalRecord r;
  r.type = WalRecordType::kUpdate;
  r.txn = txn;
  r.table = std::move(table);
  r.row_id = rid;
  r.before = std::move(before);
  r.after = std::move(after);
  return r;
}

WalRecord WalRecord::Delete(TxnId txn, std::string table, RowId rid,
                            Row before) {
  WalRecord r;
  r.type = WalRecordType::kDelete;
  r.txn = txn;
  r.table = std::move(table);
  r.row_id = rid;
  r.before = std::move(before);
  return r;
}

WalRecord WalRecord::Commit(TxnId txn) {
  WalRecord r;
  r.type = WalRecordType::kCommit;
  r.txn = txn;
  return r;
}

WalRecord WalRecord::Abort(TxnId txn) {
  WalRecord r;
  r.type = WalRecordType::kAbort;
  r.txn = txn;
  return r;
}

WalRecord WalRecord::GroupCommit(GroupId group, std::vector<TxnId> members) {
  WalRecord r;
  r.type = WalRecordType::kGroupCommit;
  r.group = group;
  r.members = std::move(members);
  return r;
}

WalRecord WalRecord::Prepare(TxnId txn, GroupId gtid) {
  WalRecord r;
  r.type = WalRecordType::kPrepare;
  r.txn = txn;
  r.group = gtid;
  return r;
}

WalRecord WalRecord::CommitDecision(TxnId txn, GroupId gtid) {
  WalRecord r;
  r.type = WalRecordType::kCommitDecision;
  r.txn = txn;
  r.group = gtid;
  return r;
}

WalRecord WalRecord::CreateTable(std::string table, Schema schema) {
  WalRecord r;
  r.type = WalRecordType::kCreateTable;
  r.table = std::move(table);
  r.schema = std::move(schema);
  return r;
}

WalRecord WalRecord::CreateIndex(std::string table,
                                 const std::vector<std::string>& columns,
                                 bool unique, bool ordered) {
  WalRecord r;
  r.type = WalRecordType::kCreateIndex;
  r.table = std::move(table);
  r.aux = Join(columns, ",");
  std::vector<std::string> flags;
  if (unique) flags.push_back("unique");
  if (ordered) flags.push_back("ordered");
  if (!flags.empty()) r.aux += "|" + Join(flags, ",");
  return r;
}

std::vector<std::string> WalRecord::IndexColumns() const {
  return Split(Split(aux, '|').front(), ',');
}

bool WalRecord::IndexUnique() const {
  std::vector<std::string> parts = Split(aux, '|');
  return parts.size() > 1 && parts[1].find("unique") != std::string::npos;
}

bool WalRecord::IndexOrdered() const {
  std::vector<std::string> parts = Split(aux, '|');
  return parts.size() > 1 && parts[1].find("ordered") != std::string::npos;
}

WalRecord WalRecord::CheckpointRef(std::string path,
                                   uint64_t lsn_at_checkpoint) {
  WalRecord r;
  r.type = WalRecordType::kCheckpointRef;
  r.aux = std::move(path);
  r.lsn = lsn_at_checkpoint;
  return r;
}

void WalRecord::EncodeTo(std::string* dst) const {
  EncodeU64(dst, lsn);
  EncodeU8(dst, static_cast<uint8_t>(type));
  EncodeU64(dst, txn);
  EncodeString(dst, table);
  EncodeU64(dst, row_id);
  EncodeRow(dst, before);
  EncodeRow(dst, after);
  EncodeSchema(dst, schema);
  EncodeU64(dst, group);
  EncodeU32(dst, static_cast<uint32_t>(members.size()));
  for (TxnId m : members) EncodeU64(dst, m);
  EncodeString(dst, aux);
}

StatusOr<WalRecord> WalRecord::Decode(std::string_view payload) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  WalRecord r;
  uint8_t type;
  YT_RETURN_IF_ERROR(DecodeU64(&p, end, &r.lsn));
  YT_RETURN_IF_ERROR(DecodeU8(&p, end, &type));
  if (type < static_cast<uint8_t>(WalRecordType::kBegin) ||
      type > static_cast<uint8_t>(WalRecordType::kCommitDecision)) {
    return Status::Corruption("bad WAL record type");
  }
  r.type = static_cast<WalRecordType>(type);
  YT_RETURN_IF_ERROR(DecodeU64(&p, end, &r.txn));
  YT_RETURN_IF_ERROR(DecodeString(&p, end, &r.table));
  YT_RETURN_IF_ERROR(DecodeU64(&p, end, &r.row_id));
  YT_RETURN_IF_ERROR(DecodeRow(&p, end, &r.before));
  YT_RETURN_IF_ERROR(DecodeRow(&p, end, &r.after));
  YT_RETURN_IF_ERROR(DecodeSchema(&p, end, &r.schema));
  YT_RETURN_IF_ERROR(DecodeU64(&p, end, &r.group));
  uint32_t n;
  YT_RETURN_IF_ERROR(DecodeU32(&p, end, &n));
  r.members.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t m;
    YT_RETURN_IF_ERROR(DecodeU64(&p, end, &m));
    r.members.push_back(m);
  }
  YT_RETURN_IF_ERROR(DecodeString(&p, end, &r.aux));
  return r;
}

std::string WalRecord::ToString() const {
  std::string s = StrFormat("[lsn=%llu %s txn=%llu",
                            static_cast<unsigned long long>(lsn),
                            WalRecordTypeName(type),
                            static_cast<unsigned long long>(txn));
  if (!table.empty()) s += " table=" + table;
  if (row_id != 0) s += " rid=" + std::to_string(row_id);
  if (!members.empty()) {
    s += " members={";
    for (size_t i = 0; i < members.size(); ++i) {
      if (i) s += ",";
      s += std::to_string(members[i]);
    }
    s += "}";
  }
  s += "]";
  return s;
}

}  // namespace youtopia
