#include "src/storage/database.h"

#include <istream>
#include <ostream>

#include "src/common/serde.h"

namespace youtopia {

namespace {
// v2: index definitions carry unique/ordered flags.
constexpr char kCheckpointMagic[] = "YTCKPT2";
}  // namespace

StatusOr<Table*> Database::CreateTable(const std::string& name,
                                       const Schema& schema) {
  std::lock_guard<std::mutex> g(mu_);
  if (catalog_.Contains(name)) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  TableId id = static_cast<TableId>(tables_.size());
  YT_RETURN_IF_ERROR(catalog_.Register(name, id));
  tables_.push_back(std::make_unique<Table>(id, name, schema));
  return tables_.back().get();
}

Status Database::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  YT_ASSIGN_OR_RETURN(TableId id, catalog_.Lookup(name));
  YT_RETURN_IF_ERROR(catalog_.Unregister(name));
  tables_[id].reset();  // keep slot so TableIds stay stable
  return Status::Ok();
}

StatusOr<Table*> Database::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  YT_ASSIGN_OR_RETURN(TableId id, catalog_.Lookup(name));
  Table* t = tables_[id].get();
  if (t == nullptr) return Status::NotFound("table " + name + " was dropped");
  return t;
}

StatusOr<const Table*> Database::GetTableConst(const std::string& name) const {
  YT_ASSIGN_OR_RETURN(Table * t, GetTable(name));
  return static_cast<const Table*>(t);
}

Table* Database::GetTableById(TableId id) const {
  std::lock_guard<std::mutex> g(mu_);
  if (id >= tables_.size()) return nullptr;
  return tables_[id].get();
}

std::vector<std::string> Database::TableNames() const {
  std::lock_guard<std::mutex> g(mu_);
  return catalog_.TableNames();
}

std::unique_ptr<Database> Database::Clone() const {
  std::lock_guard<std::mutex> g(mu_);
  auto copy = std::make_unique<Database>();
  copy->catalog_ = catalog_;
  copy->tables_.reserve(tables_.size());
  for (const auto& t : tables_) {
    copy->tables_.push_back(t ? t->Clone() : nullptr);
  }
  return copy;
}

Status Database::SaveTo(std::ostream* out) const {
  std::lock_guard<std::mutex> g(mu_);
  std::string buf;
  buf.append(kCheckpointMagic);
  uint32_t live = 0;
  for (const auto& t : tables_) {
    if (t) ++live;
  }
  EncodeU32(&buf, live);
  for (const auto& t : tables_) {
    if (!t) continue;
    EncodeU32(&buf, t->id());
    EncodeString(&buf, t->name());
    EncodeSchema(&buf, t->schema());
    // Secondary-index definitions with flags (the primary-key index is
    // rebuilt from the schema by the Table constructor and skipped on load).
    std::vector<IndexInfo> index_infos = t->IndexInfos();
    EncodeU32(&buf, static_cast<uint32_t>(index_infos.size()));
    for (const IndexInfo& info : index_infos) {
      EncodeU32(&buf, static_cast<uint32_t>(info.columns.size()));
      for (size_t c : info.columns) EncodeU32(&buf, static_cast<uint32_t>(c));
      EncodeU8(&buf, static_cast<uint8_t>((info.unique ? 1 : 0) |
                                          (info.ordered ? 2 : 0)));
    }
    EncodeU64(&buf, t->size());
    t->Scan([&buf](RowId rid, const Row& row) {
      EncodeU64(&buf, rid);
      EncodeRow(&buf, row);
      return true;
    });
  }
  std::string framed;
  EncodeU32(&framed, Crc32(buf));
  framed += buf;
  out->write(framed.data(), static_cast<std::streamsize>(framed.size()));
  if (!out->good()) return Status::Corruption("checkpoint write failed");
  return Status::Ok();
}

StatusOr<std::unique_ptr<Database>> Database::LoadFrom(std::istream* in) {
  std::string framed((std::istreambuf_iterator<char>(*in)),
                     std::istreambuf_iterator<char>());
  const char* p = framed.data();
  const char* end = p + framed.size();
  uint32_t crc;
  YT_RETURN_IF_ERROR(DecodeU32(&p, end, &crc));
  std::string body(p, end);
  if (Crc32(body) != crc) {
    return Status::Corruption("checkpoint checksum mismatch");
  }
  size_t magic_len = sizeof(kCheckpointMagic) - 1;
  if (body.size() < magic_len ||
      body.compare(0, magic_len, kCheckpointMagic) != 0) {
    return Status::Corruption("bad checkpoint magic");
  }
  p += magic_len;
  uint32_t num_tables;
  YT_RETURN_IF_ERROR(DecodeU32(&p, end, &num_tables));
  auto db = std::make_unique<Database>();
  for (uint32_t i = 0; i < num_tables; ++i) {
    uint32_t id;
    std::string name;
    Schema schema;
    uint64_t num_rows;
    YT_RETURN_IF_ERROR(DecodeU32(&p, end, &id));
    YT_RETURN_IF_ERROR(DecodeString(&p, end, &name));
    YT_RETURN_IF_ERROR(DecodeSchema(&p, end, &schema));
    uint32_t num_indexes;
    YT_RETURN_IF_ERROR(DecodeU32(&p, end, &num_indexes));
    std::vector<IndexInfo> index_infos(num_indexes);
    for (uint32_t x = 0; x < num_indexes; ++x) {
      uint32_t num_cols;
      YT_RETURN_IF_ERROR(DecodeU32(&p, end, &num_cols));
      for (uint32_t c = 0; c < num_cols; ++c) {
        uint32_t col;
        YT_RETURN_IF_ERROR(DecodeU32(&p, end, &col));
        index_infos[x].columns.push_back(col);
      }
      uint8_t flags;
      YT_RETURN_IF_ERROR(DecodeU8(&p, end, &flags));
      index_infos[x].unique = (flags & 1) != 0;
      index_infos[x].ordered = (flags & 2) != 0;
    }
    YT_RETURN_IF_ERROR(DecodeU64(&p, end, &num_rows));
    // Recreate with stable TableIds: pad slots if needed.
    while (db->tables_.size() < id) db->tables_.push_back(nullptr);
    if (db->tables_.size() != id) {
      return Status::Corruption("checkpoint table ids out of order");
    }
    YT_RETURN_IF_ERROR(db->catalog_.Register(name, id));
    db->tables_.push_back(std::make_unique<Table>(id, name, schema));
    Table* t = db->tables_.back().get();
    for (const IndexInfo& info : index_infos) {
      if (t->HasIndexOn(info.columns)) continue;  // PK index already rebuilt
      YT_RETURN_IF_ERROR(
          t->CreateIndexByPositions(info.columns, info.unique, info.ordered));
    }
    for (uint64_t r = 0; r < num_rows; ++r) {
      uint64_t rid;
      Row row;
      YT_RETURN_IF_ERROR(DecodeU64(&p, end, &rid));
      YT_RETURN_IF_ERROR(DecodeRow(&p, end, &row));
      YT_RETURN_IF_ERROR(t->InsertWithId(rid, row));
    }
  }
  return db;
}

bool Database::ContentEquals(const Database& other) const {
  std::vector<std::string> names = TableNames();
  if (names != other.TableNames()) return false;
  for (const std::string& name : names) {
    auto a = GetTable(name);
    auto b = other.GetTable(name);
    if (!a.ok() || !b.ok()) return false;
    if (!(a.value()->schema() == b.value()->schema())) return false;
    if (a.value()->size() != b.value()->size()) return false;
    bool equal = true;
    a.value()->Scan([&](RowId rid, const Row& row) {
      auto o = b.value()->Get(rid, ReadView::Latest());
      if (!o.ok() || o.value() != row) {
        equal = false;
        return false;
      }
      return true;
    });
    if (!equal) return false;
  }
  return true;
}

}  // namespace youtopia
