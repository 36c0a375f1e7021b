#include "src/common/serde.h"

#include <array>
#include <cstring>

namespace youtopia {

namespace {
Status Truncated() { return Status::Corruption("truncated encoding"); }
}  // namespace

void EncodeU8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

void EncodeU32(std::string* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) dst->push_back(static_cast<char>(v >> (8 * i)));
}

void EncodeU64(std::string* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst->push_back(static_cast<char>(v >> (8 * i)));
}

void EncodeI64(std::string* dst, int64_t v) {
  EncodeU64(dst, static_cast<uint64_t>(v));
}

void EncodeDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  EncodeU64(dst, bits);
}

void EncodeString(std::string* dst, const std::string& s) {
  EncodeU32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s);
}

void EncodeValue(std::string* dst, const Value& v) {
  EncodeU8(dst, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kNull: break;
    case TypeId::kBool: EncodeU8(dst, v.as_bool() ? 1 : 0); break;
    case TypeId::kInt64: EncodeI64(dst, v.as_int()); break;
    case TypeId::kDouble: EncodeDouble(dst, v.as_double()); break;
    case TypeId::kString: EncodeString(dst, v.as_string()); break;
  }
}

void EncodeRow(std::string* dst, const Row& r) {
  EncodeU32(dst, static_cast<uint32_t>(r.size()));
  for (size_t i = 0; i < r.size(); ++i) EncodeValue(dst, r[i]);
}

void EncodeSchema(std::string* dst, const Schema& s) {
  EncodeU32(dst, static_cast<uint32_t>(s.num_columns()));
  for (const Column& c : s.columns()) {
    EncodeString(dst, c.name);
    EncodeU8(dst, static_cast<uint8_t>(c.type));
  }
  EncodeU32(dst, static_cast<uint32_t>(s.primary_key().size()));
  for (size_t i : s.primary_key()) {
    EncodeU32(dst, static_cast<uint32_t>(i));
  }
  EncodeU8(dst, s.pk_ordered() ? 1 : 0);
}

Status DecodeU8(const char** p, const char* end, uint8_t* out) {
  if (end - *p < 1) return Truncated();
  *out = static_cast<uint8_t>(**p);
  ++*p;
  return Status::Ok();
}

Status DecodeU32(const char** p, const char* end, uint32_t* out) {
  if (end - *p < 4) return Truncated();
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>((*p)[i])) << (8 * i);
  }
  *p += 4;
  *out = v;
  return Status::Ok();
}

Status DecodeU64(const char** p, const char* end, uint64_t* out) {
  if (end - *p < 8) return Truncated();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>((*p)[i])) << (8 * i);
  }
  *p += 8;
  *out = v;
  return Status::Ok();
}

Status DecodeI64(const char** p, const char* end, int64_t* out) {
  uint64_t u;
  YT_RETURN_IF_ERROR(DecodeU64(p, end, &u));
  *out = static_cast<int64_t>(u);
  return Status::Ok();
}

Status DecodeDouble(const char** p, const char* end, double* out) {
  uint64_t bits;
  YT_RETURN_IF_ERROR(DecodeU64(p, end, &bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::Ok();
}

Status DecodeString(const char** p, const char* end, std::string* out) {
  uint32_t n;
  YT_RETURN_IF_ERROR(DecodeU32(p, end, &n));
  if (end - *p < static_cast<ptrdiff_t>(n)) return Truncated();
  out->assign(*p, n);
  *p += n;
  return Status::Ok();
}

Status DecodeValue(const char** p, const char* end, Value* out) {
  uint8_t tag;
  YT_RETURN_IF_ERROR(DecodeU8(p, end, &tag));
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kNull:
      *out = Value::Null();
      return Status::Ok();
    case TypeId::kBool: {
      uint8_t b;
      YT_RETURN_IF_ERROR(DecodeU8(p, end, &b));
      *out = Value::Bool(b != 0);
      return Status::Ok();
    }
    case TypeId::kInt64: {
      int64_t i;
      YT_RETURN_IF_ERROR(DecodeI64(p, end, &i));
      *out = Value::Int(i);
      return Status::Ok();
    }
    case TypeId::kDouble: {
      double d;
      YT_RETURN_IF_ERROR(DecodeDouble(p, end, &d));
      *out = Value::Double(d);
      return Status::Ok();
    }
    case TypeId::kString: {
      std::string s;
      YT_RETURN_IF_ERROR(DecodeString(p, end, &s));
      *out = Value::Str(std::move(s));
      return Status::Ok();
    }
  }
  return Status::Corruption("bad value tag");
}

Status DecodeRow(const char** p, const char* end, Row* out) {
  uint32_t n;
  YT_RETURN_IF_ERROR(DecodeU32(p, end, &n));
  std::vector<Value> vals;
  vals.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    YT_RETURN_IF_ERROR(DecodeValue(p, end, &v));
    vals.push_back(std::move(v));
  }
  *out = Row(std::move(vals));
  return Status::Ok();
}

Status DecodeSchema(const char** p, const char* end, Schema* out) {
  uint32_t n;
  YT_RETURN_IF_ERROR(DecodeU32(p, end, &n));
  std::vector<Column> cols;
  cols.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column c;
    YT_RETURN_IF_ERROR(DecodeString(p, end, &c.name));
    uint8_t t;
    YT_RETURN_IF_ERROR(DecodeU8(p, end, &t));
    c.type = static_cast<TypeId>(t);
    cols.push_back(std::move(c));
  }
  Schema schema(std::move(cols));
  uint32_t num_pk;
  YT_RETURN_IF_ERROR(DecodeU32(p, end, &num_pk));
  if (num_pk > schema.num_columns()) {
    return Status::Corruption("bad primary-key column count");
  }
  std::vector<size_t> pk;
  pk.reserve(num_pk);
  for (uint32_t i = 0; i < num_pk; ++i) {
    uint32_t col;
    YT_RETURN_IF_ERROR(DecodeU32(p, end, &col));
    if (col >= schema.num_columns()) {
      return Status::Corruption("primary-key column out of range");
    }
    pk.push_back(col);
  }
  schema.set_primary_key(std::move(pk));
  uint8_t pk_ordered;
  YT_RETURN_IF_ERROR(DecodeU8(p, end, &pk_ordered));
  schema.set_pk_ordered(pk_ordered != 0);
  *out = std::move(schema);
  return Status::Ok();
}

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// Table 0 is the bytewise CRC table; table k advances a byte's CRC through
/// k further zero bytes, so eight bytes fold in with eight lookups.
constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

uint32_t LoadU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const CrcTables& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadU32(p) ^ c;
    const uint32_t hi = LoadU32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace youtopia
