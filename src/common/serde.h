#ifndef YOUTOPIA_COMMON_SERDE_H_
#define YOUTOPIA_COMMON_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/row.h"
#include "src/common/schema.h"
#include "src/common/statusor.h"

namespace youtopia {

/// Little-endian, length-prefixed binary encoding used by the WAL and
/// checkpoint files. Decoders take a cursor range and fail with Corruption
/// on truncation or bad tags (never crash on malformed input).

void EncodeU8(std::string* dst, uint8_t v);
void EncodeU32(std::string* dst, uint32_t v);
void EncodeU64(std::string* dst, uint64_t v);
void EncodeI64(std::string* dst, int64_t v);
void EncodeDouble(std::string* dst, double v);
void EncodeString(std::string* dst, const std::string& s);
void EncodeValue(std::string* dst, const Value& v);
void EncodeRow(std::string* dst, const Row& r);
void EncodeSchema(std::string* dst, const Schema& s);

Status DecodeU8(const char** p, const char* end, uint8_t* out);
Status DecodeU32(const char** p, const char* end, uint32_t* out);
Status DecodeU64(const char** p, const char* end, uint64_t* out);
Status DecodeI64(const char** p, const char* end, int64_t* out);
Status DecodeDouble(const char** p, const char* end, double* out);
Status DecodeString(const char** p, const char* end, std::string* out);
Status DecodeValue(const char** p, const char* end, Value* out);
Status DecodeRow(const char** p, const char* end, Row* out);
Status DecodeSchema(const char** p, const char* end, Schema* out);

/// CRC32 (polynomial 0xEDB88320) over `data`; guards WAL records and
/// checkpoint images against torn writes. Slice-by-8: eight input bytes per
/// step through eight 256-entry tables, bytewise on the tail.
uint32_t Crc32(std::string_view data);

}  // namespace youtopia

#endif  // YOUTOPIA_COMMON_SERDE_H_
