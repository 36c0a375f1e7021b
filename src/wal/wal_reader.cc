#include "src/wal/wal_reader.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "src/common/serde.h"

namespace youtopia {

namespace {

Status ReadError(const std::string& path, int err) {
  return Status::IOError("cannot read WAL " + path + ": " +
                         std::strerror(err));
}

}  // namespace

StatusOr<WalReader::Result> WalReader::ReadAll(const std::string& path) {
  Result result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return result;  // no log yet: fresh database
    return ReadError(path, errno);
  }
  // One sized read of the whole log. Only a regular file has a size to
  // trust (a directory opens fine and fails on read).
  struct stat st;
  int err = 0;
  if (fstat(fileno(f), &st) != 0) {
    err = errno;
  } else if (!S_ISREG(st.st_mode)) {
    err = S_ISDIR(st.st_mode) ? EISDIR : EINVAL;
  }
  if (err != 0) {
    std::fclose(f);
    return ReadError(path, err);
  }
  std::string data(static_cast<size_t>(st.st_size), '\0');
  data.resize(std::fread(data.data(), 1, data.size(), f));
  // A read error mid-file must not pass for a torn tail: truncation would
  // then cut intact records.
  const bool failed = std::ferror(f) != 0;
  err = errno;
  std::fclose(f);
  if (failed) return ReadError(path, err);

  const char* p = data.data();
  const char* end = p + data.size();
  while (p < end) {
    uint32_t len, crc;
    if (!DecodeU32(&p, end, &len).ok() || !DecodeU32(&p, end, &crc).ok() ||
        end - p < static_cast<ptrdiff_t>(len)) {
      result.torn_tail = true;
      break;
    }
    const std::string_view payload(p, len);
    p += len;
    if (Crc32(payload) != crc) {
      result.torn_tail = true;
      break;
    }
    auto rec = WalRecord::Decode(payload);
    if (!rec.ok()) {
      result.torn_tail = true;
      break;
    }
    result.max_lsn = std::max(result.max_lsn, rec.value().lsn);
    result.records.push_back(std::move(rec).value());
    result.valid_bytes = static_cast<uint64_t>(p - data.data());
  }
  return result;
}

}  // namespace youtopia
