#ifndef YOUTOPIA_WAL_WAL_READER_H_
#define YOUTOPIA_WAL_WAL_READER_H_

#include <string>
#include <vector>

#include "src/wal/log_record.h"

namespace youtopia {

/// Reads a WAL file back into records. A truncated or checksum-failing tail
/// is treated as a torn write from the crash and reading stops there (this
/// is the normal crash case, not an error); `torn_tail` reports whether that
/// happened.
class WalReader {
 public:
  struct Result {
    std::vector<WalRecord> records;
    bool torn_tail = false;
    uint64_t max_lsn = 0;
    /// Byte offset just past the last intact record — where a torn tail
    /// starts. Recovery truncates the file here before reopening it for
    /// append (new records written after garbage would be unreachable).
    uint64_t valid_bytes = 0;
  };

  /// A missing file (ENOENT) yields an empty Result (fresh database); any
  /// other open or read failure is an IOError, never a torn tail.
  static StatusOr<Result> ReadAll(const std::string& path);
};

}  // namespace youtopia

#endif  // YOUTOPIA_WAL_WAL_READER_H_
