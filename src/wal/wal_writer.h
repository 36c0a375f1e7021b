#ifndef YOUTOPIA_WAL_WAL_WRITER_H_
#define YOUTOPIA_WAL_WAL_WRITER_H_

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>

#include "src/wal/group_commit.h"
#include "src/wal/log_record.h"

namespace youtopia {

/// Append-only WAL file writer. Each record is framed as
/// [u32 payload_len][u32 crc32(payload)][payload]. Appends buffer in
/// userspace; Flush() pushes to the OS (and fsyncs when `sync_on_flush`).
/// Thread-safe: the transaction manager appends from many connections.
/// Appends and the fflush share one lock; the fsync runs under a separate
/// sync lock, so appends proceed while the device syncs (lock order: sync,
/// then append).
///
/// Fault-injection sites (src/common/fault.h): "wal.append" (append
/// failure before any byte is written), "wal.append.torn" (short write — a
/// prefix of the frame reaches the file, then the crash state latches),
/// "wal.flush" (failed flush/fsync), "wal.group_flush" (the group-commit
/// leader's batch flush fails before reaching the file — every ticket the
/// batch covered errors out). Once the injector's crash state is
/// latched, every writer freezes: appends and flushes are rejected, and
/// close discards the userspace buffer instead of flushing it, so the file
/// reads back exactly as a process kill at the crash point would leave it.
class WalWriter {
 public:
  struct Options {
    bool sync_on_flush = false;  ///< fsync on every Flush (commit durability)
  };

  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creates or truncates when `truncate`) the log file.
  Status Open(const std::string& path, Options options, bool truncate);
  bool is_open() const { return file_ != nullptr; }

  /// Assigns the next LSN, frames and buffers the record. Returns the LSN.
  StatusOr<uint64_t> Append(WalRecord rec);

  /// Appends and waits for durability (commit path). With group commit
  /// enabled (the default) the wait goes through the GroupCommitQueue: one
  /// leader flush covers every concurrent committer's records. With it
  /// disabled, each call performs its own Flush — the ablation baseline.
  StatusOr<uint64_t> AppendAndFlush(WalRecord rec);

  /// Waits until every record with LSN <= `lsn` is durable (group queue when
  /// enabled, direct Flush otherwise). Lets callers separate Append from the
  /// durability wait — e.g. the 2PC coordinator appends its decision under
  /// its own mutex but waits for the flush outside it, so concurrent
  /// decisions share one flush.
  Status SyncToLsn(uint64_t lsn);

  Status Flush();

  /// Closes the file (flushes first).
  Status Close();

  /// Restart the log in `path` with a checkpoint-reference first record
  /// (log truncation after a checkpoint).
  Status ResetWithCheckpoint(const std::string& checkpoint_path);

  uint64_t next_lsn() const { return next_lsn_; }
  /// Re-anchors the LSN sequence (recovery reopen, decision-log GC). The
  /// group-commit durable horizon resets with it: an LSN regression must
  /// never let a fresh record test at-or-below a stale flushed mark.
  void set_next_lsn(uint64_t lsn) {
    next_lsn_ = lsn;
    group_.ResetHorizon();
  }
  /// Highest LSN assigned so far (0 when nothing was appended).
  uint64_t last_lsn() const;
  const std::string& path() const { return path_; }

  /// Group-commit controls. Enabled by default; disabling is the ablation
  /// (every AppendAndFlush performs its own flush).
  void set_group_commit_enabled(bool on) { group_.set_enabled(on); }
  bool group_commit_enabled() const { return group_.enabled(); }
  GroupCommitQueue* group_commit() { return &group_; }

  /// Optional flush counter (TxnStats::wal_flushes): bumped once per
  /// successful Flush, i.e. once per group-commit batch — not per committer.
  /// Pass nullptr to detach. The counter must outlive the attachment.
  void set_flush_counter(std::atomic<uint64_t>* counter) {
    flush_counter_.store(counter, std::memory_order_release);
  }

 private:
  std::mutex sync_mu_;  ///< serialises flushes; held to close or swap file_
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
  Options options_;
  uint64_t next_lsn_ = 1;
  std::atomic<std::atomic<uint64_t>*> flush_counter_{nullptr};
  GroupCommitQueue group_{this};
};

}  // namespace youtopia

#endif  // YOUTOPIA_WAL_WAL_WRITER_H_
