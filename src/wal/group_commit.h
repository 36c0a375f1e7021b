#ifndef YOUTOPIA_WAL_GROUP_COMMIT_H_
#define YOUTOPIA_WAL_GROUP_COMMIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/common/status.h"

namespace youtopia {

class WalWriter;

/// Group-commit queue for one WalWriter: committers append their records,
/// enqueue their end-LSN, and block on a ticket; whoever arrives while no
/// flush is in flight becomes the leader, performs ONE flush covering every
/// record appended so far, and wakes everyone at-or-below the flushed LSN.
/// Followers that pile up during a flush share the next one — batching is
/// driven by contention alone, so the idle-path latency stays one flush
/// deep. WalWriter::Flush holds its append lock only for the fflush, not
/// across the fsync, so under `sync_on_flush` committers keep appending
/// while the leader's fsync runs and the next leader covers them all. A
/// waiter only ever waits on its own ticket: the queue runs no other work
/// inside a wait, so no thread holds the flush token while blocked elsewhere.
///
/// Failure semantics: a failed batch flush (including the injected
/// "wal.group_flush" fault site) marks every LSN the attempt covered as
/// failed — those waiters get the error, since their durability is unknowable
/// — but later appends may still succeed. Commit paths escalate a failed
/// commit-record flush to FaultInjector::ForceCrash, same as before. Once the
/// crash latch is set, waiters drain with an error instead of hanging.
class GroupCommitQueue {
 public:
  explicit GroupCommitQueue(WalWriter* wal) : wal_(wal) {}

  GroupCommitQueue(const GroupCommitQueue&) = delete;
  GroupCommitQueue& operator=(const GroupCommitQueue&) = delete;

  /// Blocks until every record with LSN <= `lsn` is durably flushed (or the
  /// flush that covered `lsn` failed). The calling thread may be elected
  /// leader and perform the flush itself.
  Status WaitForDurable(uint64_t lsn);

  /// Forgets everything flushed so far and opens a new ticket epoch. MUST be
  /// called whenever the log's LSN sequence is re-anchored (truncation, GC
  /// rewrite, recovery reopen): a regressed LSN must never test at-or-below
  /// a stale durable horizon. Contract for callers with waiters in flight
  /// (decision-log GC): the OLD log must be made durable before the
  /// re-anchor — stale-epoch tickets are released as durable, because their
  /// LSNs mean nothing in the new sequence and can never be flushed again.
  void ResetHorizon();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Leader flushes performed / tickets served — batching visibility
  /// (batches() << waits() means the fsync is being shared).
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }

 private:
  Status FlushBatch();

  WalWriter* wal_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t durable_lsn_ = 0;  ///< everything at-or-below is on disk
  uint64_t failed_lsn_ = 0;   ///< highest LSN covered by a failed flush
  Status failed_status_ = Status::Ok();
  uint64_t epoch_ = 0;  ///< bumped by ResetHorizon; horizons don't cross it
  bool leader_active_ = false;  ///< a leader's flush is in flight
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> waits_{0};
};

}  // namespace youtopia

#endif  // YOUTOPIA_WAL_GROUP_COMMIT_H_
