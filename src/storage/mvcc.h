#ifndef YOUTOPIA_STORAGE_MVCC_H_
#define YOUTOPIA_STORAGE_MVCC_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>

#include "src/common/ids.h"

namespace youtopia {

/// Engine-wide commit clock for the versioned read path. Timestamps are
/// logical: `ReadTs` returns the newest *published* commit timestamp, and a
/// snapshot reader at ts sees exactly the versions whose commit timestamp is
/// <= ts.
///
/// Commit-publish protocol: a committing transaction holds `commit_mutex`
/// across [AllocateCommitTs, stamp every written row, Publish], so a
/// timestamp is only ever published after every row carrying it is stamped.
/// A reader's snapshot (`ReadTs`, an acquire load of the last release-
/// published ts) therefore always names a cut where every commit <= ts is
/// fully stamped and every commit > ts is entirely invisible — readers never
/// observe a half-stamped commit. One clock is shared by every shard of a
/// sharded engine, so a cross-shard statement reads one cut.
class VersionClock {
 public:
  /// Newest published commit timestamp — the snapshot a new reader takes.
  uint64_t ReadTs() const {
    return last_published_.load(std::memory_order_acquire);
  }

  /// Serializes the [allocate, stamp, publish] commit window.
  std::mutex& commit_mutex() { return commit_mu_; }

  /// Next commit timestamp. Caller must hold commit_mutex.
  uint64_t AllocateCommitTs() {
    return last_published_.load(std::memory_order_relaxed) + 1;
  }

  /// Makes `ts` (and every row stamped with it) visible to new snapshots.
  /// Caller must hold commit_mutex.
  void Publish(uint64_t ts) {
    last_published_.store(ts, std::memory_order_release);
  }

 private:
  std::mutex commit_mu_;
  std::atomic<uint64_t> last_published_{0};
};

/// Which version of a row a read sees. A snapshot view sees versions with
/// begin_ts <= `ts`, plus everything written by `self` (a transaction
/// always sees its own uncommitted writes). The Latest() view sees the
/// in-place latest version whatever its writer: what locking reads (whose
/// S locks exclude foreign writers), recovery redo and write-candidate
/// collection read.
struct ReadView {
  static constexpr uint64_t kLatestTs = std::numeric_limits<uint64_t>::max();

  uint64_t ts = 0;
  TxnId self = 0;

  static ReadView Latest() { return ReadView{kLatestTs, 0}; }
  bool latest() const { return ts == kLatestTs; }
};

/// The set of snapshot timestamps currently pinned by live transactions.
/// Version-chain GC prunes only versions no live snapshot can reach, so the
/// oldest registered timestamp is the GC horizon. Shared across shards
/// alongside the clock.
///
/// Registration/horizon rule: a new pin's timestamp and the horizon's
/// no-pin fallback are both read from the clock *under the registry mutex*.
/// Then either the pin lands first (the horizon is at most the pin) or the
/// horizon is computed first (the pin's later clock reading is at least the
/// horizon, the clock being monotonic) — a reader can never register a
/// snapshot older than a horizon GC has already pruned to. Reading the
/// clock outside the mutex and registering afterwards would open exactly
/// that window.
class SnapshotRegistry {
 public:
  /// Pins the clock's current reading and returns it.
  uint64_t RegisterCurrent(const VersionClock& clock) {
    std::lock_guard<std::mutex> g(mu_);
    uint64_t ts = clock.ReadTs();
    ++active_[ts];
    return ts;
  }

  void Unregister(uint64_t ts) {
    std::lock_guard<std::mutex> g(mu_);
    auto it = active_.find(ts);
    if (it == active_.end()) return;
    if (--it->second == 0) active_.erase(it);
  }

  /// Moves a live transaction's pin from `old_ts` to the clock's current
  /// reading and returns it (kReadCommitted refreshes its snapshot per
  /// statement). When the clock has not moved the held pin is kept as is,
  /// without taking the mutex.
  uint64_t RefreshCurrent(uint64_t old_ts, const VersionClock& clock) {
    if (clock.ReadTs() == old_ts) return old_ts;
    std::lock_guard<std::mutex> g(mu_);
    uint64_t ts = clock.ReadTs();
    auto it = active_.find(old_ts);
    if (it != active_.end() && --it->second == 0) active_.erase(it);
    ++active_[ts];
    return ts;
  }

  /// The GC horizon: the oldest pinned snapshot, or the clock's current
  /// reading when no snapshot is live. Pruning a chain down to its newest
  /// version at-or-below the horizon keeps every version a live or future
  /// snapshot can read.
  uint64_t Horizon(const VersionClock& clock) const {
    std::lock_guard<std::mutex> g(mu_);
    if (active_.empty()) return clock.ReadTs();
    return active_.begin()->first;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, size_t> active_;  ///< ts -> number of pins
};

}  // namespace youtopia

#endif  // YOUTOPIA_STORAGE_MVCC_H_
