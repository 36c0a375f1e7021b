#ifndef YOUTOPIA_LOCK_LOCK_MANAGER_H_
#define YOUTOPIA_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/lock/lock_mode.h"
#include "src/storage/table.h"

namespace youtopia {

/// Lock target: a whole table (row == kWholeTable), a single row, or an
/// index key. Index-key locks implement equality-predicate (phantom)
/// protection for indexed access paths: readers of `col = k` take S on the
/// key's hash, writers inserting/removing/moving a row under key `k` take X
/// on it, so an indexed equality read is repeatable without a table S lock.
/// They live in a disjoint namespace carved out of the row space by setting
/// the top bit (heap RowIds are allocated sequentially from 1 and can never
/// reach 2^63).
struct LockKey {
  TableId table = 0;
  RowId row = kWholeTable;

  static constexpr RowId kWholeTable = 0;
  static constexpr RowId kIndexKeyBit = 1ull << 63;

  static LockKey Table(TableId t) { return {t, kWholeTable}; }
  static LockKey RowOf(TableId t, RowId r) { return {t, r}; }
  static LockKey IndexKey(TableId t, uint64_t key_hash) {
    return {t, key_hash | kIndexKeyBit};
  }

  bool is_table() const { return row == kWholeTable; }
  bool operator==(const LockKey& o) const {
    return table == o.table && row == o.row;
  }
};

struct LockKeyHash {
  size_t operator()(const LockKey& k) const {
    return std::hash<uint64_t>{}((static_cast<uint64_t>(k.table) << 40) ^
                                 k.row);
  }
};

/// Names one ordered index's key space for key-range locking: the table
/// plus Table::IndexColumnsHash of the index's column set. Range locks in
/// different spaces never conflict.
struct RangeSpaceKey {
  TableId table = 0;
  uint64_t index_id = 0;

  bool operator==(const RangeSpaceKey& o) const {
    return table == o.table && index_id == o.index_id;
  }
};

struct RangeSpaceKeyHash {
  size_t operator()(const RangeSpaceKey& k) const {
    return std::hash<uint64_t>{}((static_cast<uint64_t>(k.table) << 40) ^
                                 k.index_id);
  }
};

/// Counters exposed for the lock-manager ablation bench. Point and range
/// locks count together: `acquisitions` is one per granted target of a
/// successful (or partially granted) acquire, re-entrant hits excluded.
struct LockStats {
  std::atomic<uint64_t> acquisitions{0};
  std::atomic<uint64_t> waits{0};
  std::atomic<uint64_t> deadlocks{0};
  std::atomic<uint64_t> timeouts{0};
};

/// Centralized Strict-2PL lock manager.
///
/// * One FIFO queue per lock target: a point/index key, or an ordered
///   index's key space (RangeSpaceKey) whose requests each carry an
///   interval. Point and index-key requests always overlap each other;
///   range requests overlap when their intervals do.
/// * Two requests *conflict* when they belong to different transactions,
///   their modes are incompatible and their targets overlap. One grant rule
///   covers both families: a pending upgrade is granted once it conflicts
///   with no granted request (upgrades jump the queue, the standard
///   anti-starvation exception); a fresh request is granted once it
///   conflicts with no granted request and no earlier waiter. A later
///   request compatible with every waiter ahead of it passes them.
/// * Mode upgrades merge into a single request per (txn, target) whose mode
///   is the lattice join of everything the transaction asked for.
/// * Deadlocks are detected by the blocking thread via a waits-for graph
///   whose edges are exactly the conflicts the grant rule waits on; the
///   *requesting* transaction is the victim and gets kAborted("deadlock").
/// * Lock waits also honor a timeout (kTimedOut) so entangled runs can bound
///   blocking, per §4 of the paper.
///
/// A transaction issues one acquire at a time: outside an acquire call,
/// every request it has is fully granted.
class LockManager {
 public:
  LockManager() = default;

  /// Acquires (or upgrades to) `mode` on `key` for `txn`. Blocks up to
  /// `timeout_micros` (<0 means wait forever).
  Status Acquire(TxnId txn, LockKey key, LockMode mode, int64_t timeout_micros);

  /// Acquires (or upgrades to) `mode` on every key in `keys` for `txn` in
  /// one mutex round: all requests enqueue together (FIFO seats assigned in
  /// `keys` order), then one wait loop blocks until ALL are fully granted.
  /// Semantically equivalent to acquiring each key in order — including on
  /// failure: a deadlock/timeout victim drops its still-waiting requests,
  /// but keys already granted stay held (recorded for ReleaseAll), exactly
  /// the partial-hold state a sequential loop leaves when key k fails.
  /// Duplicate keys are acquired once. One "lock.acquire" fault probe per
  /// non-empty call (per statement, not per row).
  Status AcquireBatch(TxnId txn, const std::vector<LockKey>& keys,
                      LockMode mode, int64_t timeout_micros);

  /// Releases every lock held by `txn` (commit/abort under Strict 2PL).
  void ReleaseAll(TxnId txn);

  /// Releases only S/IS locks held by `txn` — used by relaxed isolation
  /// levels that shorten read-lock duration (§3.3.3 / §4).
  void ReleaseSharedLocks(TxnId txn);

  /// Releases `txn`'s lock on one specific key (early read-lock release
  /// under kReadCommitted).
  void ReleaseKey(TxnId txn, LockKey key);

  /// True if `txn` currently holds a lock on `key` covering `mode`.
  bool Holds(TxnId txn, LockKey key, LockMode mode) const;

  /// Number of distinct keys locked by `txn`.
  size_t HeldCount(TxnId txn) const;

  // --- Key-range (gap + key) locks over ordered-index key spaces. ---
  //
  // A range read of a covered `<`/`<=`/`>`/`>=` predicate takes S on the
  // interval it scans; a writer takes X on IndexRange::Point(k) for every
  // ordered-index key it inserts, deletes, or moves. Two range locks
  // conflict only when their modes are incompatible AND their intervals
  // overlap, so writers outside a scanned interval never block its readers
  // — this replaces the table-S fallback (and its phantom story) for range
  // predicates. Range locks share the queue type, grant rule, waits-for
  // graph, deadlock detection and timeout machinery with point locks.

  /// Acquires (or upgrades, for an identical interval) `mode` on `range`
  /// within `space` for `txn`. Same-transaction range locks never conflict.
  Status AcquireRange(TxnId txn, RangeSpaceKey space, const IndexRange& range,
                      LockMode mode, int64_t timeout_micros);

  /// Releases `txn`'s *shared* range lock on exactly `range` (early
  /// read-lock release under kReadCommitted); X range locks are kept.
  void ReleaseSharedRange(TxnId txn, RangeSpaceKey space,
                          const IndexRange& range);

  /// True if `txn` holds a granted range lock on exactly `range` covering
  /// `mode`.
  bool HoldsRange(TxnId txn, RangeSpaceKey space, const IndexRange& range,
                  LockMode mode) const;

  /// Number of range-lock records held by `txn`.
  size_t HeldRangeCount(TxnId txn) const;

  LockStats& stats() { return stats_; }

 private:
  /// One transaction's request on one target. Point and index-key requests
  /// carry the whole key space (IndexRange::All()), so they overlap every
  /// request on their key.
  struct Request {
    TxnId txn;
    LockMode held;    // meaningful when granted
    LockMode wanted;  // == held when fully granted
    bool granted = false;
    uint64_t seq = 0;  // FIFO arrival order
    IndexRange range;

    bool fully_granted() const { return granted && held == wanted; }
    /// A fully granted S/IS lock: what relaxed isolation levels release
    /// early.
    bool granted_shared() const {
      return fully_granted() && (held == LockMode::kS || held == LockMode::kIS);
    }
    /// The one conflict relation, read by the grant rule and the waits-for
    /// graph alike: this waiting request waits for `o` when they belong to
    /// different transactions, their targets overlap, and `o` holds — or,
    /// as an earlier waiter, wants — a mode incompatible with `wanted`.
    /// Upgrades (granted requests) wait only for granted requests.
    bool WaitsFor(const Request& o) const;
  };
  /// A target's requests in arrival (seq) order: appends take a fresh seq
  /// and erasure keeps order.
  using Queue = std::vector<Request>;
  /// One target of an acquire call and, while mu_ is held, this
  /// transaction's request on it.
  struct Seat {
    LockKey key = {};                      // a point/index-key target, or
    const RangeSpaceKey* space = nullptr;  // a key-range target in *space
    const IndexRange* range = nullptr;     // the request's interval
    Request* req = nullptr;
  };

  /// The acquire core every entry point runs: one fault probe, enqueue or
  /// merge every seat, grant, then the one wait loop. Re-entrant seats are
  /// dropped from `seats` in place.
  Status AcquireSeats(TxnId txn, std::span<Seat> seats, LockMode mode,
                      int64_t timeout_micros);
  /// `txn`'s request on `range` in `q`, or nullptr.
  static Request* FindRequest(Queue& q, TxnId txn, const IndexRange& range);
  /// Re-finds `s.req` after mu_ was released; false if it vanished.
  bool FindSeatLocked(TxnId txn, Seat* s);
  /// Failure exit of the wait loop: drops still-waiting requests (reverts
  /// pending upgrades), records what was granted, returns `why`.
  Status FailLocked(TxnId txn, std::span<Seat> seats, uint64_t first_seq,
                    Status why);
  /// Counts granted seats and registers newly granted targets (seq at or
  /// after `first_seq`) for ReleaseAll.
  void RecordGrantedLocked(TxnId txn, std::span<const Seat> seats,
                           uint64_t first_seq);
  /// The one grant rule, applied to every request of `q`; wakes waiters
  /// when anything was granted.
  void GrantLocked(Queue& q);
  /// True if a waits-for cycle through `txn` exists.
  bool DeadlockedLocked(TxnId txn) const;
  /// Erases `txn`'s requests on `target` matching `pred`, re-grants the
  /// queue and drops it once empty. Returns whether `txn` still has a
  /// request there.
  template <typename Queues, typename Pred>
  bool ReleaseLocked(Queues& queues, const typename Queues::key_type& target,
                     TxnId txn, Pred pred);
  /// ReleaseLocked over every target `held` lists for `txn`, forgetting the
  /// targets left with no request of `txn`.
  template <typename Queues, typename Held, typename Pred>
  void ReleaseHeldLocked(Queues& queues, Held& held, TxnId txn, Pred pred);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<LockKey, Queue, LockKeyHash> keys_;
  std::unordered_map<TxnId, std::vector<LockKey>> held_;
  std::unordered_map<RangeSpaceKey, Queue, RangeSpaceKeyHash> ranges_;
  /// Spaces a transaction holds range locks in, deduplicated.
  std::unordered_map<TxnId, std::vector<RangeSpaceKey>> held_ranges_;
  uint64_t next_seq_ = 1;
  LockStats stats_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_LOCK_LOCK_MANAGER_H_
