#include "src/lock/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_set>

#include "src/common/clock.h"
#include "src/common/fault.h"
#include "src/common/metrics.h"

namespace youtopia {

namespace {

/// Registry handles resolved once: the acquire paths bump through raw
/// pointers, never through the name map.
struct LockMetricHandles {
  Histogram* wait_micros;
  Counter* waits;
  Counter* deadlocks;
  Counter* timeouts;
};

const LockMetricHandles& LockMetrics() {
  static const LockMetricHandles h = [] {
    MetricsRegistry* r = MetricsRegistry::Global();
    return LockMetricHandles{r->histogram("lock.wait_micros"),
                             r->counter("lock.waits"),
                             r->counter("lock.deadlocks"),
                             r->counter("lock.timeouts")};
  }();
  return h;
}

/// Measures one acquire's total blocked time. Declared BEFORE the manager
/// mutex is taken so the destructor (clock read, histogram record, possible
/// trace span) runs after it is released. OnFirstWait arms it from inside
/// the wait loop; nothing is recorded for the uncontended fast path.
class LockWaitRecorder {
 public:
  ~LockWaitRecorder() {
    if (start_ < 0) return;
    const int64_t waited = SystemClock::Default()->NowMicros() - start_;
    CurrentThreadOpStats().lock_wait_micros += waited;
    LockMetrics().wait_micros->Record(waited);
    LockMetrics().waits->Add();
    TraceContext& ctx = CurrentTraceContext();
    if (ctx.trace_id != 0) {
      Tracer::Span span;
      span.trace_id = ctx.trace_id;
      span.parent_id = ctx.span_id;
      span.span_id = Tracer::Global()->NewSpanId();
      span.name = "lock.wait";
      span.start_micros = start_;
      span.duration_micros = waited;
      Tracer::Global()->Record(std::move(span));
    }
  }
  void OnFirstWait() {
    if (metrics_enabled()) start_ = SystemClock::Default()->NowMicros();
  }

 private:
  int64_t start_ = -1;
};

/// Probes the "lock.acquire" fault site (spurious timeout injection —
/// torture runs prove callers survive lock waits that fail for no real
/// reason). Returns non-Ok when a fault fires.
Status ProbeAcquireFault(LockStats* stats) {
  FaultInjector* fi = FaultInjector::Global();
  if (!fi->enabled()) return Status::Ok();
  Status s = fi->Hit("lock.acquire");
  if (s.code() == StatusCode::kTimedOut) {
    stats->timeouts.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

/// The interval every point and index-key request carries.
constinit const IndexRange kWholeKey{};

}  // namespace

bool LockManager::Request::WaitsFor(const Request& o) const {
  if (o.txn == txn) return false;
  if (!o.granted && (granted || o.seq > seq)) return false;
  return !Compatible(o.granted ? o.held : o.wanted, wanted) &&
         o.range.Overlaps(range);
}

Status LockManager::Acquire(TxnId txn, LockKey key, LockMode mode,
                            int64_t timeout_micros) {
  Seat seat{.key = key, .range = &kWholeKey};
  return AcquireSeats(txn, {&seat, 1}, mode, timeout_micros);
}

Status LockManager::AcquireBatch(TxnId txn, const std::vector<LockKey>& keys,
                                 LockMode mode, int64_t timeout_micros) {
  if (keys.empty()) return Status::Ok();
  // A one-row statement is common: keep it off the dedup set and the heap.
  if (keys.size() == 1) return Acquire(txn, keys[0], mode, timeout_micros);
  // Duplicate keys collapse to their first seat.
  std::unordered_set<LockKey, LockKeyHash> seen;
  std::vector<Seat> seats;
  seats.reserve(keys.size());
  for (const LockKey& key : keys) {
    if (seen.insert(key).second) {
      seats.push_back(Seat{.key = key, .range = &kWholeKey});
    }
  }
  return AcquireSeats(txn, seats, mode, timeout_micros);
}

Status LockManager::AcquireRange(TxnId txn, RangeSpaceKey space,
                                 const IndexRange& range, LockMode mode,
                                 int64_t timeout_micros) {
  Seat seat{.space = &space, .range = &range};
  return AcquireSeats(txn, {&seat, 1}, mode, timeout_micros);
}

Status LockManager::AcquireSeats(TxnId txn, std::span<Seat> seats,
                                 LockMode mode, int64_t timeout_micros) {
  YT_RETURN_IF_ERROR(ProbeAcquireFault(&stats_));
  LockWaitRecorder wait_recorder;
  std::unique_lock<std::mutex> g(mu_);

  // Enqueue every seat (FIFO seats in order) or merge it into this
  // transaction's request on the same target; a request already covering
  // `mode` is a re-entrant hit and leaves the call.
  const uint64_t first_seq = next_seq_;
  size_t live = 0;
  for (Seat& s : seats) {
    Queue& q = s.space != nullptr ? ranges_[*s.space] : keys_[s.key];
    Request* mine = FindRequest(q, txn, *s.range);
    if (mine == nullptr) {
      q.push_back(Request{.txn = txn,
                          .held = mode,
                          .wanted = mode,
                          .seq = next_seq_++,
                          .range = *s.range});
      mine = &q.back();
    } else if (mine->granted && Covers(mine->held, mode)) {
      continue;
    } else {
      mine->wanted = Join(mine->granted ? mine->held : mine->wanted, mode);
    }
    GrantLocked(q);
    s.req = mine;
    seats[live++] = s;
  }
  seats = seats.first(live);

  auto all_granted = [&] {
    return std::all_of(seats.begin(), seats.end(),
                       [](const Seat& s) { return s.req->fully_granted(); });
  };
  bool waited = false;
  std::chrono::steady_clock::time_point deadline;
  while (!all_granted()) {
    if (!waited) {
      waited = true;
      stats_.waits.fetch_add(1, std::memory_order_relaxed);
      wait_recorder.OnFirstWait();
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::microseconds(timeout_micros < 0 ? int64_t{1} << 40
                                                              : timeout_micros);
    }
    if (DeadlockedLocked(txn)) {
      stats_.deadlocks.fetch_add(1, std::memory_order_relaxed);
      if (metrics_enabled()) LockMetrics().deadlocks->Add();
      return FailLocked(txn, seats, first_seq,
                        Status::Aborted("deadlock detected; transaction " +
                                        std::to_string(txn) +
                                        " chosen as victim"));
    }
    const bool timed_out =
        cv_.wait_until(g, deadline) == std::cv_status::timeout;
    // mu_ was released: queues may have moved under the seats.
    bool vanished = false;
    for (Seat& s : seats) vanished |= !FindSeatLocked(txn, &s);
    if (vanished) {
      return FailLocked(txn, seats, first_seq,
                        Status::Internal("lock request vanished while waiting"));
    }
    if (timed_out && !all_granted()) {  // not granted exactly at the deadline
      stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
      if (metrics_enabled()) LockMetrics().timeouts->Add();
      const TableId table =
          seats[0].space != nullptr ? seats[0].space->table : seats[0].key.table;
      return FailLocked(
          txn, seats, first_seq,
          Status::TimedOut("lock wait timeout on table " +
                           std::to_string(table)));
    }
  }
  RecordGrantedLocked(txn, seats, first_seq);
  return Status::Ok();
}

LockManager::Request* LockManager::FindRequest(Queue& q, TxnId txn,
                                               const IndexRange& range) {
  for (Request& r : q) {
    if (r.txn == txn && r.range == range) return &r;
  }
  return nullptr;
}

bool LockManager::FindSeatLocked(TxnId txn, Seat* s) {
  s->req = nullptr;
  if (s->space != nullptr) {
    auto it = ranges_.find(*s->space);
    if (it != ranges_.end()) s->req = FindRequest(it->second, txn, *s->range);
  } else {
    auto it = keys_.find(s->key);
    if (it != keys_.end()) s->req = FindRequest(it->second, txn, *s->range);
  }
  return s->req != nullptr;
}

Status LockManager::FailLocked(TxnId txn, std::span<Seat> seats,
                               uint64_t first_seq, Status why) {
  for (Seat& s : seats) {
    if (s.req == nullptr || s.req->fully_granted()) continue;
    const bool upgrade = s.req->granted;
    s.req->wanted = s.req->held;
    s.req = nullptr;  // nothing acquired on this seat
    if (upgrade) continue;  // a reverted upgrade unblocks nobody
    auto waiting = [&](const Request& r) {
      return !r.granted && r.range == *s.range;
    };
    if (s.space != nullptr) {
      ReleaseLocked(ranges_, *s.space, txn, waiting);
    } else {
      ReleaseLocked(keys_, s.key, txn, waiting);
    }
  }
  RecordGrantedLocked(txn, seats, first_seq);
  return why;
}

void LockManager::RecordGrantedLocked(TxnId txn, std::span<const Seat> seats,
                                      uint64_t first_seq) {
  for (const Seat& s : seats) {
    if (s.req == nullptr || !s.req->granted) continue;
    stats_.acquisitions.fetch_add(1, std::memory_order_relaxed);
    // Requests from earlier calls were registered when first granted.
    if (s.req->seq < first_seq) continue;
    if (s.space == nullptr) {
      held_[txn].push_back(s.key);
    } else {
      auto& spaces = held_ranges_[txn];
      if (std::find(spaces.begin(), spaces.end(), *s.space) == spaces.end()) {
        spaces.push_back(*s.space);
      }
    }
  }
}

void LockManager::GrantLocked(Queue& q) {
  auto blocked = [&q](const Request& r) {
    return std::any_of(q.begin(), q.end(),
                       [&r](const Request& o) { return r.WaitsFor(o); });
  };
  bool any = false;
  // Pending upgrades first: they wait only for granted requests.
  for (Request& r : q) {
    if (r.granted && r.held != r.wanted && !blocked(r)) {
      r.held = r.wanted;
      any = true;
    }
  }
  // Then fresh requests in arrival order, each seeing the grants before it.
  for (Request& r : q) {
    if (!r.granted && !blocked(r)) {
      r.granted = true;
      r.held = r.wanted;
      any = true;
    }
  }
  if (any) cv_.notify_all();
}

bool LockManager::DeadlockedLocked(TxnId txn) const {
  // Waits-for graph over both queue maps, edges from WaitsFor.
  std::unordered_map<TxnId, std::set<TxnId>> graph;
  auto collect = [&graph](const auto& queues) {
    for (const auto& [target, q] : queues) {
      for (const Request& r : q) {
        if (r.fully_granted()) continue;
        for (const Request& o : q) {
          if (r.WaitsFor(o)) graph[r.txn].insert(o.txn);
        }
      }
    }
  };
  collect(keys_);
  collect(ranges_);
  // DFS from txn looking for a cycle back to txn.
  std::vector<TxnId> stack;
  std::set<TxnId> visited;
  auto it = graph.find(txn);
  if (it == graph.end()) return false;
  for (TxnId n : it->second) stack.push_back(n);
  while (!stack.empty()) {
    TxnId cur = stack.back();
    stack.pop_back();
    if (cur == txn) return true;
    if (!visited.insert(cur).second) continue;
    auto cit = graph.find(cur);
    if (cit == graph.end()) continue;
    for (TxnId n : cit->second) stack.push_back(n);
  }
  return false;
}

template <typename Queues, typename Pred>
bool LockManager::ReleaseLocked(Queues& queues,
                                const typename Queues::key_type& target,
                                TxnId txn, Pred pred) {
  auto it = queues.find(target);
  if (it == queues.end()) return false;
  Queue& q = it->second;
  std::erase_if(q, [&](const Request& r) { return r.txn == txn && pred(r); });
  GrantLocked(q);
  if (q.empty()) {
    queues.erase(it);
    return false;
  }
  return std::any_of(q.begin(), q.end(),
                     [txn](const Request& r) { return r.txn == txn; });
}

template <typename Queues, typename Held, typename Pred>
void LockManager::ReleaseHeldLocked(Queues& queues, Held& held, TxnId txn,
                                    Pred pred) {
  auto hit = held.find(txn);
  if (hit == held.end()) return;
  std::erase_if(hit->second, [&](const auto& target) {
    return !ReleaseLocked(queues, target, txn, pred);
  });
  if (hit->second.empty()) held.erase(hit);
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> g(mu_);
  auto all = [](const Request&) { return true; };
  ReleaseHeldLocked(keys_, held_, txn, all);
  ReleaseHeldLocked(ranges_, held_ranges_, txn, all);
}

void LockManager::ReleaseSharedLocks(TxnId txn) {
  std::lock_guard<std::mutex> g(mu_);
  auto shared = [](const Request& r) { return r.granted_shared(); };
  ReleaseHeldLocked(keys_, held_, txn, shared);
  ReleaseHeldLocked(ranges_, held_ranges_, txn, shared);
}

void LockManager::ReleaseKey(TxnId txn, LockKey key) {
  std::lock_guard<std::mutex> g(mu_);
  ReleaseLocked(keys_, key, txn, [](const Request&) { return true; });
  auto hit = held_.find(txn);
  if (hit != held_.end()) std::erase(hit->second, key);
}

void LockManager::ReleaseSharedRange(TxnId txn, RangeSpaceKey space,
                                     const IndexRange& range) {
  std::lock_guard<std::mutex> g(mu_);
  ReleaseLocked(ranges_, space, txn, [&](const Request& r) {
    return r.range == range && r.granted_shared();
  });
}

bool LockManager::Holds(TxnId txn, LockKey key, LockMode mode) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return false;
  for (const Request& r : it->second) {
    if (r.txn == txn && r.granted && Covers(r.held, mode)) return true;
  }
  return false;
}

size_t LockManager::HeldCount(TxnId txn) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = held_.find(txn);
  return it == held_.end() ? 0 : it->second.size();
}

bool LockManager::HoldsRange(TxnId txn, RangeSpaceKey space,
                             const IndexRange& range, LockMode mode) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = ranges_.find(space);
  if (it == ranges_.end()) return false;
  for (const Request& r : it->second) {
    if (r.txn == txn && r.range == range && r.granted &&
        Covers(r.held, mode)) {
      return true;
    }
  }
  return false;
}

size_t LockManager::HeldRangeCount(TxnId txn) const {
  std::lock_guard<std::mutex> g(mu_);
  size_t n = 0;
  auto hit = held_ranges_.find(txn);
  if (hit == held_ranges_.end()) return 0;
  for (const RangeSpaceKey& space : hit->second) {
    auto it = ranges_.find(space);
    if (it == ranges_.end()) continue;
    for (const Request& r : it->second) {
      if (r.txn == txn && r.granted) ++n;
    }
  }
  return n;
}

}  // namespace youtopia
