#ifndef YOUTOPIA_COMMON_METRICS_H_
#define YOUTOPIA_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace youtopia {

// --- Global ablation switch. -----------------------------------------------
//
// Every instrumentation site in the engine gates on this one relaxed load:
// with metrics off, the hot paths pay a load+branch and nothing else (no
// clock reads, no atomics, no allocations). Benches prove the enabled
// overhead stays <= 5% by flipping it.

namespace metrics_internal {
extern std::atomic<bool> g_enabled;
}  // namespace metrics_internal

inline bool metrics_enabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on);

// --- Counter: lock-striped monotonic count. --------------------------------

/// Monotonic counter striped across cache lines so concurrent bumpers from
/// different threads don't ping-pong one line. Reads sum the stripes (racy
/// but monotone — fine for observability).
class Counter {
 public:
  static constexpr size_t kStripes = 16;

  void Add(uint64_t n = 1) {
    stripes_[StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  static size_t StripeIndex();
  Stripe stripes_[kStripes];
};

// --- Gauge: a point-in-time signed level. ----------------------------------

class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// --- Histogram: log-bucketed latency distribution. -------------------------

/// Immutable copy of a histogram's state. Mergeable: per-shard snapshots
/// added together are exactly the snapshot of the combined stream (bucket
/// counts are order-independent), so cross-shard percentiles come from one
/// merged snapshot.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;
  uint64_t count = 0;
  uint64_t sum = 0;  ///< sum of recorded values (micros)
  std::array<uint64_t, kBuckets> buckets{};

  void Merge(const HistogramSnapshot& other);
  /// Estimated value at quantile q in [0,1] by linear interpolation inside
  /// the covering power-of-two bucket. 0 when empty.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Lock-free log-bucketed histogram: bucket i counts values whose bit width
/// is i (i.e. v in [2^(i-1), 2^i)), bucket 0 counts zero/negative. Record is
/// three relaxed fetch_adds; snapshots are racy-but-consistent-enough reads.
class Histogram {
 public:
  void Record(int64_t value) {
    const int b = BucketOf(value);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value > 0 ? static_cast<uint64_t>(value) : 0,
                   std::memory_order_relaxed);
  }
  HistogramSnapshot snapshot() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

  static int BucketOf(int64_t value);
  /// Inclusive-exclusive value range [lo, hi) a bucket covers.
  static void BucketBounds(int b, uint64_t* lo, uint64_t* hi);

 private:
  std::atomic<uint64_t> buckets_[HistogramSnapshot::kBuckets]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// --- Per-thread statement attribution. -------------------------------------

/// Monotonic per-thread accumulators the blocking layers bump (lock waits,
/// flush waits). A statement snapshots them on entry and reads the delta on
/// exit to attribute where its latency went. Monotonic on purpose: a delta
/// never resets what another snapshot on the same thread will read.
struct ThreadOpStats {
  int64_t lock_wait_micros = 0;
  int64_t flush_wait_micros = 0;
};
ThreadOpStats& CurrentThreadOpStats();

// --- Tracing. ---------------------------------------------------------------

/// Thread-local trace context: the active trace and the span new child spans
/// parent under. Propagated down the synchronous call chain (statement ->
/// commit -> 2PC phases -> per-branch prepare -> WAL append); save/restore
/// via ScopedTraceSpan.
struct TraceContext {
  uint64_t trace_id = 0;  ///< 0 = not tracing
  uint64_t span_id = 0;   ///< parent for new spans
};
TraceContext& CurrentTraceContext();

/// Ring buffer of finished spans. Span ids are process-unique; a trace is
/// the set of spans sharing one trace id, reassembled by parent links.
class Tracer {
 public:
  struct Span {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;  ///< 0 = root
    std::string name;
    int64_t start_micros = 0;
    int64_t duration_micros = 0;
  };

  static Tracer* Global();

  uint64_t NewTraceId() {
    return next_trace_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NewSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  void Record(Span span);
  /// All retained spans of `trace_id`, oldest first.
  std::vector<Span> Trace(uint64_t trace_id) const;
  void Clear();

  /// Statement-level traces are sampled (1 in N) so the per-statement hot
  /// path doesn't pay ring+string costs every time; commit-path traces are
  /// unsampled. The sequence is per-thread — a shared counter would put one
  /// contended cache line in every Begin — so each thread samples its own
  /// 1st, N+1th, ... draw.
  void set_sample_every(uint64_t n) {
    sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  bool ShouldSample() {
    static thread_local uint64_t seq = 0;
    const uint64_t n = sample_every_.load(std::memory_order_relaxed);
    return seq++ % n == 0;
  }

 private:
  static constexpr size_t kCapacity = 4096;
  mutable std::mutex mu_;
  std::vector<Span> ring_;
  size_t next_ = 0;  ///< ring write position once full
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint64_t> next_span_{1};
  std::atomic<uint64_t> sample_every_{64};
};

/// RAII span: on construction (when metrics are on AND a trace is active —
/// or `force_trace_id` != 0 starts/continues one explicitly) pushes itself
/// as the thread's current span; on destruction records the finished span
/// and restores the previous context. No-op otherwise: one branch.
class ScopedTraceSpan {
 public:
  explicit ScopedTraceSpan(const char* name, uint64_t force_trace_id = 0);
  ~ScopedTraceSpan();

  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

  bool active() const { return active_; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  int64_t start_micros_ = 0;
  TraceContext saved_{};
};

// --- Slow-query log. --------------------------------------------------------

/// Bounded log of the N slowest statements seen (at or above the threshold):
/// a new entry evicts the current fastest once full. Snapshot returns
/// slowest-first.
class SlowQueryLog {
 public:
  struct Entry {
    std::string sql;
    int64_t total_micros = 0;
    int64_t lock_wait_micros = 0;
    int64_t flush_wait_micros = 0;
    uint64_t trace_id = 0;
    int64_t when_micros = 0;  ///< wall-ish timestamp of completion
  };

  static SlowQueryLog* Global();

  void set_threshold_micros(int64_t t) {
    threshold_.store(t, std::memory_order_relaxed);
  }
  int64_t threshold_micros() const {
    return threshold_.load(std::memory_order_relaxed);
  }
  void set_capacity(size_t n);

  /// Cheap pre-check so callers can skip building an Entry (and copying the
  /// SQL text) for statements that can't possibly be admitted.
  bool WouldAdmit(int64_t total_micros) const {
    if (total_micros < threshold_.load(std::memory_order_relaxed)) {
      return false;
    }
    return total_micros >= floor_.load(std::memory_order_relaxed);
  }
  void Record(Entry e);
  std::vector<Entry> Snapshot() const;
  void Clear();

 private:
  /// Default 10ms: fast statements must not pay the log's mutex + SQL text
  /// copy. set_slow_query_micros(0) opts into logging everything.
  std::atomic<int64_t> threshold_{10'000};
  /// Admission floor: the slowest log's current minimum once full (0 while
  /// it still has room). Kept redundantly so WouldAdmit needs no lock.
  std::atomic<int64_t> floor_{0};
  mutable std::mutex mu_;
  size_t capacity_ = 32;
  std::vector<Entry> entries_;
};

inline void set_slow_query_micros(int64_t micros) {
  SlowQueryLog::Global()->set_threshold_micros(micros);
}

// --- Registry. --------------------------------------------------------------

/// Process-global name -> metric registry. Lookup takes a mutex and is meant
/// for registration: call sites resolve their handles ONCE (static local or
/// member) and bump through the pointer — pointers are stable for process
/// lifetime. DumpText renders every metric in a flat `name value` text
/// exposition (histograms expand to count/sum/p50/p95/p99 lines).
class MetricsRegistry {
 public:
  static MetricsRegistry* Global();

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Merged snapshot of every histogram whose name starts with `prefix`
  /// (cross-shard merge: per-shard histograms share a prefix).
  HistogramSnapshot MergedHistogram(std::string_view prefix) const;

  std::string DumpText() const;
  /// Zeroes every counter/gauge/histogram and clears the tracer + slow-query
  /// log. For bench/test isolation; names stay registered.
  void ResetAll();

  /// Name-sorted listings for SHOW METRICS.
  std::vector<std::pair<std::string, uint64_t>> Counters() const;
  std::vector<std::pair<std::string, int64_t>> Gauges() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> Histograms() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// --- Latency timer. ---------------------------------------------------------

/// RAII latency recorder: reads the clock only when metrics are on; records
/// into `h` on destruction (or StopAndRecord for an explicit elapsed value).
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram* h);
  ~LatencyTimer() {
    if (h_ != nullptr) Finish();
  }

  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

  bool active() const { return h_ != nullptr; }
  /// Records now and disarms; returns elapsed micros (0 when inactive).
  int64_t StopAndRecord() {
    if (h_ == nullptr) return 0;
    int64_t e = Finish();
    h_ = nullptr;
    return e;
  }

 private:
  int64_t Finish();
  Histogram* h_;
  int64_t start_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_COMMON_METRICS_H_
