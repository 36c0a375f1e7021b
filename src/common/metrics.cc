#include "src/common/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

#include "src/common/clock.h"

namespace youtopia {

namespace metrics_internal {
std::atomic<bool> g_enabled{true};
}  // namespace metrics_internal

void set_metrics_enabled(bool on) {
  metrics_internal::g_enabled.store(on, std::memory_order_relaxed);
}

// --- Counter. ---------------------------------------------------------------

size_t Counter::StripeIndex() {
  // Threads pick up stripes round-robin on first use: consecutive worker
  // threads land on distinct cache lines without hashing thread ids.
  static std::atomic<size_t> next{0};
  thread_local const size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

// --- Histogram. -------------------------------------------------------------

int Histogram::BucketOf(int64_t value) {
  if (value <= 0) return 0;
  return std::bit_width(static_cast<uint64_t>(value));
}

void Histogram::BucketBounds(int b, uint64_t* lo, uint64_t* hi) {
  if (b <= 0) {
    *lo = 0;
    *hi = 1;
    return;
  }
  *lo = uint64_t{1} << (b - 1);
  *hi = b >= 63 ? ~uint64_t{0} : uint64_t{1} << b;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (int i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  for (int i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
}

double HistogramSnapshot::Quantile(double q) const {
  // Percentiles come from the bucket totals, not `count` (which can be
  // momentarily ahead of a racing Record's bucket bump).
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t next = seen + buckets[i];
    if (static_cast<double>(next) >= rank) {
      uint64_t lo = 0, hi = 0;
      Histogram::BucketBounds(i, &lo, &hi);
      // Linear interpolation inside the covering power-of-two bucket.
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[i]);
      return static_cast<double>(lo) +
             frac * static_cast<double>(hi - lo);
    }
    seen = next;
  }
  uint64_t lo = 0, hi = 0;
  Histogram::BucketBounds(kBuckets - 1, &lo, &hi);
  return static_cast<double>(hi);
}

// --- Thread-local attribution + trace context. ------------------------------

ThreadOpStats& CurrentThreadOpStats() {
  thread_local ThreadOpStats stats;
  return stats;
}

TraceContext& CurrentTraceContext() {
  thread_local TraceContext ctx;
  return ctx;
}

// --- Tracer. ----------------------------------------------------------------

Tracer* Tracer::Global() {
  static Tracer* t = new Tracer();  // leaked: outlives static destructors
  return t;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> g(mu_);
  if (ring_.size() < kCapacity) {
    ring_.push_back(std::move(span));
    return;
  }
  ring_[next_] = std::move(span);
  next_ = (next_ + 1) % kCapacity;
}

std::vector<Tracer::Span> Tracer::Trace(uint64_t trace_id) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> g(mu_);
  for (const Span& s : ring_) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.span_id < b.span_id;
  });
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> g(mu_);
  ring_.clear();
  next_ = 0;
}

ScopedTraceSpan::ScopedTraceSpan(const char* name, uint64_t force_trace_id) {
  if (!metrics_enabled()) return;
  TraceContext& ctx = CurrentTraceContext();
  if (ctx.trace_id == 0 && force_trace_id == 0) return;
  Tracer* tracer = Tracer::Global();
  active_ = true;
  name_ = name;
  saved_ = ctx;
  trace_id_ = ctx.trace_id != 0 ? ctx.trace_id : force_trace_id;
  parent_id_ = ctx.trace_id != 0 ? ctx.span_id : 0;
  span_id_ = tracer->NewSpanId();
  start_micros_ = SystemClock::Default()->NowMicros();
  ctx.trace_id = trace_id_;
  ctx.span_id = span_id_;
}

ScopedTraceSpan::~ScopedTraceSpan() {
  if (!active_) return;
  Tracer::Span span;
  span.trace_id = trace_id_;
  span.span_id = span_id_;
  span.parent_id = parent_id_;
  span.name = name_;
  span.start_micros = start_micros_;
  span.duration_micros = SystemClock::Default()->NowMicros() - start_micros_;
  Tracer::Global()->Record(std::move(span));
  CurrentTraceContext() = saved_;
}

// --- SlowQueryLog. ----------------------------------------------------------

SlowQueryLog* SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();  // leaked on purpose
  return log;
}

void SlowQueryLog::set_capacity(size_t n) {
  std::lock_guard<std::mutex> g(mu_);
  capacity_ = n == 0 ? 1 : n;
  while (entries_.size() > capacity_) {
    auto min_it = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) {
          return a.total_micros < b.total_micros;
        });
    entries_.erase(min_it);
  }
  int64_t floor = 0;
  if (entries_.size() >= capacity_) {
    for (const Entry& e : entries_) {
      floor = floor == 0 ? e.total_micros
                         : std::min(floor, e.total_micros);
    }
  }
  floor_.store(floor, std::memory_order_relaxed);
}

void SlowQueryLog::Record(Entry e) {
  if (e.total_micros < threshold_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> g(mu_);
  if (entries_.size() < capacity_) {
    entries_.push_back(std::move(e));
  } else {
    auto min_it = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) {
          return a.total_micros < b.total_micros;
        });
    if (min_it->total_micros >= e.total_micros) return;
    *min_it = std::move(e);
  }
  if (entries_.size() >= capacity_) {
    int64_t floor = entries_.front().total_micros;
    for (const Entry& it : entries_) {
      floor = std::min(floor, it.total_micros);
    }
    floor_.store(floor, std::memory_order_relaxed);
  }
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Snapshot() const {
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> g(mu_);
    out = entries_;
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.total_micros > b.total_micros;
  });
  return out;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> g(mu_);
  entries_.clear();
  floor_.store(0, std::memory_order_relaxed);
}

// --- MetricsRegistry. -------------------------------------------------------

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* r = new MetricsRegistry();  // leaked on purpose
  return r;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

HistogramSnapshot MetricsRegistry::MergedHistogram(
    std::string_view prefix) const {
  HistogramSnapshot merged;
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& [name, h] : histograms_) {
    if (name.size() >= prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      merged.Merge(h->snapshot());
    }
  }
  return merged;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::Counters()
    const {
  std::vector<std::pair<std::string, uint64_t>> out;
  std::lock_guard<std::mutex> g(mu_);
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::Gauges() const {
  std::vector<std::pair<std::string, int64_t>> out;
  std::lock_guard<std::mutex> g(mu_);
  out.reserve(gauges_.size());
  for (const auto& [name, ga] : gauges_) out.emplace_back(name, ga->value());
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricsRegistry::Histograms() const {
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  std::lock_guard<std::mutex> g(mu_);
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name, h->snapshot());
  }
  return out;
}

std::string MetricsRegistry::DumpText() const {
  std::string out;
  char line[256];
  for (const auto& [name, value] : Counters()) {
    std::snprintf(line, sizeof(line), "%s %" PRIu64 "\n", name.c_str(),
                  value);
    out += line;
  }
  for (const auto& [name, value] : Gauges()) {
    std::snprintf(line, sizeof(line), "%s %" PRId64 "\n", name.c_str(),
                  value);
    out += line;
  }
  for (const auto& [name, snap] : Histograms()) {
    std::snprintf(line, sizeof(line),
                  "%s count=%" PRIu64 " sum=%" PRIu64
                  " p50=%.1f p95=%.1f p99=%.1f\n",
                  name.c_str(), snap.count, snap.sum, snap.p50(), snap.p95(),
                  snap.p99());
    out += line;
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& [name, c] : counters_) c->Reset();
    for (auto& [name, ga] : gauges_) {
      ga->Set(0);
    }
    for (auto& [name, h] : histograms_) h->Reset();
  }
  Tracer::Global()->Clear();
  SlowQueryLog::Global()->Clear();
}

// --- LatencyTimer. ----------------------------------------------------------

LatencyTimer::LatencyTimer(Histogram* h)
    : h_(metrics_enabled() ? h : nullptr) {
  if (h_ != nullptr) start_ = SystemClock::Default()->NowMicros();
}

int64_t LatencyTimer::Finish() {
  const int64_t elapsed = SystemClock::Default()->NowMicros() - start_;
  h_->Record(elapsed);
  return elapsed;
}

}  // namespace youtopia
