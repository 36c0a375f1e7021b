#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/txn/txn_engine.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;  ///< working directory for WALs and trace files
};

/// Monotonic clock in nanoseconds (steady_clock).
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact percentile (nearest rank on a sorted copy) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();

/// Total bytes of regular files under `dir` (recursive).
uint64_t DirBytes(const std::string& dir);

/// Snapshot of the process-global metrics registry. Differences of two
/// snapshots are bucket-exact for histograms, so a delta covers exactly the
/// window between them no matter what ran in the process before.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();
  /// Counter delta `this - base` (0 when the name is unknown).
  uint64_t CounterDelta(const RegistrySnapshot& base,
                        const std::string& name) const;
  /// Histogram delta over every histogram whose name starts with `prefix`.
  youtopia::HistogramSnapshot HistogramDelta(const RegistrySnapshot& base,
                                             const std::string& prefix) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::vector<std::pair<std::string, youtopia::HistogramSnapshot>> histograms_;
};

/// One named metric in the run's report.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload pass produced: client-side counts and samples, the
/// end-to-end metrics, the per-layer metrics and free-form notes printed to
/// the human-readable report.
struct PassResult {
  bool correct = true;
  std::vector<std::string> check_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void Fail(std::string why) {
    correct = false;
    check_failures.push_back(std::move(why));
  }
  void Add(std::vector<Metric>* to, std::string name, double value,
           std::string unit) {
    to->push_back(Metric{std::move(name), value, std::move(unit)});
  }
  double Get(const std::string& name) const;
};

/// The timed window runs as this many back-to-back segments of equal
/// operation count, each on freshly started engine or server threads; every
/// time-based end-to-end metric is the median of its per-segment values, so
/// interference during one segment (or an unlucky thread placement) does
/// not move the result.
inline constexpr int kSegments = 9;

/// One span of the timed window: its wall-clock bounds and the
/// (submit_ns, done_ns) times of the transactions committed in it.
struct Segment {
  int64_t t0_ns = 0;
  int64_t t1_ns = 0;
  std::vector<std::pair<int64_t, int64_t>> txns;
};

/// The timed operation count for `seconds` at `per_second` operations per
/// requested second, raised so every segment holds at least 1000
/// transactions (10 samples beyond its p99).
inline uint64_t TimedOps(uint64_t per_second, int seconds) {
  return std::max<uint64_t>(per_second * static_cast<uint64_t>(seconds),
                            1000 * kSegments);
}

/// txn_per_s, latency_p50_ms and latency_p99_ms: each the median over the
/// segments of the segment's own value. Notes the sample counts.
void AddLatencyMetrics(PassResult* r, const std::vector<Segment>& segments);

/// Fresh empty directory `path` (removes what was there).
void ResetDir(const std::string& path);
void RemoveDir(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
