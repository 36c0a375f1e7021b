#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot s;
  youtopia::MetricsRegistry* r = youtopia::MetricsRegistry::Global();
  for (auto& [name, v] : r->Counters()) s.counters_[name] = v;
  s.histograms_ = r->Histograms();
  return s;
}

uint64_t RegistrySnapshot::CounterDelta(const RegistrySnapshot& base,
                                        const std::string& name) const {
  auto it = counters_.find(name);
  if (it == counters_.end()) return 0;
  auto b = base.counters_.find(name);
  return it->second - (b == base.counters_.end() ? 0 : b->second);
}

youtopia::HistogramSnapshot RegistrySnapshot::HistogramDelta(
    const RegistrySnapshot& base, const std::string& prefix) const {
  auto merged = [&prefix](const RegistrySnapshot& s) {
    youtopia::HistogramSnapshot out;
    for (const auto& [name, h] : s.histograms_) {
      if (name.rfind(prefix, 0) == 0) out.Merge(h);
    }
    return out;
  };
  youtopia::HistogramSnapshot now = merged(*this);
  const youtopia::HistogramSnapshot then = merged(base);
  now.count -= then.count;
  now.sum -= then.sum;
  for (int i = 0; i < youtopia::HistogramSnapshot::kBuckets; ++i) {
    now.buckets[i] -= then.buckets[i];
  }
  return now;
}

double PassResult::Get(const std::string& name) const {
  for (const auto* list : {&end_to_end, &per_layer}) {
    for (const Metric& m : *list) {
      if (m.name == name) return m.value;
    }
  }
  return 0.0;
}

void AddLatencyMetrics(PassResult* r, const std::vector<Segment>& segments) {
  std::vector<double> rate, p50, p99;
  size_t total = 0, fewest_beyond = SIZE_MAX;
  for (const Segment& seg : segments) {
    std::vector<double> latency_us;
    latency_us.reserve(seg.txns.size());
    for (const auto& [submit, done] : seg.txns) {
      latency_us.push_back(static_cast<double>(done - submit) / 1e3);
    }
    const double secs = static_cast<double>(seg.t1_ns - seg.t0_ns) / 1e9;
    rate.push_back(secs > 0 ? static_cast<double>(latency_us.size()) / secs
                            : 0.0);
    p50.push_back(Percentile(latency_us, 0.50) / 1e3);
    p99.push_back(Percentile(latency_us, 0.99) / 1e3);
    const size_t n = latency_us.size();
    total += n;
    fewest_beyond = std::min(
        fewest_beyond, n - static_cast<size_t>(std::ceil(0.99 * n)));
  }
  r->Add(&r->end_to_end, "txn_per_s", Median(rate), "1/s");
  r->Add(&r->end_to_end, "latency_p50_ms", Median(p50), "ms");
  r->Add(&r->end_to_end, "latency_p99_ms", Median(p99), "ms");
  auto list = [](const std::vector<double>& v) {
    std::string s;
    for (double x : v) s += " " + std::to_string(x);
    return s;
  };
  r->notes.push_back("latency samples: " + std::to_string(total) + " in " +
                     std::to_string(segments.size()) +
                     " segments; at least " + std::to_string(fewest_beyond) +
                     " samples beyond p99 in every segment");
  r->notes.push_back("per segment: txn/s" + list(rate));
  r->notes.push_back("per segment: p50 ms" + list(p50));
  r->notes.push_back("per segment: p99 ms" + list(p99));
  if (segments.empty() || fewest_beyond < 10) {
    r->Fail("fewer than 10 latency samples beyond p99 in a segment");
  }
}

void ResetDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
}

void RemoveDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
