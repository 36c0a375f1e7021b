#include "perfbench/src/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

namespace {

/// Requests written to the Chrome trace (with their spans): enough to read
/// a few hundred runs or statements in chrome://tracing or Perfetto
/// without writing the whole run.
constexpr size_t kChromeRequests = 1000;

void WriteChromeTrace(const TraceInputs& in,
                      const std::vector<std::vector<size_t>>& children) {
  std::ofstream out(in.chrome_path);
  if (!out.good()) return;
  int64_t t0 = INT64_MAX;
  for (const Request& r : in.requests) t0 = std::min(t0, r.submit_ns);
  auto us = [t0](int64_t ns) { return static_cast<double>(ns - t0) / 1e3; };
  out << "{\"traceEvents\":[\n";
  bool first = true;
  auto event = [&](const char* name, int pid, uint64_t tid, int64_t start,
                   int64_t end, size_t request, uint64_t txn) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%zu,"
                  "\"txn\":%llu}}",
                  first ? "" : ",\n", name, pid,
                  static_cast<unsigned long long>(tid), us(start),
                  static_cast<double>(end - start) / 1e3, request,
                  static_cast<unsigned long long>(txn));
    out << buf;
    first = false;
  };
  const size_t n = std::min(kChromeRequests, in.requests.size());
  for (size_t i = 0; i < n; ++i) {
    const Request& r = in.requests[i];
    // pid 1: one lane per client request; pid 2: one lane per engine thread.
    event(in.client_layer.c_str(), 1, i, r.submit_ns, r.done_ns, i, r.txn_id);
    for (size_t k : children[i]) {
      const Span& s = in.spans[k];
      event(LayerName(s.layer), 2, s.thread, s.start_ns, s.end_ns, i,
            s.txn_id);
    }
  }
  out << "\n]}\n";
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// The union of a set of [start, end) intervals, with the covered length
/// inside any window.
class IntervalUnion {
 public:
  explicit IntervalUnion(std::vector<std::pair<int64_t, int64_t>> iv) {
    std::sort(iv.begin(), iv.end());
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (!merged_.empty() && a <= merged_.back().second) {
        merged_.back().second = std::max(merged_.back().second, b);
      } else {
        merged_.emplace_back(a, b);
      }
    }
    before_.reserve(merged_.size() + 1);
    before_.push_back(0);
    for (const auto& [a, b] : merged_) {
      before_.push_back(before_.back() + b - a);
    }
  }

  const std::vector<std::pair<int64_t, int64_t>>& intervals() const {
    return merged_;
  }
  int64_t total() const { return before_.back(); }
  /// Covered length inside [a, b).
  int64_t Within(int64_t a, int64_t b) const {
    return b > a ? CoveredBefore(b) - CoveredBefore(a) : 0;
  }

 private:
  /// Covered length below `x`.
  int64_t CoveredBefore(int64_t x) const {
    const size_t k = static_cast<size_t>(
        std::upper_bound(merged_.begin(), merged_.end(),
                         std::make_pair(x, INT64_MAX)) -
        merged_.begin());
    if (k == 0) return 0;
    const auto& [a, b] = merged_[k - 1];
    return before_[k - 1] + std::min(x, b) - a;
  }

  std::vector<std::pair<int64_t, int64_t>> merged_;
  std::vector<int64_t> before_;  ///< covered length of merged_[0, i)
};

}  // namespace

void AnalyzeTrace(const TraceInputs& in, PassResult* out) {
  const size_t nreq = in.requests.size();
  std::unordered_map<uint64_t, size_t> owner;
  owner.reserve(nreq * 2);
  for (size_t i = 0; i < nreq; ++i) {
    const Request& r = in.requests[i];
    if (in.by_context) {
      for (uint64_t c : r.contexts) owner[c] = i;
    } else if (r.txn_id != 0) {
      owner[r.txn_id] = i;
    }
  }

  // --- Attribute spans to requests; gather span-level figures. A layer's
  // self time is the full length of the spans attributed to requests.
  std::vector<std::vector<size_t>> children(nreq);
  std::vector<double> commit_us, readonly_commit_us, group_us;
  std::vector<std::pair<int64_t, int64_t>> slow_commits;
  double layer_ns[kNumLayers] = {};
  int64_t read_ns = 0, ground_ns = 0, unattributed_ns = 0, engine_ns = 0;
  uint64_t rows_pulled = 0, ground_rows = 0;
  std::unordered_set<uint64_t> grounding_txns;
  std::unordered_map<uint64_t, int64_t> begin_of_txn;
  for (size_t k = 0; k < in.spans.size(); ++k) {
    const Span& s = in.spans[k];
    const int64_t d = s.end_ns - s.start_ns;
    engine_ns += d;
    if ((s.layer == Layer::kCommit || s.layer == Layer::kCommitGroup) &&
        d > kSlowCommitNs) {
      slow_commits.emplace_back(s.start_ns, s.end_ns);
    }
    switch (s.layer) {
      case Layer::kCommit:
        commit_us.push_back(Us(d));
        if (s.readonly_commit) readonly_commit_us.push_back(Us(d));
        break;
      case Layer::kCommitGroup:
        group_us.push_back(Us(d));
        break;
      case Layer::kRead:
        read_ns += d;
        rows_pulled += s.rows;
        break;
      case Layer::kGround:
        ground_ns += d;
        ground_rows += s.rows;
        grounding_txns.insert(s.txn_id);
        break;
      case Layer::kBegin:
        begin_of_txn[s.txn_id] = s.start_ns;
        break;
      default:
        break;
    }
    const uint64_t key = in.by_context ? s.context_id : s.txn_id;
    auto it = owner.find(key);
    if (it == owner.end()) {
      unattributed_ns += d;
      continue;
    }
    children[it->second].push_back(k);
    layer_ns[static_cast<int>(s.layer)] += static_cast<double>(d);
  }
  const IntervalUnion slow(std::move(slow_commits));

  // --- Self times: a request's own self time is its latency minus the
  // union of its engine spans, clipped to its window; each engine span is a
  // leaf. So own time plus the layers' self times equals the client latency
  // sum exactly when every engine span lies inside its request's window and
  // overlaps no other span of that request, and no engine time is left
  // unattributed; anything else is attribution error.
  double client_ns = 0, latency_ns_sum = 0, attributed_ns = 0;
  double own_in_slow_ns = 0;
  int64_t t_first = INT64_MAX, t_last = INT64_MIN;
  std::vector<double> latency_us(nreq);
  for (size_t i = 0; i < nreq; ++i) {
    const Request& r = in.requests[i];
    latency_us[i] = Us(r.done_ns - r.submit_ns);
    t_first = std::min(t_first, r.submit_ns);
    t_last = std::max(t_last, r.done_ns);
  }
  const double tail_threshold = Percentile(latency_us, 0.99);
  double tail_layer_ns[kNumLayers] = {};
  double tail_client_ns = 0, tail_total_ns = 0;
  std::vector<double> dormant_ms, run_ms;
  for (size_t i = 0; i < nreq; ++i) {
    const Request& r = in.requests[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    double per_layer[kNumLayers] = {};
    for (size_t k : children[i]) {
      const Span& s = in.spans[k];
      attributed_ns += static_cast<double>(s.end_ns - s.start_ns);
      const int64_t a = std::max(s.start_ns, r.submit_ns);
      const int64_t b = std::min(s.end_ns, r.done_ns);
      if (b <= a) continue;
      iv.emplace_back(a, b);
      per_layer[static_cast<int>(s.layer)] += static_cast<double>(b - a);
    }
    const IntervalUnion covered(std::move(iv));
    const double latency = static_cast<double>(r.done_ns - r.submit_ns);
    const double own = latency - static_cast<double>(covered.total());
    client_ns += own;
    latency_ns_sum += latency;
    // Own time during another request's slow commit.
    int64_t in_slow = slow.Within(r.submit_ns, r.done_ns);
    for (const auto& [a, b] : covered.intervals()) {
      in_slow -= slow.Within(a, b);
    }
    own_in_slow_ns += static_cast<double>(in_slow);
    if (latency_us[i] >= tail_threshold) {
      tail_client_ns += own;
      tail_total_ns += latency;
      for (int l = 0; l < kNumLayers; ++l) tail_layer_ns[l] += per_layer[l];
    }
    if (!in.by_context) {
      auto b = begin_of_txn.find(r.txn_id);
      if (b != begin_of_txn.end()) {
        dormant_ms.push_back(static_cast<double>(b->second - r.submit_ns) /
                             1e6);
        run_ms.push_back(static_cast<double>(r.done_ns - b->second) / 1e6);
      }
    }
  }

  const double n = nreq > 0 ? static_cast<double>(nreq) : 1.0;
  auto& pl = out->per_layer;
  out->Add(&pl, "layer.client_us_per_txn", client_ns / 1e3 / n, "us");
  for (int l = 0; l < kNumLayers; ++l) {
    if (static_cast<Layer>(l) == Layer::kOther) continue;  // DDL and loads
    out->Add(&pl, std::string("layer.") + LayerName(static_cast<Layer>(l)) +
                      "_us_per_txn",
             layer_ns[l] / 1e3 / n, "us");
  }
  out->Add(&pl, "layer.unattributed_us_per_txn",
           static_cast<double>(unattributed_ns) / 1e3 / n, "us");
  // Own time + attributed span time + unattributed span time - latency:
  // the time of attributed spans outside their request's window or
  // overlapping each other, plus the unattributed time. Never negative.
  const double self_ns_sum =
      client_ns + attributed_ns + static_cast<double>(unattributed_ns);
  const double lat = latency_ns_sum > 0 ? latency_ns_sum : 1.0;
  const double gap = (self_ns_sum - latency_ns_sum) / lat;
  out->Add(&pl, "trace.self_sum_gap_frac", gap, "ratio");
  if (std::abs(gap) > kSelfTimeTolerance) {
    out->Fail("layer self times miss the client latency sum by " +
              std::to_string(gap * 100) + "% (tolerance " +
              std::to_string(kSelfTimeTolerance * 100) + "%)");
  }
  const double window =
      t_last > t_first ? static_cast<double>(t_last - t_first) : 1.0;
  out->Add(&pl, "txn.slow_commit_wall_frac",
           static_cast<double>(slow.Within(t_first, t_last)) / window,
           "ratio");
  out->Add(&pl, "txn.slow_commit_stall_frac",
           client_ns > 0 ? own_in_slow_ns / client_ns : 0.0, "ratio");
  const double tail = tail_total_ns > 0 ? tail_total_ns : 1.0;
  out->Add(&pl, "tail.client_share", tail_client_ns / tail, "ratio");
  out->Add(&pl, "tail.read_share",
           (tail_layer_ns[static_cast<int>(Layer::kRead)] +
            tail_layer_ns[static_cast<int>(Layer::kGround)]) /
               tail,
           "ratio");
  out->Add(&pl, "tail.commit_share",
           (tail_layer_ns[static_cast<int>(Layer::kCommit)] +
            tail_layer_ns[static_cast<int>(Layer::kCommitGroup)]) /
               tail,
           "ratio");

  out->Add(&pl, "txn.commit_us_p50", Percentile(commit_us, 0.50), "us");
  out->Add(&pl, "txn.commit_us_p99", Percentile(commit_us, 0.99), "us");
  out->Add(&pl, "txn.commit_group_us_p50", Percentile(group_us, 0.50), "us");
  out->Add(&pl, "txn.commit_group_us_p99", Percentile(group_us, 0.99), "us");
  out->Add(&pl, "txn.readonly_commit_us_p99",
           Percentile(readonly_commit_us, 0.99), "us");
  size_t slow_readonly = 0;
  for (double u : readonly_commit_us) {
    slow_readonly += u > Us(kSlowCommitNs) ? 1 : 0;
  }
  out->Add(&pl, "txn.readonly_commit_slow_frac",
           readonly_commit_us.empty()
               ? 0.0
               : static_cast<double>(slow_readonly) /
                     static_cast<double>(readonly_commit_us.size()),
           "ratio");

  const double stmts =
      in.statements > 0 ? static_cast<double>(in.statements) : 1.0;
  out->Add(&pl, "storage.read_us_per_stmt",
           static_cast<double>(read_ns) / 1e3 / stmts, "us");
  out->Add(&pl, "storage.rows_examined_per_row_returned",
           in.rows_returned > 0 ? static_cast<double>(rows_pulled) /
                                      static_cast<double>(in.rows_returned)
                                : 0.0,
           "ratio");
  out->Add(&pl, "sql.self_us_per_stmt",
           in.statement_us_sum > 0
               ? (in.statement_us_sum - static_cast<double>(engine_ns) / 1e3) /
                     stmts
               : 0.0,
           "us");
  out->Add(&pl, "sql.queue_us_per_stmt",
           in.statement_us_sum > 0
               ? (latency_ns_sum / 1e3 - in.statement_us_sum) / stmts
               : 0.0,
           "us");
  const double eqs = grounding_txns.empty()
                         ? 1.0
                         : static_cast<double>(grounding_txns.size());
  out->Add(&pl, "eq.grounding_read_us_per_eq",
           static_cast<double>(ground_ns) / 1e3 / eqs, "us");
  out->Add(&pl, "eq.grounding_rows_per_eq",
           static_cast<double>(ground_rows) / eqs, "count");
  out->Add(&pl, "etxn.dormant_wait_ms_p50", Median(dormant_ms), "ms");
  out->Add(&pl, "etxn.run_ms_p50", Median(run_ms), "ms");

  // Human-readable self-time table.
  char line[160];
  out->notes.push_back("self time per request (traced pass, " +
                       std::to_string(nreq) + " requests):");
  auto row = [&](const std::string& name, double ns, double tail_ns) {
    std::snprintf(line, sizeof(line),
                  "  %-14s %10.1f us  %5.1f%%   tail %5.1f%%", name.c_str(),
                  ns / 1e3 / n,
                  latency_ns_sum > 0 ? 100.0 * ns / latency_ns_sum : 0.0,
                  100.0 * tail_ns / tail);
    out->notes.push_back(line);
  };
  row(in.client_layer, client_ns, tail_client_ns);
  for (int l = 0; l < kNumLayers; ++l) {
    if (layer_ns[l] == 0) continue;
    row(LayerName(static_cast<Layer>(l)), layer_ns[l], tail_layer_ns[l]);
  }
  if (unattributed_ns > 0) {
    row("unattributed", static_cast<double>(unattributed_ns), 0);
  }
  std::snprintf(line, sizeof(line),
                "  sum of self times vs client latency: %+.3f%%, of which "
                "%.3f%% unattributed (tolerance %.1f%%); tail = requests at "
                "or above p99 (%.0f us)",
                gap * 100, 100.0 * static_cast<double>(unattributed_ns) / lat,
                kSelfTimeTolerance * 100, tail_threshold);
  out->notes.push_back(line);

  if (!in.chrome_path.empty()) {
    WriteChromeTrace(in, children);
    out->notes.push_back("chrome trace: " + in.chrome_path);
  }
}

}  // namespace perfbench
