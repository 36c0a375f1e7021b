#ifndef PERFBENCH_ANALYSIS_H_
#define PERFBENCH_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/tracing.h"

namespace perfbench {

/// One client request (a transaction) as the client saw it: submit and
/// acknowledgement times plus the keys that attribute engine spans to it —
/// statement contexts (SQL workloads) or the committed transaction id
/// (entangled programs).
struct Request {
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  uint64_t txn_id = 0;
  std::vector<uint64_t> contexts;
};

/// Inputs of the per-layer analysis that only the workload knows.
struct TraceInputs {
  std::vector<Span> spans;
  std::vector<Request> requests;
  bool by_context = false;    ///< attribute by statement context, else txn id
  std::string client_layer;   ///< name of the request's own (root) self time
  uint64_t statements = 0;    ///< client statements in the window
  uint64_t rows_returned = 0; ///< rows in the statements' results
  /// Sum of the engine's sql.statement_micros over the window (SQL
  /// workloads; 0 otherwise): minus the engine spans it gives the SQL
  /// layer's own time.
  double statement_us_sum = 0;
  std::string chrome_path;    ///< Chrome trace-event JSON output ("" = none)
};

/// Largest allowed |sum of layer self times - sum of client latencies|,
/// as a share of the latency sum. Engine time that lies outside its
/// request's window, overlaps another span of its request, or belongs to
/// no acknowledged request widens the difference.
inline constexpr double kSelfTimeTolerance = 0.01;

/// A Commit or CommitGroup span longer than this is a slow commit (the
/// fast ones take microseconds; the version GC that every 64th commit runs
/// takes milliseconds).
inline constexpr int64_t kSlowCommitNs = 1'000'000;

/// Self time of each layer per request, the self-time sum check, commit
/// and read-path figures from the spans; appends per-layer metrics and the
/// self-time table to `out`. Fails `out` when the sum check misses
/// kSelfTimeTolerance.
void AnalyzeTrace(const TraceInputs& in, PassResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_ANALYSIS_H_
