#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/txn/transaction_manager.h"

namespace perfbench {

/// Every workload runs in three phases on fresh state: set-up, an untimed
/// warm-up of kWarmupShare of the operations, then the timed window of a
/// fixed, seed-determined operation count. After the window the workload
/// checks its results, latches a simulated crash, times recovery from the
/// crash's files a per-workload number of times in a fresh process
/// (RecoveryTarget), and recovers once more in process to check the
/// recovered state. The set-up is timed a per-workload number of times in
/// a fresh process before the run and as many times again after it
/// (TimeSetupsInChild); the set-up the run uses is built in process,
/// untimed. The host's slow spells last seconds, so timing at both ends
/// keeps one spell from setting the median alone. Cheap set-ups and
/// recoveries repeat more often, so each figure rests on at least a few
/// seconds of work.
inline constexpr double kWarmupShare = 0.1;

PassResult RunEntangledTravel(const Options& opts, bool traced);
PassResult RunSqlTransfer(const Options& opts, bool traced);
PassResult RunTravelReadMostly(const Options& opts, bool traced);

/// The --time-setup child side of each workload (see RunSetupTiming).
int RunEntangledTravelSetupTiming(const Options& o, int reps);
int RunSqlTransferSetupTiming(const Options& o, int reps);
int RunTravelReadMostlySetupTiming(const Options& o, int reps);

/// Transaction-manager counters summed over the engines that keep them: the
/// client-facing engine (commits, aborts, routing) and every per-shard
/// manager (MVCC and access-path counters a Router leaves to its shards).
struct TxnCounts {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t versions_pruned = 0;
  uint64_t index_lookups = 0;
  uint64_t table_scans = 0;
  uint64_t single_shard_txns = 0;
  uint64_t two_phase_commits = 0;

  static TxnCounts Capture(youtopia::TxnEngine* top,
                           const std::vector<youtopia::TxnEngine*>& shards);
  TxnCounts operator-(const TxnCounts& o) const;
};

/// Per-layer metrics read from the metrics registry and the transaction
/// counters over the timed window (`committed` client transactions,
/// `statements` client statements).
void AddEngineLayerMetrics(const RegistrySnapshot& before,
                           const RegistrySnapshot& after,
                           const TxnCounts& delta, uint64_t committed,
                           uint64_t statements, PassResult* out);

/// Median time, in microseconds, sql::Parser::ParseStatement takes over
/// `texts` (several passes).
double MedianParseMicros(const std::vector<std::string>& texts);

/// The end-to-end metrics every workload reports besides latency. setup_s
/// is the median of the set-up times. recover_s is the fastest of the
/// recoveries timed in a fresh process: host interference only ever adds
/// time, and recovering the same files repeats the same work, so the
/// minimum is the steadiest estimate of it.
void AddDurabilityMetrics(const std::vector<double>& setups,
                          const std::vector<double>& recoveries,
                          uint64_t wal_bytes, uint64_t wal_growth,
                          uint64_t committed, PassResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
