#ifndef PERFBENCH_CHILD_TIMING_H_
#define PERFBENCH_CHILD_TIMING_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/common/status.h"

namespace perfbench {

/// The files a crashed workload left behind: a single-node WAL
/// (RecoveryManager::Recover) or a Router directory (Router::Recover with
/// `shards` shards and the default options otherwise).
struct RecoveryTarget {
  std::string wal_path;    ///< single-node WAL file, or
  std::string router_dir;  ///< Router directory
  size_t shards = 0;
};

/// Times `reps` recoveries of `target` in a fresh child process (this
/// binary in --time-recovery mode), the way a restarted server recovers
/// after a crash: the times then do not depend on the benchmark process's
/// own heap. Waits for the child. Returns the times in seconds, or an empty
/// vector with `*error` set when the child fails.
std::vector<double> TimeRecoveryInChild(const RecoveryTarget& target, int reps,
                                        std::string* error);

/// The child side: recovers `target` `reps` times and prints one line
/// "recovery_s <seconds>" per recovery. Returns the process exit code.
int RunRecoveryTiming(const RecoveryTarget& target, int reps);

/// Times `reps` set-ups of `o.workload` (seeded by `o.seed`) in a fresh
/// child process (this binary in --time-setup mode), in a directory of its
/// own under `o.data_dir`. Like recovery, every set-up then starts from the
/// same fresh heap, whatever the benchmark process ran before. Waits for the
/// child. Returns the times in seconds, or an empty vector with `*error`
/// set when the child fails.
std::vector<double> TimeSetupsInChild(const Options& o, int reps,
                                      std::string* error);

/// The child side: calls `drop` then times `build`, `reps` times, and
/// prints one line "setup_s <seconds>" per set-up. Returns the process
/// exit code.
int RunSetupTiming(int reps, const std::function<void()>& drop,
                   const std::function<youtopia::Status()>& build);

}  // namespace perfbench

#endif  // PERFBENCH_CHILD_TIMING_H_
