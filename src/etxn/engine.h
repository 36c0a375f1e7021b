#ifndef YOUTOPIA_ETXN_ENGINE_H_
#define YOUTOPIA_ETXN_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/thread_pool.h"
#include "src/eq/compiler.h"
#include "src/eq/coordinator.h"
#include "src/eq/grounder.h"
#include "src/etxn/handle.h"
#include "src/etxn/spec.h"
#include "src/txn/txn_engine.h"

namespace youtopia::etxn {

/// Engine configuration. `num_connections` is the paper's concurrency bound
/// (one transaction per DBMS connection, §5.2.1); `statement_latency_micros`
/// models the client<->DBMS round trip of the middle-tier architecture so
/// that run time is connection-bound, not CPU-bound, exactly as in the
/// paper's MySQL setup; `run_frequency` is the paper's f (start a run after
/// f new arrivals).
struct EngineOptions {
  size_t num_connections = 100;
  int64_t statement_latency_micros = 0;
  int run_frequency = 1;
  int64_t scheduler_poll_micros = 20'000;  ///< idle kick for the auto scheduler
  int64_t default_timeout_micros = 10'000'000;
  bool auto_scheduler = true;  ///< false: tests drive RunOnce() manually
  Clock* clock = nullptr;      ///< defaults to SystemClock
};

/// Outcome counters for one run.
struct RunReport {
  uint64_t run_id = 0;
  size_t participants = 0;
  size_t committed = 0;
  size_t retried = 0;   ///< blocked on an unanswered eq; back to the pool
  size_t failed = 0;    ///< permanent program error / explicit rollback
  size_t timed_out = 0;
  size_t eval_rounds = 0;
  size_t entangle_ops = 0;
  size_t group_commits = 0;
};

/// Cumulative engine statistics.
struct EngineStats {
  std::atomic<uint64_t> runs{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> retried{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> timed_out{0};
  std::atomic<uint64_t> eval_rounds{0};
  std::atomic<uint64_t> entangle_ops{0};
};

/// The middle-tier entangled transaction manager (paper §4/§5, Figure 5):
///
///  * Submit() places a program in the dormant pool; the scheduler starts a
///    run every `run_frequency` arrivals (or on an idle kick).
///  * A run executes every dormant program on the connection pool. Each
///    program runs until it blocks on an entangled query, fails, or reaches
///    ready-to-commit. When all started programs are parked, the engine
///    grounds every pending entangled query (grounding reads under the
///    posing transaction's locks) and evaluates them jointly; answered
///    programs resume. Rounds repeat until none makes progress — the
///    Figure 4 walkthrough is this loop verbatim.
///  * Finalization enforces group commits: transitively entangled
///    transactions commit together through a WAL GROUP_COMMIT record or
///    abort together (widowed-transaction prevention, Requirement C.4).
///    Blocked programs are aborted back to the dormant pool; expired ones
///    resolve kTimedOut.
class EntangledTransactionEngine {
 public:
  EntangledTransactionEngine(TxnEngine* tm, EngineOptions options);
  ~EntangledTransactionEngine();

  EntangledTransactionEngine(const EntangledTransactionEngine&) = delete;
  EntangledTransactionEngine& operator=(const EntangledTransactionEngine&) =
      delete;

  /// Submits a program; returns its completion handle.
  std::shared_ptr<TxnHandle> Submit(EntangledTransactionSpec spec);

  /// Executes one run over the current dormant pool (manual mode; also
  /// usable alongside the auto scheduler for draining).
  RunReport RunOnce();

  /// Blocks until every handle is resolved. In auto mode the scheduler keeps
  /// issuing runs; in manual mode this loops RunOnce until the pool drains.
  void WaitAll(const std::vector<std::shared_ptr<TxnHandle>>& handles);

  size_t dormant_count() const;
  EngineStats& stats() { return stats_; }
  TxnEngine* tm() const { return tm_; }

 private:
  struct PoolEntry {
    std::shared_ptr<EntangledTransactionSpec> spec;
    std::shared_ptr<TxnHandle> handle;
    int64_t deadline_micros = 0;
    size_t resume_index = 0;  ///< for non-transactional retries
    sql::VarEnv saved_vars;   ///< for non-transactional retries
  };

  enum class PState {
    kQueued,
    kRunning,
    kWaitingEq,
    kReady,
    kRetry,
    kFailed,
  };

  enum class EqDecision { kNone, kAnswered, kEmpty, kRetryRun };

  struct Participant {
    PoolEntry entry;
    PState state = PState::kQueued;
    std::unique_ptr<Transaction> txn;
    sql::VarEnv vars;
    size_t stmt_index = 0;
    // Pending entangled query (set while kWaitingEq).
    std::optional<eq::EntangledQuerySpec> pending_eq;
    EqDecision decision = EqDecision::kNone;
    std::vector<std::pair<std::string, Row>> answer;
    Status final_status;
    std::condition_variable cv;
    // Entanglement partners among this run's participants, accumulated
    // across evaluation rounds; drives group commit + widow prevention.
    std::vector<Participant*> partners;
    bool entangled = false;
  };

  struct RunState {
    std::vector<std::unique_ptr<Participant>> participants;
    size_t running = 0;
  };

  void SchedulerLoop();
  RunReport ExecuteRun(std::vector<PoolEntry> entries);
  void RunParticipant(RunState* run, Participant* p);
  /// Executes one program statement; returns the loop action.
  enum class StepResult { kContinue, kReadyToCommit, kRetry, kFail };
  StepResult ExecuteStatement(RunState* run, Participant* p,
                              const Statement& stmt);
  StepResult HandleEntangledQuery(RunState* run, Participant* p,
                                  const sql::EntangledSelectStmt& stmt);
  /// Grounds + jointly evaluates all pending eqs; returns true if any
  /// participant received an answer or empty-success (progress).
  bool EvaluatePending(RunState* run, RunReport* report);
  void FinalizeRun(RunState* run, RunReport* report);
  void RollbackParticipant(Participant* p);
  /// Resolves a ready participant whose commit failed with the
  /// process-wide crash latched. Every WAL is frozen then, so a retry could
  /// only time out: the client gets the commit's own status, and the
  /// transaction stays as the crash left it for recovery to decide.
  void ResolveCrashedCommit(Participant* p, const Status& s,
                            RunReport* report);
  void SleepLatency();
  int64_t Now() const { return clock_->NowMicros(); }

  TxnEngine* tm_;
  EngineOptions options_;
  Clock* clock_;
  sql::Executor executor_;

  mutable std::mutex mu_;
  std::condition_variable controller_cv_;
  std::deque<PoolEntry> dormant_;
  size_t arrivals_since_run_ = 0;
  bool run_in_progress_ = false;
  bool stop_ = false;
  uint64_t next_run_id_ = 1;
  std::atomic<EntanglementId> next_eid_{1};

  std::unique_ptr<ThreadPool> connections_;
  std::unique_ptr<std::thread> scheduler_;
  std::condition_variable scheduler_cv_;
  EngineStats stats_;
};

}  // namespace youtopia::etxn

#endif  // YOUTOPIA_ETXN_ENGINE_H_
