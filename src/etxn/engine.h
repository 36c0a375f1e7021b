#ifndef YOUTOPIA_ETXN_ENGINE_H_
#define YOUTOPIA_ETXN_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/eq/compiler.h"
#include "src/eq/coordinator.h"
#include "src/eq/grounder.h"
#include "src/etxn/handle.h"
#include "src/etxn/spec.h"
#include "src/sql/executor.h"
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
///  * A run executes on the thread that starts it. It admits its programs
///    onto `num_connections` connection slots in FIFO order. To send a
///    program is to queue its next round trip (BEGIN, one statement, or
///    COMMIT) to land `statement_latency_micros` later; the run pops round
///    trips in landing order, sleeping only until the front one lands, so
///    the round trips of different connections overlap in time.
///  * After a round trip a program is sent again, parks on an entangled
///    query (keeping its slot), or is ready, retries or fails (each of
///    which frees the slot for the next admitted program).
///  * When no round trip is left, the barrier grounds every parked query
///    (grounding reads under the posing transaction's locks) and evaluates
///    them jointly; answered programs are sent again. A barrier that
///    answers nothing retires the parked programs to the dormant pool. The
///    Figure 4 walkthrough is this loop verbatim.
///  * Finalization commits each group of transitively entangled programs
///    whose transactional members are all ready through one CommitGroup (a
///    plain program is a group of one), or aborts its ready members
///    (widowed-transaction prevention, Requirement C.4). Retried programs
///    return to the front of the dormant pool; expired ones resolve
///    kTimedOut.
///
/// A lock wait inside a run blocks the run's one thread, so a participant
/// that needs a lock held by another (parked or ready) participant waits
/// out the lock timeout and retries.
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
  /// issuing runs; in manual mode this loops RunOnce until the pool drains,
  /// letting 1 ms pass after each run that resolved nothing.
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

  /// Where a participant stands. kQueued waits for a connection slot;
  /// kRunning (a round trip in flight) and kWaitingEq hold one; kReady,
  /// kRetry and kFailed have given it up.
  enum class PState {
    kQueued,
    kRunning,
    kWaitingEq,
    kReady,
    kRetry,
    kFailed,
  };

  /// One program in a run.
  struct Participant {
    PoolEntry entry;
    size_t index = 0;  ///< position in the run
    PState state = PState::kQueued;
    std::unique_ptr<Transaction> txn;
    sql::VarEnv vars;
    size_t stmt_index = 0;
    std::optional<eq::EntangledQuerySpec> pending_eq;  ///< set while parked
    Status final_status;
  };

  struct RunState {
    std::vector<std::unique_ptr<Participant>> participants;
    /// Union-find parents over participant indexes, joined along
    /// entanglement edges.
    std::vector<size_t> group;
    std::deque<Participant*> admission;
    size_t free_slots = 0;
    /// Sent participants with their landing times. Every send adds the same
    /// latency to the current time, so the deque is in landing order.
    std::deque<std::pair<int64_t, Participant*>> due;

    size_t Root(size_t i);
  };

  enum class Outcome { kCommitted, kFailed, kTimedOut };

  void SchedulerLoop();
  RunReport ExecuteRun(std::vector<PoolEntry> entries);
  /// Queues `p`'s next round trip to land one statement latency from now.
  void Send(RunState* run, Participant* p);
  /// Sends queued participants while connection slots are free.
  void Admit(RunState* run);
  /// Runs `p`'s landed round trip (BEGIN, one statement, or COMMIT) and
  /// settles it.
  void Step(RunState* run, Participant* p);
  /// Moves `p` on to `next` after a round trip or an answer: sends it
  /// again, parks it, or frees its slot for the next queued participant.
  void Settle(RunState* run, Participant* p, PState next);
  /// Executes one program statement; returns kRunning to go on, or the
  /// state the statement leaves the participant in.
  PState ExecuteStatement(Participant* p, const Statement& stmt);
  /// The barrier: grounds and jointly evaluates every parked query, sends
  /// the answered participants again, and retires every parked one when
  /// nothing was answered. Returns false when nobody was parked: the run is over.
  bool EvaluatePending(RunState* run, RunReport* report);
  void FinalizeRun(RunState* run, RunReport* report);
  void RollbackParticipant(Participant* p);
  /// Rolls `p` back for a later run (a non-transactional program resumes
  /// at its current statement).
  void Retry(Participant* p);
  /// Counts one final outcome in the run report and stats(), then resolves
  /// the handle.
  void Resolve(const PoolEntry& e, Outcome o, RunReport* report, Status s,
               TxnId txn = 0, sql::VarEnv vars = {});
  /// Resolves `e` kTimedOut if its deadline has passed; returns whether it
  /// did.
  bool ExpireIfDue(const PoolEntry& e, int64_t now, RunReport* report);
  int64_t Now() const { return clock_->NowMicros(); }

  TxnEngine* tm_;
  EngineOptions options_;
  Clock* clock_;
  sql::Executor executor_;

  /// Guards the dormant pool, the scheduler flags and next_run_id_. A run's
  /// own state belongs to the thread executing it.
  mutable std::mutex mu_;
  std::condition_variable controller_cv_;
  std::deque<PoolEntry> dormant_;
  size_t arrivals_since_run_ = 0;
  bool run_in_progress_ = false;
  bool stop_ = false;
  uint64_t next_run_id_ = 1;
  std::atomic<EntanglementId> next_eid_{1};

  std::unique_ptr<std::thread> scheduler_;
  std::condition_variable scheduler_cv_;
  EngineStats stats_;
};

}  // namespace youtopia::etxn

#endif  // YOUTOPIA_ETXN_ENGINE_H_
