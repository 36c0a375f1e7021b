#ifndef YOUTOPIA_SQL_SESSION_SERVER_H_
#define YOUTOPIA_SQL_SESSION_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sql/session.h"

namespace youtopia::sql {

/// Multiplexing front end: a small worker pool drives many Sessions, so
/// serving capacity is no longer one thread per connection. Statements are
/// submitted per session and run strictly in per-session FIFO order, at most
/// one at a time per session (Session is not thread-safe; the scheduler
/// guarantees a session is owned by one worker while its statement runs).
/// Between statements a session is just parked state — an open transaction,
/// host variables, and (through the pull-based cursor seam) any suspended
/// statement is an open TableCursor waiting for its next pull.
///
/// A worker whose statement commits waits on that commit's own durability
/// ticket; it runs no other statement meanwhile. Commits from the other
/// workers pile into the same group-commit batch, so batching grows with the
/// number of workers that commit at once.
class SessionServer {
 public:
  struct Options {
    size_t num_threads = 2;
  };
  using SessionId = uint64_t;
  /// Invoked with no server lock held when the statement finishes: on a
  /// worker thread, or on the submitting thread for an unknown session.
  /// Must not call Drain() or ExecuteSync() on this server.
  using ResultCallback = std::function<void(const StatusOr<QueryResult>&)>;

  SessionServer(TxnEngine* engine, Options options);
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Creates a session; the id is its handle for Submit/ExecuteSync.
  SessionId OpenSession();

  /// The underlying session (retry policy, host variables). Only safe to
  /// touch while the session has no queued or running statement.
  Session* session(SessionId id);

  /// Enqueues one statement for `id`. Statements of one session run in
  /// submission order; statements of different sessions interleave freely.
  void Submit(SessionId id, std::string sql, ResultCallback done = nullptr);

  /// Submit + wait for this one statement's result. Must not be called from
  /// a worker thread (it would wait on itself).
  StatusOr<QueryResult> ExecuteSync(SessionId id, const std::string& sql);

  /// Blocks until every submitted statement has finished.
  void Drain();

  size_t num_threads() const { return threads_.size(); }
  size_t num_sessions() const;
  uint64_t statements_served() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  struct SessionState {
    std::unique_ptr<Session> session;
    std::deque<std::pair<std::string, ResultCallback>> queue;
    /// True while the session sits in ready_ or a worker runs its statement
    /// — the at-most-once scheduling invariant.
    bool scheduled = false;
  };

  void WorkerLoop();
  /// Pops the front ready session and runs its next statement. Caller holds
  /// `g` (released during execution, re-held on return).
  void RunNext(std::unique_lock<std::mutex>& g);

  TxnEngine* engine_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< workers: ready work or stop
  std::condition_variable drain_cv_;  ///< Drain(): pending_ == 0
  std::unordered_map<SessionId, std::unique_ptr<SessionState>> states_;
  std::deque<SessionId> ready_;
  SessionId next_id_ = 1;
  uint64_t pending_ = 0;  ///< submitted, not yet finished
  bool stop_ = false;
  std::atomic<uint64_t> served_{0};
  std::vector<std::thread> threads_;
};

}  // namespace youtopia::sql

#endif  // YOUTOPIA_SQL_SESSION_SERVER_H_
