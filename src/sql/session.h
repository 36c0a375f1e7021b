#ifndef YOUTOPIA_SQL_SESSION_H_
#define YOUTOPIA_SQL_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/sql/executor.h"
#include "src/sql/parser.h"

namespace youtopia::sql {

/// A classical client session: text in, results out, with transaction
/// control and host variables. Autocommits statements issued outside an
/// explicit BEGIN ... COMMIT block. One session == one connection == at most
/// one open transaction, matching the paper's MySQL setup.
///
/// Autocommitted statements transparently retry *transient* aborts —
/// deadlock victims, lock-wait timeouts, first-updater-wins conflicts —
/// under a bounded exponential backoff (RetryPolicy): the statement is its
/// whole transaction, so a clean rerun is always safe. Statements inside
/// an explicit BEGIN are never retried (the application owns the
/// transaction's history and must rerun it itself), and nothing retries
/// once the fault injector's crash latch is set.
///
/// Entangled queries are rejected here: they require the run-based engine
/// (etxn::EntangledTransactionEngine).
class Session {
 public:
  /// Backoff schedule for autocommit retries. Defaults: 4 attempts total,
  /// 200us first backoff, doubling to at most 10ms.
  struct RetryPolicy {
    int max_attempts = 4;
    int64_t initial_backoff_micros = 200;
    int64_t max_backoff_micros = 10'000;
  };

  explicit Session(TxnEngine* tm) : tm_(tm), exec_(tm) {}
  ~Session();

  /// Parses and executes one statement.
  StatusOr<QueryResult> Execute(const std::string& text);

  /// Executes a ';'-separated script; returns the last statement's result.
  StatusOr<QueryResult> ExecuteScript(const std::string& text);

  VarEnv& vars() { return vars_; }
  Executor& executor() { return exec_; }
  bool in_transaction() const { return txn_ != nullptr; }

  void set_retry_policy(RetryPolicy p) { retry_policy_ = p; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }
  /// Transient-abort reruns performed by this session's autocommit path.
  /// Atomic: monitoring threads (SHOW STATS, tests) read it while the
  /// session's worker is mid-retry.
  uint64_t statement_retries() const {
    return statement_retries_.load(std::memory_order_relaxed);
  }

 private:
  StatusOr<QueryResult> ExecuteParsed(const ParsedStatement& stmt);
  /// One autocommit attempt: Begin, execute, Commit (abort on failure).
  StatusOr<QueryResult> AutocommitOnce(const ParsedStatement& stmt);

  TxnEngine* tm_;
  Executor exec_;
  std::unique_ptr<Transaction> txn_;
  VarEnv vars_;
  RetryPolicy retry_policy_;
  std::atomic<uint64_t> statement_retries_{0};
};

}  // namespace youtopia::sql

#endif  // YOUTOPIA_SQL_SESSION_H_
