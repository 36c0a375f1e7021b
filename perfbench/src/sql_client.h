#ifndef PERFBENCH_SQL_CLIENT_H_
#define PERFBENCH_SQL_CLIENT_H_

#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/analysis.h"
#include "perfbench/src/tracing.h"
#include "src/sql/session_server.h"

namespace perfbench {

/// One client transaction: its statements, run in order on one session,
/// and an optional check of the last statement's result (returns an empty
/// string when the result is right).
struct SqlOp {
  std::vector<std::string> statements;
  std::function<std::string(const youtopia::sql::QueryResult&)> check;
};

/// What happened to one SqlOp.
struct SqlOutcome {
  bool ok = false;
  Request request;
  uint64_t rows = 0;  ///< rows in the statements' results
};

/// What RunSqlSegments produced.
struct SqlRun {
  std::vector<std::vector<SqlOutcome>> outcomes;  ///< [session][op]
  std::vector<Segment> segments;  ///< acknowledged transactions per segment
  uint64_t statements = 0;
  std::vector<std::string> check_failures;
};

/// Closed-loop SQL load: ops[s] runs on session s, every session keeps one
/// statement in flight and submits the next from the completion callback of
/// the previous one. A failed statement ends its transaction: the client
/// sends ROLLBACK when more statements were to follow (so a later statement
/// never runs outside the transaction) and moves on to the next one.
///
/// Every session's ops are cut into `segments` contiguous chunks; chunk k of
/// all sessions runs on a fresh SessionServer (`server_threads` workers)
/// over `engine`. `recorder` (may be null) closes the statement context of
/// each statement in its completion callback, attributing engine spans.
SqlRun RunSqlSegments(youtopia::TxnEngine* engine, size_t server_threads,
                      SpanRecorder* recorder,
                      const std::vector<std::vector<SqlOp>>& ops,
                      int segments);

/// Counts `run`'s transactions into `res` (attempted, failed) and returns
/// the acknowledged ones' requests; adds their result rows to `*rows`.
std::vector<Request> AcknowledgedRequests(const SqlRun& run, PassResult* res,
                                          uint64_t* rows);

}  // namespace perfbench

#endif  // PERFBENCH_SQL_CLIENT_H_
