#include "perfbench/src/sql_client.h"

#include <condition_variable>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

using youtopia::StatusOr;
using youtopia::sql::QueryResult;
using youtopia::sql::SessionServer;

/// The closed loop over one SessionServer for one segment.
class Client {
 public:
  /// One session's slice of work: ops[0, n) with their outcome slots.
  struct Lane {
    SessionServer::SessionId id = 0;
    const SqlOp* ops = nullptr;
    SqlOutcome* out = nullptr;
    size_t n = 0;
    size_t op = 0;
    size_t stmt = 0;
  };

  Client(SessionServer* server, SpanRecorder* recorder, std::vector<Lane> lanes)
      : server_(server), recorder_(recorder), lanes_(std::move(lanes)) {}

  /// Runs every lane to completion; blocks until all are done.
  void Run() {
    {
      std::lock_guard<std::mutex> g(mu_);
      active_ = 0;
      for (const Lane& l : lanes_) active_ += l.n > 0 ? 1 : 0;
    }
    for (Lane& lane : lanes_) {
      if (lane.n == 0) continue;
      lane.out[0].request.submit_ns = NowNanos();
      Submit(&lane);
    }
    std::unique_lock<std::mutex> g(mu_);
    done_cv_.wait(g, [this] { return active_ == 0; });
  }

  uint64_t statements() const { return statements_; }
  std::vector<std::string> TakeFailures() { return std::move(failures_); }

 private:
  void Submit(Lane* lane) {
    server_->Submit(lane->id, lane->ops[lane->op].statements[lane->stmt],
                    [this, lane](const StatusOr<QueryResult>& r) {
                      OnResult(lane, r);
                    });
  }

  void CloseContext(Lane* lane) {
    if (recorder_ == nullptr) return;
    const uint64_t ctx = recorder_->CloseStatement();
    if (ctx != 0) lane->out[lane->op].request.contexts.push_back(ctx);
  }

  void OnResult(Lane* lane, const StatusOr<QueryResult>& r) {
    CloseContext(lane);
    SqlOutcome& out = lane->out[lane->op];
    const SqlOp& op = lane->ops[lane->op];
    {
      std::lock_guard<std::mutex> g(mu_);
      ++statements_;
    }
    if (!r.ok()) {
      if (lane->stmt + 1 < op.statements.size()) {
        // Close whatever is left of the explicit transaction before the
        // session's next op; its result does not matter.
        server_->Submit(lane->id, "ROLLBACK",
                        [this, lane](const StatusOr<QueryResult>&) {
                          CloseContext(lane);
                          NextOp(lane);
                        });
        return;
      }
      NextOp(lane);
      return;
    }
    out.rows += r.value().rows.size();
    if (++lane->stmt < op.statements.size()) {
      Submit(lane);
      return;
    }
    out.ok = true;
    if (op.check) {
      std::string why = op.check(r.value());
      if (!why.empty()) {
        std::lock_guard<std::mutex> g(mu_);
        if (failures_.size() < 20) failures_.push_back(std::move(why));
      }
    }
    NextOp(lane);
  }

  /// Finishes the lane's current op and starts the next, or retires it.
  void NextOp(Lane* lane) {
    lane->out[lane->op].request.done_ns = NowNanos();
    lane->stmt = 0;
    if (++lane->op >= lane->n) {
      std::lock_guard<std::mutex> g(mu_);
      if (--active_ == 0) done_cv_.notify_all();
      return;
    }
    lane->out[lane->op].request.submit_ns = NowNanos();
    Submit(lane);
  }

  SessionServer* server_;
  SpanRecorder* recorder_;
  std::vector<Lane> lanes_;

  std::mutex mu_;
  std::condition_variable done_cv_;
  size_t active_ = 0;                  // guarded by mu_
  uint64_t statements_ = 0;            // guarded by mu_
  std::vector<std::string> failures_;  // guarded by mu_
};

}  // namespace

SqlRun RunSqlSegments(youtopia::TxnEngine* engine, size_t server_threads,
                      SpanRecorder* recorder,
                      const std::vector<std::vector<SqlOp>>& ops,
                      int segments) {
  SqlRun run;
  run.outcomes.resize(ops.size());
  for (size_t s = 0; s < ops.size(); ++s) {
    run.outcomes[s].assign(ops[s].size(), SqlOutcome{});
  }
  for (int k = 0; k < segments; ++k) {
    SessionServer server(engine, SessionServer::Options{server_threads});
    std::vector<Client::Lane> lanes(ops.size());
    std::vector<std::pair<size_t, size_t>> range(ops.size());
    for (size_t s = 0; s < ops.size(); ++s) {
      const size_t n = ops[s].size();
      range[s] = {n * k / segments, n * (k + 1) / segments};
      Client::Lane& lane = lanes[s];
      lane.id = server.OpenSession();
      lane.ops = ops[s].data() + range[s].first;
      lane.out = run.outcomes[s].data() + range[s].first;
      lane.n = range[s].second - range[s].first;
    }
    Client client(&server, recorder, std::move(lanes));
    Segment seg;
    seg.t0_ns = NowNanos();
    client.Run();
    seg.t1_ns = NowNanos();
    server.Drain();
    run.statements += client.statements();
    for (std::string& f : client.TakeFailures()) {
      run.check_failures.push_back(std::move(f));
    }
    for (size_t s = 0; s < ops.size(); ++s) {
      for (size_t i = range[s].first; i < range[s].second; ++i) {
        const SqlOutcome& o = run.outcomes[s][i];
        if (o.ok) seg.txns.emplace_back(o.request.submit_ns, o.request.done_ns);
      }
    }
    run.segments.push_back(std::move(seg));
  }
  return run;
}

std::vector<Request> AcknowledgedRequests(const SqlRun& run, PassResult* res,
                                          uint64_t* rows) {
  std::vector<Request> requests;
  for (const auto& lane : run.outcomes) {
    for (const SqlOutcome& o : lane) {
      ++res->attempted;
      if (!o.ok) {
        ++res->failed;
        continue;
      }
      *rows += o.rows;
      requests.push_back(o.request);
    }
  }
  return requests;
}

}  // namespace perfbench
