#include "src/sql/session_server.h"

#include <algorithm>

#include "src/common/metrics.h"

namespace youtopia::sql {

namespace {

struct ServerMetricHandles {
  Gauge* queue_depth;  ///< submitted-not-finished statements (+ high water)
  Counter* served;
};

const ServerMetricHandles& ServerMetrics() {
  static const ServerMetricHandles h = [] {
    MetricsRegistry* r = MetricsRegistry::Global();
    return ServerMetricHandles{r->gauge("sql.server.queue_depth"),
                               r->counter("sql.server.statements_served")};
  }();
  return h;
}

}  // namespace

SessionServer::SessionServer(TxnEngine* engine, Options options)
    : engine_(engine) {
  size_t n = std::max<size_t>(1, options.num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

SessionServer::~SessionServer() {
  Drain();
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

SessionServer::SessionId SessionServer::OpenSession() {
  std::lock_guard<std::mutex> g(mu_);
  SessionId id = next_id_++;
  auto state = std::make_unique<SessionState>();
  state->session = std::make_unique<Session>(engine_);
  states_.emplace(id, std::move(state));
  return id;
}

Session* SessionServer::session(SessionId id) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = states_.find(id);
  return it == states_.end() ? nullptr : it->second->session.get();
}

size_t SessionServer::num_sessions() const {
  std::lock_guard<std::mutex> g(mu_);
  return states_.size();
}

void SessionServer::Submit(SessionId id, std::string sql,
                           ResultCallback done) {
  {
    std::unique_lock<std::mutex> g(mu_);
    auto it = states_.find(id);
    if (it == states_.end()) {
      g.unlock();  // the callback may call back into the server
      if (done) {
        done(Status::InvalidArgument("unknown session " + std::to_string(id)));
      }
      return;
    }
    SessionState* st = it->second.get();
    st->queue.emplace_back(std::move(sql), std::move(done));
    ++pending_;
    if (metrics_enabled()) {
      ServerMetrics().queue_depth->Set(static_cast<int64_t>(pending_));
    }
    if (!st->scheduled) {
      st->scheduled = true;
      ready_.push_back(id);
    }
  }
  cv_.notify_one();
}

StatusOr<QueryResult> SessionServer::ExecuteSync(SessionId id,
                                                 const std::string& sql) {
  std::mutex m;
  std::condition_variable done_cv;
  bool done = false;
  StatusOr<QueryResult> out = Status::Internal("statement never ran");
  Submit(id, sql, [&](const StatusOr<QueryResult>& r) {
    std::lock_guard<std::mutex> g(m);
    out = r;
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock<std::mutex> g(m);
  done_cv.wait(g, [&] { return done; });
  return out;
}

void SessionServer::Drain() {
  std::unique_lock<std::mutex> g(mu_);
  drain_cv_.wait(g, [&] { return pending_ == 0; });
}

void SessionServer::RunNext(std::unique_lock<std::mutex>& g) {
  SessionId id = ready_.front();
  ready_.pop_front();
  SessionState* st = states_.find(id)->second.get();
  auto [sql, cb] = std::move(st->queue.front());
  st->queue.pop_front();
  g.unlock();
  StatusOr<QueryResult> result = st->session->Execute(sql);
  if (cb) cb(result);
  g.lock();
  served_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_enabled()) ServerMetrics().served->Add();
  if (!st->queue.empty()) {
    // Re-queue at the back: round-robin fairness across busy sessions.
    ready_.push_back(id);
    cv_.notify_one();
  } else {
    st->scheduled = false;
  }
  if (metrics_enabled()) {
    ServerMetrics().queue_depth->Set(static_cast<int64_t>(pending_ - 1));
  }
  if (--pending_ == 0) drain_cv_.notify_all();
}

void SessionServer::WorkerLoop() {
  std::unique_lock<std::mutex> g(mu_);
  while (true) {
    cv_.wait(g, [&] { return stop_ || !ready_.empty(); });
    if (stop_) break;
    RunNext(g);
  }
}

}  // namespace youtopia::sql
