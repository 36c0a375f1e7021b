#include "src/etxn/engine.h"

#include <algorithm>
#include <map>

namespace youtopia::etxn {

EntangledTransactionEngine::EntangledTransactionEngine(TxnEngine* tm,
                                                       EngineOptions options)
    : tm_(tm),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Default()),
      executor_(tm) {
  if (options_.num_connections == 0) options_.num_connections = 1;
  if (options_.run_frequency < 1) options_.run_frequency = 1;
  connections_ = std::make_unique<ThreadPool>(options_.num_connections);
  if (options_.auto_scheduler) {
    scheduler_ = std::make_unique<std::thread>([this] { SchedulerLoop(); });
  }
}

EntangledTransactionEngine::~EntangledTransactionEngine() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  scheduler_cv_.notify_all();
  controller_cv_.notify_all();
  if (scheduler_ != nullptr) scheduler_->join();
  // Resolve anything still dormant so no client blocks forever.
  std::deque<PoolEntry> leftovers;
  {
    std::lock_guard<std::mutex> g(mu_);
    leftovers.swap(dormant_);
  }
  for (PoolEntry& e : leftovers) {
    e.handle->Resolve(Status::Aborted("engine shut down"), 0, {});
  }
  connections_.reset();
}

std::shared_ptr<TxnHandle> EntangledTransactionEngine::Submit(
    EntangledTransactionSpec spec) {
  PoolEntry entry;
  int64_t timeout = spec.timeout_micros > 0 ? spec.timeout_micros
                                            : options_.default_timeout_micros;
  entry.spec = std::make_shared<EntangledTransactionSpec>(std::move(spec));
  entry.handle = std::make_shared<TxnHandle>();
  entry.deadline_micros = Now() + timeout;
  std::shared_ptr<TxnHandle> handle = entry.handle;
  {
    std::lock_guard<std::mutex> g(mu_);
    dormant_.push_back(std::move(entry));
    ++arrivals_since_run_;
  }
  scheduler_cv_.notify_all();
  return handle;
}

size_t EntangledTransactionEngine::dormant_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return dormant_.size();
}

void EntangledTransactionEngine::SchedulerLoop() {
  std::unique_lock<std::mutex> l(mu_);
  while (!stop_) {
    scheduler_cv_.wait_for(
        l, std::chrono::microseconds(options_.scheduler_poll_micros), [this] {
          return stop_ ||
                 (!run_in_progress_ && !dormant_.empty() &&
                  arrivals_since_run_ >=
                      static_cast<size_t>(options_.run_frequency));
        });
    if (stop_) return;
    if (run_in_progress_ || dormant_.empty()) continue;
    run_in_progress_ = true;
    arrivals_since_run_ = 0;
    std::vector<PoolEntry> entries(dormant_.begin(), dormant_.end());
    dormant_.clear();
    l.unlock();
    (void)ExecuteRun(std::move(entries));
    l.lock();
    run_in_progress_ = false;
    controller_cv_.notify_all();
  }
}

RunReport EntangledTransactionEngine::RunOnce() {
  std::vector<PoolEntry> entries;
  {
    std::unique_lock<std::mutex> l(mu_);
    controller_cv_.wait(l, [this] { return !run_in_progress_ || stop_; });
    if (stop_) return RunReport{};
    run_in_progress_ = true;
    arrivals_since_run_ = 0;
    entries.assign(dormant_.begin(), dormant_.end());
    dormant_.clear();
  }
  RunReport report = ExecuteRun(std::move(entries));
  {
    std::lock_guard<std::mutex> g(mu_);
    run_in_progress_ = false;
  }
  controller_cv_.notify_all();
  return report;
}

void EntangledTransactionEngine::WaitAll(
    const std::vector<std::shared_ptr<TxnHandle>>& handles) {
  if (options_.auto_scheduler) {
    for (const auto& h : handles) (void)h->Wait();
    return;
  }
  for (;;) {
    bool all_done = true;
    for (const auto& h : handles) {
      if (!h->done()) {
        all_done = false;
        break;
      }
    }
    if (all_done) return;
    RunReport r = RunOnce();
    if (r.participants == 0) {
      // Pool momentarily empty but handles unresolved: let time pass so
      // deadlines can expire (advances ManualClock in tests).
      clock_->SleepMicros(1000);
    }
  }
}

void EntangledTransactionEngine::SleepLatency() {
  if (options_.statement_latency_micros > 0) {
    clock_->SleepMicros(options_.statement_latency_micros);
  }
}

void EntangledTransactionEngine::RollbackParticipant(Participant* p) {
  if (p->txn != nullptr && p->txn->active()) {
    (void)tm_->Abort(p->txn.get());
  }
  p->txn.reset();
}

RunReport EntangledTransactionEngine::ExecuteRun(
    std::vector<PoolEntry> entries) {
  RunReport report;
  {
    std::lock_guard<std::mutex> g(mu_);
    report.run_id = next_run_id_++;
  }
  stats_.runs.fetch_add(1, std::memory_order_relaxed);

  RunState run;
  int64_t now = Now();
  for (PoolEntry& e : entries) {
    if (now >= e.deadline_micros) {
      // Counters before Resolve: a client woken by Wait() must already
      // see its own outcome in stats().
      ++report.timed_out;
      stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
      e.handle->Resolve(
          Status::TimedOut("entangled transaction '" + e.spec->name +
                           "' timed out waiting for partners"),
          0, {});
      continue;
    }
    auto p = std::make_unique<Participant>();
    p->entry = std::move(e);
    p->entry.handle->BumpAttempts();
    run.participants.push_back(std::move(p));
  }
  report.participants = run.participants.size();
  if (run.participants.empty()) return report;

  for (auto& p : run.participants) {
    Participant* raw = p.get();
    RunState* run_ptr = &run;
    connections_->Submit([this, run_ptr, raw] { RunParticipant(run_ptr, raw); });
  }

  // Controller loop: wait for quiescence, evaluate pending entangled
  // queries jointly, repeat until no progress; then finalize.
  std::unique_lock<std::mutex> l(mu_);
  for (;;) {
    controller_cv_.wait_for(l, std::chrono::milliseconds(2));
    if (run.running > 0) continue;
    size_t queued = 0;
    size_t parked = 0;     // any participant still inside the eq wait,
                           // whether or not its decision was delivered —
                           // its worker thread may still be waking up and
                           // touching participant state
    size_t undecided = 0;  // parked and awaiting a decision
    for (auto& p : run.participants) {
      if (p->state == PState::kQueued) ++queued;
      if (p->state == PState::kWaitingEq) {
        ++parked;
        if (p->decision == EqDecision::kNone) ++undecided;
      }
    }
    if (queued > 0 && parked < options_.num_connections) {
      continue;  // free connections exist: the pool will start them
    }
    // Only evaluate once every parked participant's previous decision has
    // been consumed (parked == undecided), so a delivered-but-not-yet-awake
    // worker is never raced.
    if (undecided > 0 && undecided == parked) {
      l.unlock();
      bool progress = EvaluatePending(&run, &report);
      l.lock();
      if (!progress) {
        // Nothing can be answered in this wave: abort the blocked
        // transactions back to the pool (paper §4).
        for (auto& p : run.participants) {
          if (p->state == PState::kWaitingEq &&
              p->decision == EqDecision::kNone) {
            p->decision = EqDecision::kRetryRun;
            p->cv.notify_all();
          }
        }
      }
      continue;
    }
    // Exit only when no worker can still be inside RunParticipant: nothing
    // running, nothing queued, and nobody parked (even with a delivered
    // decision — those workers are mid-wakeup).
    if (queued == 0 && parked == 0 && run.running == 0) break;
  }
  l.unlock();

  FinalizeRun(&run, &report);
  return report;
}

bool EntangledTransactionEngine::EvaluatePending(RunState* run,
                                                 RunReport* report) {
  // Snapshot parked participants with undelivered decisions.
  std::vector<Participant*> pending;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& p : run->participants) {
      if (p->state == PState::kWaitingEq && p->decision == EqDecision::kNone &&
          p->pending_eq.has_value()) {
        pending.push_back(p.get());
      }
    }
  }
  if (pending.empty()) return false;
  ++report->eval_rounds;
  stats_.eval_rounds.fetch_add(1, std::memory_order_relaxed);

  // Ground every pending query on the current database, each under its own
  // transaction's locks (non-transactional programs ground in a short
  // read-only transaction).
  std::vector<eq::EvalItem> items;
  std::vector<std::unique_ptr<Transaction>> temp_txns(pending.size());
  std::vector<Participant*> item_owner;
  std::vector<Participant*> ground_failures;
  for (size_t i = 0; i < pending.size(); ++i) {
    Participant* p = pending[i];
    Transaction* gtxn = p->txn.get();
    if (gtxn == nullptr) {
      temp_txns[i] = tm_->Begin(p->entry.spec->isolation);
      gtxn = temp_txns[i].get();
    }
    auto groundings = eq::Grounder::Ground(*p->pending_eq, tm_, gtxn);
    if (!groundings.ok()) {
      ground_failures.push_back(p);
      continue;
    }
    eq::EvalItem item;
    item.spec = &*p->pending_eq;
    item.txn = gtxn->id();
    item.groundings = std::move(groundings).value();
    items.push_back(std::move(item));
    item_owner.push_back(p);
  }

  eq::EvalResult result;
  if (!items.empty()) {
    EntanglementId first =
        next_eid_.fetch_add(items.size(), std::memory_order_relaxed);
    result = eq::Coordinator::Evaluate(items, first);
    // Make the entanglement persistent (ENTANGLE WAL record) and visible to
    // the schedule recorder.
    for (const auto& [eid, idxs] : result.operations) {
      std::vector<Transaction*> members;
      for (size_t idx : idxs) {
        Participant* p = item_owner[idx];
        Transaction* t = p->txn != nullptr ? p->txn.get() : nullptr;
        if (t == nullptr) {
          // Non-transactional: the grounding transaction stands in.
          for (size_t k = 0; k < pending.size(); ++k) {
            if (pending[k] == p && temp_txns[k] != nullptr) {
              t = temp_txns[k].get();
            }
          }
        }
        if (t != nullptr) members.push_back(t);
      }
      if (members.size() >= 2) {
        (void)tm_->LogEntangle(eid, members);
      }
      ++report->entangle_ops;
      stats_.entangle_ops.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Release the short grounding transactions (-Q path).
  for (auto& t : temp_txns) {
    if (t != nullptr && t->active()) (void)tm_->Commit(t.get());
  }

  // Deliver decisions.
  bool progress = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (size_t i = 0; i < items.size(); ++i) {
      Participant* p = item_owner[i];
      const eq::Outcome& o = result.outcomes[i];
      switch (o.kind) {
        case eq::OutcomeKind::kAnswered:
          p->decision = EqDecision::kAnswered;
          p->answer = o.answers;
          progress = true;
          if (o.eid != 0) {
            p->entangled = true;
            for (size_t j : o.partners) {
              Participant* q = item_owner[j];
              if (std::find(p->partners.begin(), p->partners.end(), q) ==
                  p->partners.end()) {
                p->partners.push_back(q);
              }
            }
          }
          break;
        case eq::OutcomeKind::kEmptySuccess:
          p->decision = EqDecision::kEmpty;
          progress = true;
          break;
        case eq::OutcomeKind::kNoPartner:
          break;  // stays parked; retried next round or retired
      }
      if (p->decision != EqDecision::kNone) p->cv.notify_all();
    }
    for (Participant* p : ground_failures) {
      p->decision = EqDecision::kRetryRun;
      p->cv.notify_all();
    }
  }
  return progress;
}

void EntangledTransactionEngine::RunParticipant(RunState* run,
                                                Participant* p) {
  const EntangledTransactionSpec& spec = *p->entry.spec;
  {
    std::lock_guard<std::mutex> g(mu_);
    p->state = PState::kRunning;
    ++run->running;
  }
  p->vars = p->entry.saved_vars;
  p->stmt_index = p->entry.resume_index;

  if (spec.transactional) {
    SleepLatency();  // BEGIN round trip
    p->txn = tm_->Begin(spec.isolation);
  }

  StepResult r = StepResult::kContinue;
  while (p->stmt_index < spec.statements.size()) {
    r = ExecuteStatement(run, p, spec.statements[p->stmt_index]);
    if (r != StepResult::kContinue) break;
    ++p->stmt_index;
  }
  if (r == StepResult::kContinue) {
    if (spec.transactional) SleepLatency();  // COMMIT round trip
    r = StepResult::kReadyToCommit;
  }

  PState final_state;
  switch (r) {
    case StepResult::kReadyToCommit:
      final_state = PState::kReady;
      break;
    case StepResult::kRetry:
      RollbackParticipant(p);
      final_state = PState::kRetry;
      break;
    case StepResult::kFail:
    default:
      RollbackParticipant(p);
      final_state = PState::kFailed;
      break;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    p->state = final_state;
    --run->running;
  }
  controller_cv_.notify_all();
}

EntangledTransactionEngine::StepResult
EntangledTransactionEngine::ExecuteStatement(RunState* run, Participant* p,
                                             const Statement& stmt) {
  SleepLatency();
  if (stmt.kind == Statement::Kind::kNative) {
    ExecContext ctx(&executor_, p->txn.get(), &p->vars);
    Status s = stmt.native(ctx);
    if (s.ok()) return StepResult::kContinue;
    p->final_status = s;  // native failures are application-level: permanent
    return StepResult::kFail;
  }

  const sql::ParsedStatement& parsed = *stmt.parsed;
  switch (parsed.kind) {
    case sql::StatementKind::kEntangledSelect:
      return HandleEntangledQuery(run, p, *parsed.entangled);
    case sql::StatementKind::kRollback:
      p->final_status = Status::Aborted("explicit ROLLBACK in program '" +
                                        p->entry.spec->name + "'");
      return StepResult::kFail;
    case sql::StatementKind::kBegin:
    case sql::StatementKind::kCommit:
      return StepResult::kContinue;  // stripped by FromScript normally
    default:
      break;
  }

  StatusOr<sql::QueryResult> result = Status::Internal("unreachable");
  if (p->entry.spec->transactional) {
    result = executor_.Execute(parsed, p->txn.get(), &p->vars);
  } else {
    std::unique_ptr<Transaction> txn = tm_->Begin(p->entry.spec->isolation);
    result = executor_.Execute(parsed, txn.get(), &p->vars);
    if (result.ok()) {
      Status c = tm_->Commit(txn.get());
      if (!c.ok()) result = c;
    } else {
      (void)tm_->Abort(txn.get());
    }
  }
  if (result.ok()) return StepResult::kContinue;

  const Status& s = result.status();
  if (s.code() == StatusCode::kAborted || s.code() == StatusCode::kTimedOut) {
    // Deadlock victim / lock-wait timeout: transient, retry in a later run.
    if (!p->entry.spec->transactional) {
      p->entry.resume_index = p->stmt_index;  // resume at this statement
      p->entry.saved_vars = p->vars;
    } else {
      p->entry.resume_index = 0;
      p->entry.saved_vars.clear();
    }
    return StepResult::kRetry;
  }
  p->final_status = s;
  return StepResult::kFail;
}

EntangledTransactionEngine::StepResult
EntangledTransactionEngine::HandleEntangledQuery(
    RunState* run, Participant* p, const sql::EntangledSelectStmt& stmt) {
  auto compiled = eq::Compiler::Compile(
      stmt, p->vars, *tm_->db(),
      p->entry.spec->name + "#q" + std::to_string(p->stmt_index));
  if (!compiled.ok()) {
    p->final_status = compiled.status();
    return StepResult::kFail;
  }
  eq::EntangledQuerySpec spec_copy = compiled.value();

  EqDecision decision;
  std::vector<std::pair<std::string, Row>> answer;
  {
    std::unique_lock<std::mutex> l(mu_);
    p->pending_eq = std::move(compiled).value();
    p->decision = EqDecision::kNone;
    p->answer.clear();
    p->state = PState::kWaitingEq;
    --run->running;
    controller_cv_.notify_all();
    p->cv.wait(l, [p] { return p->decision != EqDecision::kNone; });
    decision = p->decision;
    p->decision = EqDecision::kNone;
    answer = std::move(p->answer);
    p->pending_eq.reset();
    p->state = PState::kRunning;
    ++run->running;
  }

  switch (decision) {
    case EqDecision::kAnswered: {
      // Bind AS @var positions from the answer tuple(s).
      for (const auto& b : spec_copy.answer_bindings) {
        if (b.head_index < answer.size() &&
            b.term_index < answer[b.head_index].second.size()) {
          p->vars[b.var] = answer[b.head_index].second[b.term_index];
        }
      }
      return StepResult::kContinue;
    }
    case EqDecision::kEmpty: {
      // Combined query formulated but evaluation was empty: proceed with
      // NULL bindings (Appendix B success-with-empty-answer).
      for (const auto& b : spec_copy.answer_bindings) {
        p->vars[b.var] = Value::Null();
      }
      return StepResult::kContinue;
    }
    case EqDecision::kRetryRun:
    default: {
      if (!p->entry.spec->transactional) {
        p->entry.resume_index = p->stmt_index;  // resume at this query
        p->entry.saved_vars = p->vars;
      } else {
        p->entry.resume_index = 0;
        p->entry.saved_vars.clear();
      }
      return StepResult::kRetry;
    }
  }
}

void EntangledTransactionEngine::FinalizeRun(RunState* run,
                                             RunReport* report) {
  auto& parts = run->participants;
  const size_t n = parts.size();

  // Union-find over participants along entanglement partner edges.
  std::vector<size_t> dsu(n);
  for (size_t i = 0; i < n; ++i) dsu[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (dsu[x] != x) {
      dsu[x] = dsu[dsu[x]];
      x = dsu[x];
    }
    return x;
  };
  std::map<Participant*, size_t> index_of;
  for (size_t i = 0; i < n; ++i) index_of[parts[i].get()] = i;
  for (size_t i = 0; i < n; ++i) {
    for (Participant* q : parts[i]->partners) {
      auto it = index_of.find(q);
      if (it != index_of.end()) dsu[find(i)] = find(it->second);
    }
  }
  std::map<size_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) groups[find(i)].push_back(i);

  for (auto& [root, members] : groups) {
    (void)root;
    // A group commits iff every *transactional* member is ready. (Singleton
    // non-entangled groups degrade to plain commit.)
    bool all_ready = true;
    bool any_entangled = false;
    std::vector<Participant*> txn_members;
    for (size_t i : members) {
      Participant* p = parts[i].get();
      if (p->entangled) any_entangled = true;
      if (p->entry.spec->transactional) {
        txn_members.push_back(p);
        if (p->state != PState::kReady) all_ready = false;
      }
    }

    if (all_ready && any_entangled && !txn_members.empty()) {
      std::vector<Transaction*> txns;
      for (Participant* p : txn_members) {
        if (p->txn != nullptr) txns.push_back(p->txn.get());
      }
      Status s = txns.empty() ? Status::Ok() : tm_->CommitGroup(txns);
      if (s.ok()) {
        ++report->group_commits;
        for (size_t i : members) {
          Participant* p = parts[i].get();
          if (p->state == PState::kReady) {
            // Counters before Resolve (see ExecuteRun).
            ++report->committed;
            stats_.committed.fetch_add(1, std::memory_order_relaxed);
            p->entry.handle->Resolve(
                Status::Ok(), p->txn != nullptr ? p->txn->id() : 0, p->vars);
            p->state = PState::kRunning;  // consumed marker
          }
        }
      } else {
        for (Participant* p : txn_members) {
          if (p->state == PState::kReady) {
            RollbackParticipant(p);
            p->state = PState::kRetry;
          }
        }
      }
    } else if (any_entangled) {
      // Widow prevention: some member aborted/blocked — every ready
      // transactional partner must abort too and retry later.
      for (Participant* p : txn_members) {
        if (p->state == PState::kReady) {
          RollbackParticipant(p);
          p->entry.resume_index = 0;
          p->entry.saved_vars.clear();
          p->state = PState::kRetry;
        }
      }
    }
  }

  // Second pass: everything not consumed above.
  std::vector<PoolEntry> requeue;
  int64_t now = Now();
  for (auto& up : parts) {
    Participant* p = up.get();
    switch (p->state) {
      case PState::kReady: {
        // Non-entangled (or non-transactional) completion.
        Status s = Status::Ok();
        TxnId id = 0;
        if (p->txn != nullptr) {
          id = p->txn->id();
          s = p->txn->entangled()
                  ? tm_->CommitGroup({p->txn.get()})
                  : tm_->Commit(p->txn.get());
        }
        if (s.ok()) {
          ++report->committed;
          stats_.committed.fetch_add(1, std::memory_order_relaxed);
          p->entry.handle->Resolve(Status::Ok(), id, p->vars);
        } else {
          RollbackParticipant(p);
          if (now >= p->entry.deadline_micros) {
            ++report->timed_out;
            stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
            p->entry.handle->Resolve(
                Status::TimedOut("timed out after commit failure"), 0, {});
          } else {
            requeue.push_back(std::move(p->entry));
            ++report->retried;
            stats_.retried.fetch_add(1, std::memory_order_relaxed);
          }
        }
        break;
      }
      case PState::kRetry: {
        if (now >= p->entry.deadline_micros) {
          ++report->timed_out;
          stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
          p->entry.handle->Resolve(
              Status::TimedOut("entangled transaction '" +
                               p->entry.spec->name +
                               "' timed out waiting for partners"),
              0, {});
        } else {
          requeue.push_back(std::move(p->entry));
          ++report->retried;
          stats_.retried.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      case PState::kFailed: {
        RollbackParticipant(p);
        ++report->failed;
        stats_.failed.fetch_add(1, std::memory_order_relaxed);
        p->entry.handle->Resolve(p->final_status, 0, p->vars);
        break;
      }
      default:
        break;  // consumed by a group commit above
    }
  }
  if (!requeue.empty()) {
    // Retried transactions keep their FIFO seniority: they re-enter at the
    // FRONT of the dormant pool (in their original relative order), ahead
    // of anything that arrived while the run executed. Otherwise a
    // transaction whose partner arrived mid-run can leapfrog it forever
    // when the pool is saturated with pending transactions (observed at
    // p == num_connections in the Fig 6(b) setup).
    std::lock_guard<std::mutex> g(mu_);
    for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
      dormant_.push_front(std::move(*it));
    }
  }
  scheduler_cv_.notify_all();
}

}  // namespace youtopia::etxn
