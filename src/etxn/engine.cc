#include "src/etxn/engine.h"

#include "src/common/fault.h"

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
    if (r.committed + r.failed + r.timed_out == 0) {
      // Nothing resolved (the pool is empty, or every program waits for a
      // partner that has not come): let time pass so deadlines can expire
      // (advances ManualClock in tests) instead of re-running at once.
      clock_->SleepMicros(1000);
    }
  }
}

size_t EntangledTransactionEngine::RunState::Root(size_t i) {
  while (group[i] != i) i = group[i] = group[group[i]];
  return i;
}

void EntangledTransactionEngine::RollbackParticipant(Participant* p) {
  if (p->txn != nullptr && p->txn->active()) {
    (void)tm_->Abort(p->txn.get());
  }
  p->txn.reset();
}

void EntangledTransactionEngine::Retry(Participant* p) {
  RollbackParticipant(p);
  if (p->entry.spec->transactional) {
    p->entry.resume_index = 0;
    p->entry.saved_vars.clear();
  } else {
    p->entry.resume_index = p->stmt_index;
    p->entry.saved_vars = p->vars;
  }
  p->state = PState::kRetry;
}

void EntangledTransactionEngine::Resolve(const PoolEntry& e, Outcome o,
                                         RunReport* report, Status s,
                                         TxnId txn, sql::VarEnv vars) {
  // Counters before Resolve: a client woken by Wait() must already see its
  // own outcome in stats().
  switch (o) {
    case Outcome::kCommitted:
      ++report->committed;
      stats_.committed.fetch_add(1, std::memory_order_relaxed);
      break;
    case Outcome::kFailed:
      ++report->failed;
      stats_.failed.fetch_add(1, std::memory_order_relaxed);
      break;
    case Outcome::kTimedOut:
      ++report->timed_out;
      stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  e.handle->Resolve(std::move(s), txn, std::move(vars));
}

bool EntangledTransactionEngine::ExpireIfDue(const PoolEntry& e, int64_t now,
                                             RunReport* report) {
  if (now < e.deadline_micros) return false;
  const char* what = e.spec->NumEntangledQueries() > 0
                         ? "' timed out waiting for partners"
                         : "' timed out";
  Resolve(e, Outcome::kTimedOut, report,
          Status::TimedOut("entangled transaction '" + e.spec->name + what));
  return true;
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
  const int64_t now = Now();
  for (PoolEntry& e : entries) {
    if (ExpireIfDue(e, now, &report)) continue;
    auto p = std::make_unique<Participant>();
    p->index = run.participants.size();
    p->vars = e.saved_vars;
    p->stmt_index = e.resume_index;
    p->entry = std::move(e);
    p->entry.handle->BumpAttempts();
    run.group.push_back(p->index);
    run.participants.push_back(std::move(p));
  }
  report.participants = run.participants.size();

  for (auto& p : run.participants) run.admission.push_back(p.get());
  run.free_slots = options_.num_connections;
  Admit(&run);
  // Figure 5's barrier: once no round trip is due, every admitted program
  // is parked, ready, retrying or failed, and no slot is free for a queued
  // one.
  do {
    while (!run.due.empty()) {
      auto [lands, p] = run.due.front();
      run.due.pop_front();
      const int64_t wait = lands - Now();
      if (wait > 0) clock_->SleepMicros(wait);
      Step(&run, p);
    }
  } while (EvaluatePending(&run, &report));

  FinalizeRun(&run, &report);
  return report;
}

void EntangledTransactionEngine::Send(RunState* run, Participant* p) {
  p->state = PState::kRunning;
  run->due.emplace_back(Now() + options_.statement_latency_micros, p);
}

void EntangledTransactionEngine::Admit(RunState* run) {
  while (run->free_slots > 0 && !run->admission.empty()) {
    --run->free_slots;
    Send(run, run->admission.front());
    run->admission.pop_front();
  }
}

void EntangledTransactionEngine::Step(RunState* run, Participant* p) {
  const EntangledTransactionSpec& spec = *p->entry.spec;
  PState next = PState::kRunning;
  if (spec.transactional && p->txn == nullptr) {
    p->txn = tm_->Begin(spec.isolation);  // BEGIN
  } else if (p->stmt_index < spec.statements.size()) {
    next = ExecuteStatement(p, spec.statements[p->stmt_index]);
    if (next == PState::kRunning) ++p->stmt_index;
  } else {
    next = PState::kReady;  // COMMIT: FinalizeRun commits the group
  }
  Settle(run, p, next);
}

void EntangledTransactionEngine::Settle(RunState* run, Participant* p,
                                        PState next) {
  // A non-transactional program has no COMMIT round trip.
  if (next == PState::kRunning && !p->entry.spec->transactional &&
      p->stmt_index == p->entry.spec->statements.size()) {
    next = PState::kReady;
  }
  switch (next) {
    case PState::kRunning:
      Send(run, p);
      return;
    case PState::kWaitingEq:
      p->state = next;  // parked: keeps its slot
      return;
    case PState::kRetry:
      Retry(p);
      break;
    case PState::kFailed:
      RollbackParticipant(p);
      p->state = PState::kFailed;
      break;
    default:
      p->state = next;
      break;
  }
  ++run->free_slots;
  Admit(run);
}

EntangledTransactionEngine::PState
EntangledTransactionEngine::ExecuteStatement(Participant* p,
                                             const Statement& stmt) {
  const sql::ParsedStatement& parsed = *stmt.parsed;
  switch (parsed.kind) {
    case sql::StatementKind::kEntangledSelect: {
      auto compiled = eq::Compiler::Compile(
          *parsed.entangled, p->vars, *tm_->db(),
          p->entry.spec->name + "#q" + std::to_string(p->stmt_index));
      if (!compiled.ok()) {
        p->final_status = compiled.status();
        return PState::kFailed;
      }
      p->pending_eq = std::move(compiled).value();
      return PState::kWaitingEq;
    }
    case sql::StatementKind::kRollback:
      p->final_status = Status::Aborted("explicit ROLLBACK in program '" +
                                        p->entry.spec->name + "'");
      return PState::kFailed;
    case sql::StatementKind::kBegin:
    case sql::StatementKind::kCommit:
      return PState::kRunning;  // stripped by FromScript normally
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
  if (result.ok()) return PState::kRunning;

  const Status& s = result.status();
  if (s.code() == StatusCode::kAborted || s.code() == StatusCode::kTimedOut) {
    // Deadlock victim / lock-wait timeout: transient, retry in a later run.
    return PState::kRetry;
  }
  p->final_status = s;
  return PState::kFailed;
}

bool EntangledTransactionEngine::EvaluatePending(RunState* run,
                                                 RunReport* report) {
  std::vector<Participant*> parked;
  for (auto& p : run->participants) {
    if (p->state == PState::kWaitingEq) parked.push_back(p.get());
  }
  if (parked.empty()) return false;
  ++report->eval_rounds;
  stats_.eval_rounds.fetch_add(1, std::memory_order_relaxed);

  // Ground every parked query on the current database, each under its own
  // transaction's locks (non-transactional programs ground in a short
  // read-only transaction).
  std::vector<eq::EvalItem> items;
  std::vector<Participant*> item_owner;
  std::vector<Transaction*> item_txn;
  std::vector<std::unique_ptr<Transaction>> temp_txns;
  for (Participant* p : parked) {
    Transaction* gtxn = p->txn.get();
    if (gtxn == nullptr) {
      temp_txns.push_back(tm_->Begin(p->entry.spec->isolation));
      gtxn = temp_txns.back().get();
    }
    auto groundings = eq::Grounder::Ground(*p->pending_eq, tm_, gtxn);
    if (!groundings.ok()) {
      Retry(p);
      continue;
    }
    eq::EvalItem item;
    item.spec = &*p->pending_eq;
    item.txn = gtxn->id();
    item.groundings = std::move(groundings).value();
    items.push_back(std::move(item));
    item_owner.push_back(p);
    item_txn.push_back(gtxn);
  }

  eq::EvalResult result;
  if (!items.empty()) {
    EntanglementId first =
        next_eid_.fetch_add(items.size(), std::memory_order_relaxed);
    result = eq::Coordinator::Evaluate(items, first);
    // Report each entanglement to the schedule observer; the group's one
    // commit decision, not a log record, makes it atomic. A
    // non-transactional member's grounding transaction stands in for it.
    for (const auto& [eid, idxs] : result.operations) {
      std::vector<Transaction*> members;
      for (size_t idx : idxs) members.push_back(item_txn[idx]);
      if (members.size() >= 2) {
        (void)tm_->LogEntangle(eid, members);
      }
      ++report->entangle_ops;
      stats_.entangle_ops.fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (auto& t : temp_txns) {
    if (t->active()) (void)tm_->Commit(t.get());
  }

  // Answered and empty-success queries resume past the query; the rest
  // stay parked for the next barrier.
  bool progress = false;
  for (size_t i = 0; i < items.size(); ++i) {
    Participant* p = item_owner[i];
    const eq::Outcome& o = result.outcomes[i];
    if (o.kind == eq::OutcomeKind::kNoPartner) continue;
    for (const auto& b : p->pending_eq->answer_bindings) {
      if (o.kind == eq::OutcomeKind::kEmptySuccess) {
        // Combined query formulated but evaluation was empty: proceed with
        // NULL bindings (Appendix B success-with-empty-answer).
        p->vars[b.var] = Value::Null();
      } else if (b.head_index < o.answers.size() &&
                 b.term_index < o.answers[b.head_index].second.size()) {
        p->vars[b.var] = o.answers[b.head_index].second[b.term_index];
      }
    }
    for (size_t j : o.partners) {
      run->group[run->Root(p->index)] = run->Root(item_owner[j]->index);
    }
    p->pending_eq.reset();
    ++p->stmt_index;
    p->state = PState::kRunning;
    progress = true;
  }
  if (!progress) {
    // Nothing can be answered in this wave: abort the blocked transactions
    // back to the pool (paper §4).
    for (Participant* p : parked) {
      if (p->state == PState::kWaitingEq) Retry(p);
    }
  }

  for (Participant* p : parked) {
    if (p->state == PState::kRetry) {
      ++run->free_slots;
    } else if (p->state == PState::kRunning) {
      Settle(run, p, PState::kRunning);
    }
  }
  Admit(run);
  return true;
}

void EntangledTransactionEngine::FinalizeRun(RunState* run,
                                             RunReport* report) {
  // One group per union-find root; a plain program is a group of one. A
  // group commits iff every transactional member is ready.
  struct Group {
    size_t size = 0;
    bool all_ready = true;
    std::vector<Transaction*> txns;
    Status status;  ///< the commit's, once attempted
  };
  auto& parts = run->participants;
  std::vector<Group> groups(parts.size());
  for (auto& p : parts) {
    Group& g = groups[run->Root(p->index)];
    ++g.size;
    if (!p->entry.spec->transactional) continue;
    if (p->state == PState::kReady) {
      g.txns.push_back(p->txn.get());
    } else {
      g.all_ready = false;
    }
  }
  for (Group& g : groups) {
    if (!g.all_ready || g.txns.empty()) continue;
    g.status = tm_->CommitGroup(g.txns);
    if (g.status.ok() && g.size > 1) ++report->group_commits;
  }

  // Resolve in run order, so retried programs keep their relative order.
  const bool crashed = FaultInjector::Global()->crashed();
  const int64_t now = Now();
  std::vector<PoolEntry> requeue;
  for (auto& up : parts) {
    Participant* p = up.get();
    const Group& g = groups[run->Root(p->index)];
    if (p->state == PState::kReady) {
      // A non-transactional program's statements committed as they ran.
      if (!p->entry.spec->transactional || (g.all_ready && g.status.ok())) {
        Resolve(p->entry, Outcome::kCommitted, report, Status::Ok(),
                p->txn != nullptr ? p->txn->id() : 0, p->vars);
        continue;
      }
      if (g.all_ready && crashed) {
        // The commit failed with the process-wide crash latched. Every WAL
        // is frozen, so a retry could only time out: the client gets the
        // commit's own status, and the transaction stays as the crash left
        // it for recovery to decide.
        Resolve(p->entry, Outcome::kFailed, report, g.status, 0, p->vars);
        continue;
      }
      // Widow prevention (a partner aborted or is blocked), or a commit
      // that failed and aborted the group: roll back and retry later.
      Retry(p);
    }
    if (p->state == PState::kRetry) {
      if (!ExpireIfDue(p->entry, now, report)) {
        requeue.push_back(std::move(p->entry));
        ++report->retried;
        stats_.retried.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (p->state == PState::kFailed) {
      Resolve(p->entry, Outcome::kFailed, report, p->final_status, 0,
              p->vars);
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
