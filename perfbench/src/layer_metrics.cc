#include "perfbench/src/workloads.h"

#include <algorithm>

#include "src/sql/parser.h"

namespace perfbench {

TxnCounts TxnCounts::Capture(youtopia::TxnEngine* top,
                             const std::vector<youtopia::TxnEngine*>& shards) {
  TxnCounts c;
  const youtopia::TxnStats& t = top->stats();
  c.commits = t.commits.load();
  c.aborts = t.aborts.load();
  c.single_shard_txns = t.single_shard_txns.load();
  c.two_phase_commits = t.two_phase_commits.load();
  for (youtopia::TxnEngine* e : shards) {
    const youtopia::TxnStats& s = e->stats();
    c.versions_pruned += s.versions_pruned.load();
    c.index_lookups += s.index_lookups.load() + s.range_lookups.load();
    c.table_scans += s.table_scans.load();
  }
  return c;
}

TxnCounts TxnCounts::operator-(const TxnCounts& o) const {
  TxnCounts d;
  d.commits = commits - o.commits;
  d.aborts = aborts - o.aborts;
  d.versions_pruned = versions_pruned - o.versions_pruned;
  d.index_lookups = index_lookups - o.index_lookups;
  d.table_scans = table_scans - o.table_scans;
  d.single_shard_txns = single_shard_txns - o.single_shard_txns;
  d.two_phase_commits = two_phase_commits - o.two_phase_commits;
  return d;
}

void AddEngineLayerMetrics(const RegistrySnapshot& before,
                           const RegistrySnapshot& after,
                           const TxnCounts& delta, uint64_t committed,
                           uint64_t statements, PassResult* out) {
  auto& pl = out->per_layer;
  const double txns = committed > 0 ? static_cast<double>(committed) : 1.0;
  const double stmts = statements > 0 ? static_cast<double>(statements) : 1.0;
  const double engine_commits =
      delta.commits > 0 ? static_cast<double>(delta.commits) : 1.0;
  auto counter = [&](const char* name) {
    return static_cast<double>(after.CounterDelta(before, name));
  };
  auto hist = [&](const char* prefix) {
    return after.HistogramDelta(before, prefix);
  };

  out->Add(&pl, "txn.aborts_per_commit",
           static_cast<double>(delta.aborts) / engine_commits, "ratio");
  out->Add(&pl, "txn.versions_pruned_per_commit",
           static_cast<double>(delta.versions_pruned) / engine_commits,
           "count");
  out->Add(&pl, "txn.index_lookups_per_stmt",
           static_cast<double>(delta.index_lookups) / stmts, "count");
  out->Add(&pl, "txn.table_scans_per_stmt",
           static_cast<double>(delta.table_scans) / stmts, "count");

  const youtopia::HistogramSnapshot stmt = hist("sql.statement_micros");
  out->Add(&pl, "sql.statement_us_p50", stmt.p50(), "us");
  out->Add(&pl, "sql.statement_us_p99", stmt.p99(), "us");
  out->Add(&pl, "sql.retries_per_stmt",
           counter("sql.statement_retries") / stmts, "ratio");
  out->Add(&pl, "sql.server.park_runs_per_commit",
           counter("sql.server.park_runs") / txns, "ratio");

  const youtopia::HistogramSnapshot lock_wait = hist("lock.wait_micros");
  out->Add(&pl, "lock.wait_us_per_txn",
           static_cast<double>(lock_wait.sum) / txns, "us");
  out->Add(&pl, "lock.waits_per_txn", counter("lock.waits") / txns, "ratio");
  out->Add(&pl, "lock.timeouts", counter("lock.timeouts"), "count");
  out->Add(&pl, "lock.deadlocks", counter("lock.deadlocks"), "count");

  out->Add(&pl, "wal.flushes_per_commit", counter("wal.flushes") / txns,
           "ratio");
  out->Add(&pl, "wal.flush_us_p50", hist("wal.flush_micros").p50(), "us");
  const youtopia::HistogramSnapshot gc_wait =
      hist("wal.group_commit_wait_micros");
  out->Add(&pl, "wal.group_commit_wait_us_p50", gc_wait.p50(), "us");
  out->Add(&pl, "wal.group_commit_wait_us_p99", gc_wait.p99(), "us");
  out->Add(&pl, "wal.batch_records_p50", hist("wal.batch_records").p50(),
           "count");

  const double routed = static_cast<double>(delta.single_shard_txns +
                                            delta.two_phase_commits);
  out->Add(&pl, "shard.two_phase_frac",
           routed > 0 ? static_cast<double>(delta.two_phase_commits) / routed
                      : 0.0,
           "ratio");
  out->Add(&pl, "shard.2pc_prepare_us_p50", hist("2pc.prepare_micros").p50(),
           "us");
  out->Add(&pl, "shard.2pc_decision_us_p50",
           hist("2pc.decision_micros").p50(), "us");
  out->Add(&pl, "shard.2pc_phase2_us_p50", hist("2pc.phase2_micros").p50(),
           "us");
}

double MedianParseMicros(const std::vector<std::string>& texts) {
  constexpr int kPasses = 5;
  std::vector<double> per_stmt;
  for (int pass = 0; pass < kPasses; ++pass) {
    const int64_t t0 = NowNanos();
    size_t parsed = 0;
    for (const std::string& t : texts) {
      parsed += youtopia::sql::Parser::ParseStatement(t).ok() ? 1 : 0;
    }
    const int64_t dt = NowNanos() - t0;
    if (parsed > 0) {
      per_stmt.push_back(static_cast<double>(dt) / 1e3 /
                         static_cast<double>(parsed));
    }
  }
  return Median(per_stmt);
}

void AddDurabilityMetrics(const std::vector<double>& setups,
                          const std::vector<double>& recoveries,
                          uint64_t wal_bytes, uint64_t wal_growth,
                          uint64_t committed, PassResult* out) {
  const double setup_s = Median(setups);
  const double recover_s =
      recoveries.empty()
          ? 0.0
          : *std::min_element(recoveries.begin(), recoveries.end());
  std::string note =
      "set-up in a fresh process, before and after the run (s):";
  for (double s : setups) note += " " + std::to_string(s);
  out->notes.push_back(note);
  note = "recovery in a fresh process (s):";
  for (double r : recoveries) note += " " + std::to_string(r);
  out->notes.push_back(note);
  auto& e = out->end_to_end;
  out->Add(&e, "setup_s", setup_s, "s");
  out->Add(&e, "recover_s", recover_s, "s");
  out->Add(&e, "wal_bytes_per_txn",
           committed > 0 ? static_cast<double>(wal_growth) /
                               static_cast<double>(committed)
                         : 0.0,
           "B");
  out->Add(&e, "rss_mb", PeakRssMb(), "MiB");
  out->Add(&out->per_layer, "wal.replay_mb_per_s",
           recover_s > 0
               ? static_cast<double>(wal_bytes) / (1024.0 * 1024.0) / recover_s
               : 0.0,
           "MiB/s");
}

}  // namespace perfbench
