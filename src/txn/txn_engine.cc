#include "src/txn/txn_engine.h"

#include "src/common/metrics.h"

namespace youtopia {

StatusOr<AggregateGroups> TxnEngine::AggregateTable(Transaction* txn, Table* t,
                                                    AccessPlan plan,
                                                    const AggregateSpec& spec,
                                                    ReadOrigin origin) {
  // The generic fold: one cursor, one aggregator, batch-at-a-time. On a
  // sharded engine this is the *row-shipping* path — OpenCursor fans out
  // and every surviving row crosses the shard boundary before folding.
  YT_ASSIGN_OR_RETURN(auto cursor,
                      OpenCursor(txn, t, std::move(plan), origin));
  Aggregator agg(spec);
  RowBatch batch;
  while (true) {
    YT_ASSIGN_OR_RETURN(bool more, cursor->NextBatch(&batch));
    if (!more) break;
    for (const auto& [rid, row] : batch.rows) agg.Accumulate(row);
  }
  YT_RETURN_IF_ERROR(agg.Finish());
  return agg.TakeGroups();
}

void TxnEngine::StartTransaction(Transaction* txn, bool mvcc_reads,
                                 SnapshotRegistry* snapshots,
                                 const VersionClock& clock) {
  if (metrics_enabled()) {
    const TraceContext& ctx = CurrentTraceContext();
    if (ctx.trace_id != 0) {
      txn->set_trace_id(ctx.trace_id);
    } else if (Tracer::Global()->ShouldSample()) {
      txn->set_trace_id(Tracer::Global()->NewTraceId());
    }
  }
  if (mvcc_reads && txn->isolation_level() == IsolationLevel::kSnapshot) {
    txn->set_read_ts(snapshots->RegisterCurrent(clock));
    txn->set_snapshot_registered(true);
  }
}

void TxnEngine::RefreshSnapshot(Transaction* txn, bool grounding,
                                SnapshotRegistry* snapshots,
                                const VersionClock& clock) {
  if (txn->external_read_ts()) return;  // the coordinator owns the cut
  if (txn->isolation_level() == IsolationLevel::kSnapshot &&
      txn->snapshot_registered()) {
    return;  // pinned at Begin for the whole transaction
  }
  if (txn->read_ts() != 0 && (txn->open_cursors() > 0 || grounding)) return;
  if (txn->snapshot_registered()) {
    txn->set_read_ts(snapshots->RefreshCurrent(txn->read_ts(), clock));
  } else {
    txn->set_read_ts(snapshots->RegisterCurrent(clock));
    txn->set_snapshot_registered(true);
  }
}

void TxnEngine::ReleaseSnapshot(Transaction* txn, SnapshotRegistry* snapshots) {
  if (!txn->snapshot_registered()) return;
  snapshots->Unregister(txn->read_ts());
  txn->set_snapshot_registered(false);
}

}  // namespace youtopia
