#include "src/wal/group_commit.h"

#include <algorithm>
#include <chrono>

#include "src/common/clock.h"
#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/wal/wal_writer.h"

namespace youtopia {

namespace {

struct GroupCommitMetricHandles {
  Histogram* wait_micros;     ///< full WaitForDurable (ticket to resolution)
  Histogram* batch_records;   ///< LSNs covered per leader flush
};

const GroupCommitMetricHandles& GcMetrics() {
  static const GroupCommitMetricHandles h = [] {
    MetricsRegistry* r = MetricsRegistry::Global();
    return GroupCommitMetricHandles{
        r->histogram("wal.group_commit_wait_micros"),
        r->histogram("wal.batch_records")};
  }();
  return h;
}

/// Times one WaitForDurable call end to end: flush-wait attribution for the
/// calling statement plus the wait histogram and (when a trace is active) a
/// "wal.group_commit_wait" span. Declared before the queue mutex so the
/// destructor runs unlocked.
class FlushWaitRecorder {
 public:
  FlushWaitRecorder() {
    if (metrics_enabled()) start_ = SystemClock::Default()->NowMicros();
  }
  ~FlushWaitRecorder() {
    if (start_ < 0) return;
    const int64_t waited = SystemClock::Default()->NowMicros() - start_;
    CurrentThreadOpStats().flush_wait_micros += waited;
    GcMetrics().wait_micros->Record(waited);
    TraceContext& ctx = CurrentTraceContext();
    if (ctx.trace_id != 0) {
      Tracer::Span span;
      span.trace_id = ctx.trace_id;
      span.parent_id = ctx.span_id;
      span.span_id = Tracer::Global()->NewSpanId();
      span.name = "wal.group_commit_wait";
      span.start_micros = start_;
      span.duration_micros = waited;
      Tracer::Global()->Record(std::move(span));
    }
  }

 private:
  int64_t start_ = -1;
};

}  // namespace

void GroupCommitQueue::ResetHorizon() {
  {
    std::lock_guard<std::mutex> g(mu_);
    ++epoch_;
    durable_lsn_ = 0;
    failed_lsn_ = 0;
    failed_status_ = Status::Ok();
  }
  cv_.notify_all();  // stale-epoch tickets resolve immediately
}

Status GroupCommitQueue::FlushBatch() {
  FaultInjector* fi = FaultInjector::Global();
  if (fi->enabled()) {
    if (fi->crashed()) {
      return Status::Internal("WAL frozen by simulated crash at " +
                              fi->crash_site());
    }
    YT_RETURN_IF_ERROR(fi->Hit("wal.group_flush"));
  }
  return wal_->Flush();
}

Status GroupCommitQueue::WaitForDurable(uint64_t lsn) {
  waits_.fetch_add(1, std::memory_order_relaxed);
  FlushWaitRecorder wait_recorder;
  std::unique_lock<std::mutex> g(mu_);
  const uint64_t entry_epoch = epoch_;
  for (;;) {
    // Epoch first: a re-anchor (decision-log GC rewrite, recovery reopen)
    // happened while we waited. Our LSN means nothing in the new sequence
    // and no future flush can cover it — but the re-anchor contract says
    // the old log was made durable before the reset, so the ticket IS
    // durable. Waiting any longer would hang forever against a horizon
    // that restarted below us.
    if (epoch_ != entry_epoch) return Status::Ok();
    // Failure next: if a flush attempt covered our LSN and failed, our
    // durability is unknowable — report it even if a later retry succeeded
    // (conservative: the caller never acked, recovery replays or drops).
    if (lsn <= failed_lsn_) return failed_status_;
    if (lsn <= durable_lsn_) return Status::Ok();
    if (leader_active_) {
      // Follower: the leader's notify wakes us. The bounded wait doubles as
      // a safety net against a wedged leader under the crash latch.
      cv_.wait_for(g, std::chrono::milliseconds(1));
      continue;
    }
    // Leader election: first un-durable waiter with no flush in flight.
    // Everything appended up to here is in the stdio buffer; one flush
    // covers it all. Read the target before unlocking so we never claim
    // durability for records appended during the flush itself.
    leader_active_ = true;
    const uint64_t target = wal_->last_lsn();
    const uint64_t flush_epoch = epoch_;
    g.unlock();
    Status st = FlushBatch();
    g.lock();
    leader_active_ = false;
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (epoch_ == flush_epoch) {
      // A re-anchor during the flush makes `target` meaningless in the
      // new LSN sequence — recording it would mark unflushed new-epoch
      // records durable. Discard; stale tickets resolve via the epoch.
      if (st.ok()) {
        if (metrics_enabled() && target > durable_lsn_) {
          GcMetrics().batch_records->Record(
              static_cast<int64_t>(target - durable_lsn_));
        }
        durable_lsn_ = std::max(durable_lsn_, target);
      } else {
        failed_lsn_ = std::max(failed_lsn_, target);
        failed_status_ = st;
      }
    }
    cv_.notify_all();
    // Loop: re-check durable/failed for our own ticket.
  }
}

}  // namespace youtopia
