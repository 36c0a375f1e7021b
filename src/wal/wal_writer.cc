#include "src/wal/wal_writer.h"

#include <unistd.h>
#if __has_include(<stdio_ext.h>)
#include <stdio_ext.h>  // __fpurge: drop the stdio userspace buffer (glibc)
#define YOUTOPIA_HAVE_FPURGE 1
#endif

#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/common/serde.h"

namespace youtopia {

namespace {

Histogram* FlushLatencyHist() {
  static Histogram* h =
      MetricsRegistry::Global()->histogram("wal.flush_micros");
  return h;
}

Counter* FlushesCounter() {
  static Counter* c = MetricsRegistry::Global()->counter("wal.flushes");
  return c;
}

/// Closes a FILE* the way a killed process leaves it: whatever sits in the
/// stdio userspace buffer never reaches the file. Used whenever the fault
/// injector's crash state is latched — flushing on close would leak records
/// a real crash loses, hiding exactly the bugs the torture harness hunts.
void CloseDiscardingBuffer(std::FILE* f) {
#if defined(YOUTOPIA_HAVE_FPURGE)
  __fpurge(f);
#endif
  std::fclose(f);
}

}  // namespace

WalWriter::~WalWriter() {
  if (file_ == nullptr) return;
  if (FaultInjector::Global()->crashed()) {
    CloseDiscardingBuffer(file_);
    return;
  }
  std::fflush(file_);
  std::fclose(file_);
}

Status WalWriter::Open(const std::string& path, Options options,
                       bool truncate) {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (file_ != nullptr) return Status::Internal("WAL already open");
    file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (file_ == nullptr) {
      return Status::Corruption("cannot open WAL file " + path);
    }
    path_ = path;
    options_ = options;
  }
  // Outside mu_: the queue's leader path holds its own mutex while reading
  // last_lsn() (queue -> wal order); never take them the other way around.
  group_.ResetHorizon();
  return Status::Ok();
}

StatusOr<uint64_t> WalWriter::Append(WalRecord rec) {
  std::lock_guard<std::mutex> g(mu_);
  if (file_ == nullptr) return Status::Internal("WAL not open");
  FaultInjector* fi = FaultInjector::Global();
  if (fi->enabled()) {
    // Once the crash state is latched, every log freezes: a dead process
    // appends nothing, so the files must read back exactly as a kill at
    // the crash site would leave them.
    if (fi->crashed()) {
      return Status::Internal("WAL frozen by simulated crash at " +
                              fi->crash_site());
    }
    YT_RETURN_IF_ERROR(fi->Hit("wal.append"));
  }
  rec.lsn = next_lsn_++;
  std::string payload;
  rec.EncodeTo(&payload);
  std::string frame;
  EncodeU32(&frame, static_cast<uint32_t>(payload.size()));
  EncodeU32(&frame, Crc32(payload));
  frame += payload;
  if (fi->enabled()) {
    size_t keep = fi->TornWriteLen("wal.append.torn", frame.size());
    if (keep < frame.size()) {
      // Torn write: a prefix of the frame reaches the OS (it must survive
      // the buffer purge on close — the bytes did hit the device), then
      // the process dies mid-write. Recovery must truncate this tail.
      (void)std::fwrite(frame.data(), 1, keep, file_);
      (void)std::fflush(file_);
      return Status::Internal("simulated crash: torn WAL write at " + path_);
    }
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return Status::Corruption("WAL append failed");
  }
  return rec.lsn;
}

StatusOr<uint64_t> WalWriter::AppendAndFlush(WalRecord rec) {
  YT_ASSIGN_OR_RETURN(uint64_t lsn, Append(std::move(rec)));
  YT_RETURN_IF_ERROR(SyncToLsn(lsn));
  return lsn;
}

Status WalWriter::SyncToLsn(uint64_t lsn) {
  if (group_.enabled()) return group_.WaitForDurable(lsn);
  return Flush();
}

uint64_t WalWriter::last_lsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return next_lsn_ - 1;
}

Status WalWriter::Flush() {
  std::lock_guard<std::mutex> sync(sync_mu_);
  std::unique_lock<std::mutex> g(mu_);
  if (file_ == nullptr) return Status::Internal("WAL not open");
  FaultInjector* fi = FaultInjector::Global();
  if (fi->enabled()) {
    if (fi->crashed()) {
      return Status::Internal("WAL frozen by simulated crash at " +
                              fi->crash_site());
    }
    YT_RETURN_IF_ERROR(fi->Hit("wal.flush"));
  }
  LatencyTimer timer(FlushLatencyHist());
  if (std::fflush(file_) != 0) return Status::Corruption("WAL flush failed");
  const bool sync_on_flush = options_.sync_on_flush;
  const int fd = fileno(file_);
  // Appends may proceed during the fsync; sync_mu_ keeps the file open.
  g.unlock();
  if (sync_on_flush && fsync(fd) != 0) {
    return Status::Corruption("WAL fsync failed");
  }
  if (timer.active()) FlushesCounter()->Add();
  if (auto* counter = flush_counter_.load(std::memory_order_acquire)) {
    counter->fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status WalWriter::Close() {
  std::lock_guard<std::mutex> sync(sync_mu_);
  std::lock_guard<std::mutex> g(mu_);
  if (file_ == nullptr) return Status::Ok();
  if (FaultInjector::Global()->crashed()) {
    CloseDiscardingBuffer(file_);
    file_ = nullptr;
    return Status::Ok();
  }
  std::fflush(file_);
  if (options_.sync_on_flush) fsync(fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
  return Status::Ok();
}

Status WalWriter::ResetWithCheckpoint(const std::string& checkpoint_path) {
  uint64_t lsn_snapshot;
  {
    std::lock_guard<std::mutex> sync(sync_mu_);
    std::lock_guard<std::mutex> g(mu_);
    if (file_ == nullptr) return Status::Internal("WAL not open");
    std::fflush(file_);
    std::fclose(file_);
    file_ = std::fopen(path_.c_str(), "wb");
    if (file_ == nullptr) {
      return Status::Corruption("cannot truncate WAL file " + path_);
    }
    lsn_snapshot = next_lsn_;
  }
  YT_ASSIGN_OR_RETURN(
      uint64_t lsn,
      Append(WalRecord::CheckpointRef(checkpoint_path, lsn_snapshot)));
  (void)lsn;
  return Flush();
}

}  // namespace youtopia
