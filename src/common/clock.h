#ifndef YOUTOPIA_COMMON_CLOCK_H_
#define YOUTOPIA_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace youtopia {

using Duration = std::chrono::microseconds;
using TimePoint = std::chrono::steady_clock::time_point;

/// Abstract time source. The engine takes a Clock so that tests can use a
/// manually advanced clock (deterministic timeouts) while benches use wall
/// time.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Microseconds since an arbitrary epoch.
  virtual int64_t NowMicros() = 0;
  /// Blocks (or virtually advances) for the given duration.
  virtual void SleepMicros(int64_t micros) = 0;
};

/// std::chrono::steady_clock-backed wall clock.
class SystemClock : public Clock {
 public:
  int64_t NowMicros() override;
  void SleepMicros(int64_t micros) override;
  /// Process-wide shared instance.
  static SystemClock* Default();
};

/// Manually advanced clock for deterministic tests. SleepMicros advances the
/// clock instead of blocking.
class ManualClock : public Clock {
 public:
  explicit ManualClock(int64_t start_micros = 0) : now_(start_micros) {}
  int64_t NowMicros() override { return now_.load(); }
  void SleepMicros(int64_t micros) override { Advance(micros); }
  void Advance(int64_t micros) { now_.fetch_add(micros); }

 private:
  std::atomic<int64_t> now_;
};

/// Simple stopwatch over a Clock.
class Stopwatch {
 public:
  explicit Stopwatch(Clock* clock) : clock_(clock), start_(clock->NowMicros()) {}
  int64_t ElapsedMicros() const { return clock_->NowMicros() - start_; }
  double ElapsedSeconds() const { return ElapsedMicros() / 1e6; }

 private:
  Clock* clock_;
  int64_t start_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_COMMON_CLOCK_H_
