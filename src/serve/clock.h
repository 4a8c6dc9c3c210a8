#ifndef SATO_SERVE_CLOCK_H_
#define SATO_SERVE_CLOCK_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace sato::serve {

/// Monotonic time source the online serving layer schedules against,
/// expressed in nanoseconds since the clock's own epoch (construction).
///
/// The clock is injectable so that deadline behaviour -- when a queued
/// request's caller deadline lapses, when a retrying client wakes from its
/// backoff -- is testable without real sleeps: production uses
/// SteadyClock, tests drive a FakeClock by hand.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds since this clock's epoch. Monotonic, thread-safe.
  virtual uint64_t NowNanos() = 0;

  /// Blocks the calling thread until the clock reaches `deadline_nanos`.
  /// The retry backoff in wire::Client sleeps through this, so backoff
  /// timing is testable without wall-clock sleeps: a FakeClock parks the
  /// sleeper (visible to waiter_count/AwaitWaiters) until AdvanceNanos
  /// reaches the deadline. Returns immediately when the deadline has
  /// already passed.
  virtual void SleepUntil(uint64_t deadline_nanos) = 0;
};

/// Real time: std::chrono::steady_clock, epoch at construction.
class SteadyClock final : public Clock {
 public:
  SteadyClock() : base_(std::chrono::steady_clock::now()) {}

  uint64_t NowNanos() override;
  void SleepUntil(uint64_t deadline_nanos) override;

 private:
  std::chrono::steady_clock::time_point base_;
};

/// Manually-driven time for deterministic deadline tests. Starts at 0 and
/// only moves when AdvanceNanos() is called; SleepUntil parks the caller
/// until an advance reaches its deadline, so no test ever sleeps.
class FakeClock final : public Clock {
 public:
  uint64_t NowNanos() override;

  /// Parks on the clock's own condition variable until time reaches the
  /// deadline. Counts as a waiter for AwaitWaiters.
  void SleepUntil(uint64_t deadline_nanos) override;

  /// Moves time forward and wakes every parked SleepUntil caller so it
  /// re-evaluates its deadline against the new time.
  void AdvanceNanos(uint64_t nanos);

  /// Callers currently parked inside SleepUntil.
  size_t waiter_count();

  /// Blocks until at least `n` callers are parked inside SleepUntil.
  /// Event-driven (woken by registration), not a poll -- tests use it to
  /// know a retrying client reached its backoff sleep before advancing
  /// time.
  void AwaitWaiters(size_t n);

 private:
  std::mutex mutex_;
  std::condition_variable waiters_changed_;
  std::condition_variable sleepers_cv_;  // SleepUntil parks here
  uint64_t now_nanos_ = 0;
  size_t sleepers_ = 0;
};

}  // namespace sato::serve

#endif  // SATO_SERVE_CLOCK_H_
