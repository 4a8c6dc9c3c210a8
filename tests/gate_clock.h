#ifndef SATO_TESTS_GATE_CLOCK_H_
#define SATO_TESTS_GATE_CLOCK_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "serve/clock.h"

namespace sato::testutil {

/// FakeClock time plus a gate: the first NowNanos() call made from any
/// thread other than the one that built the clock parks until Release().
///
/// PredictionService reads its clock only for a request with a deadline
/// budget: on the submitting thread (to make the budget absolute) and on
/// the worker (the pickup deadline check). So a test that builds the
/// clock, then Submits one request with budget kHoldBudgetNanos and calls
/// AwaitHeld(), holds the service's worker at that request's pickup,
/// before it pins a model version. With num_threads = 1, every later
/// request waits in the pool queue until Release() -- no sleeps, no
/// timing assumptions -- and the held request is then served, because
/// its budget outlasts any fake-clock advance a test makes. Later foreign
/// calls (a server connection thread, the same worker after release)
/// pass straight through.
class GateClock final : public serve::Clock {
 public:
  /// Deadline budget for the holding request: one hour of fake time.
  static constexpr uint64_t kHoldBudgetNanos = 3'600'000'000'000ull;

  uint64_t NowNanos() override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (armed_ && std::this_thread::get_id() != owner_) {
        armed_ = false;
        held_ = true;
        changed_.notify_all();
        changed_.wait(lock, [this] { return !held_; });
      }
    }
    return time_.NowNanos();
  }

  void SleepUntil(uint64_t deadline_nanos) override {
    time_.SleepUntil(deadline_nanos);
  }

  void AdvanceNanos(uint64_t nanos) { time_.AdvanceNanos(nanos); }

  /// Blocks until a foreign thread is parked in NowNanos().
  void AwaitHeld() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [this] { return held_; });
  }

  /// Lets the parked thread go (and disarms the gate if nothing parked).
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
    held_ = false;
    changed_.notify_all();
  }

 private:
  serve::FakeClock time_;
  const std::thread::id owner_ = std::this_thread::get_id();
  std::mutex mutex_;
  std::condition_variable changed_;
  bool armed_ = true;
  bool held_ = false;
};

}  // namespace sato::testutil

#endif  // SATO_TESTS_GATE_CLOCK_H_
