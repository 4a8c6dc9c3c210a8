#include "serve/clock.h"

#include <thread>

namespace sato::serve {

// ------------------------------------------------------------ SteadyClock ----

uint64_t SteadyClock::NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base_)
          .count());
}

void SteadyClock::SleepUntil(uint64_t deadline_nanos) {
  std::this_thread::sleep_until(base_ +
                                std::chrono::nanoseconds(deadline_nanos));
}

// -------------------------------------------------------------- FakeClock ----

uint64_t FakeClock::NowNanos() {
  std::lock_guard<std::mutex> lock(mutex_);
  return now_nanos_;
}

void FakeClock::SleepUntil(uint64_t deadline_nanos) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++sleepers_;
  waiters_changed_.notify_all();
  while (now_nanos_ < deadline_nanos) sleepers_cv_.wait(lock);
  --sleepers_;
  waiters_changed_.notify_all();
}

void FakeClock::AdvanceNanos(uint64_t nanos) {
  std::lock_guard<std::mutex> lock(mutex_);
  now_nanos_ += nanos;
  sleepers_cv_.notify_all();
}

size_t FakeClock::waiter_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  return sleepers_;
}

void FakeClock::AwaitWaiters(size_t n) {
  std::unique_lock<std::mutex> lock(mutex_);
  waiters_changed_.wait(lock, [&] { return sleepers_ >= n; });
}

}  // namespace sato::serve
