#include "serve/fault_injector.h"

#include "util/rng.h"

namespace sato::serve {

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kClientSend: return "client-send";
    case FaultPoint::kClientRecv: return "client-recv";
    case FaultPoint::kServerRecvShort: return "server-recv-short";
    case FaultPoint::kServerRecvError: return "server-recv-error";
    case FaultPoint::kServerRecvStall: return "server-recv-stall";
    case FaultPoint::kServerSend: return "server-send";
    case FaultPoint::kAdmissionReject: return "admission-reject";
    case FaultPoint::kDispatchThrow: return "dispatch-throw";
    case FaultPoint::kCacheLookupMiss: return "cache-lookup-miss";
    case FaultPoint::kCacheInsertDrop: return "cache-insert-drop";
    case FaultPoint::kWalAppendFail: return "wal-append-fail";
  }
  return "unknown";
}

bool FaultInjector::Trigger(FaultPoint point) {
  const size_t p = static_cast<size_t>(point);
  // fetch_add makes `k` unique per call even under contention, which is
  // what keeps the k-th decision at this point a pure function of the
  // seed: the stream is indexed by call ordinal, not by arrival time.
  const uint64_t k = points_[p].calls.fetch_add(1, std::memory_order_relaxed);
  const uint32_t rate = plan_.rate_ppm[p];
  if (rate == 0) return false;
  // splitmix64 twice: stream p of the seed, then draw k of that stream.
  const uint64_t stream = util::TableSeed(seed_, p);
  const uint64_t draw = util::TableSeed(stream, k);
  if (draw % 1'000'000 >= rate) return false;
  points_[p].injected.fetch_add(1, std::memory_order_relaxed);
  return true;
}

FaultInjectorStats FaultInjector::Stats() const {
  FaultInjectorStats stats;
  for (size_t p = 0; p < kNumFaultPoints; ++p) {
    stats.calls[p] = points_[p].calls.load(std::memory_order_relaxed);
    stats.injected[p] = points_[p].injected.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace sato::serve
