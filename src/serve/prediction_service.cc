#include "serve/prediction_service.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.h"

namespace sato::serve {

namespace internal {

/// Shared state behind one PredictionHandle: the request while pending,
/// the result once resolved. The table and seed are immutable after
/// Submit; `done`/`result` are guarded by `mutex`.
struct RequestState {
  Table table;
  uint64_t seed = 0;
  /// Absolute caller deadline on the service clock (0 = none): past this
  /// instant the worker sheds the request instead of serving it.
  uint64_t client_deadline_nanos = 0;
  // Result-cache plumbing: the key computed (and missed) at Submit time,
  // reused for the completion-side Insert when the serving version still
  // matches (the common case; a straddled swap recomputes).
  bool cache_eligible = false;
  CacheKey cache_key;
  uint64_t cache_key_version = 0;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  PredictionResult result;
};

}  // namespace internal

namespace {

void Resolve(const std::shared_ptr<internal::RequestState>& state,
             PredictionResult result) {
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    state->result = std::move(result);
    state->done = true;
  }
  state->cv.notify_all();
}

PredictionServiceOptions Sanitize(PredictionServiceOptions options) {
  options.num_threads = std::max<size_t>(1, options.num_threads);
  options.queue_capacity = std::max<size_t>(1, options.queue_capacity);
  return options;
}

ModelRegistry* ValidateRegistry(ModelRegistry* registry) {
  if (registry == nullptr) {
    throw std::invalid_argument("PredictionService: null registry");
  }
  if (registry->Current() == nullptr) {
    throw std::invalid_argument(
        "PredictionService: registry has no published version");
  }
  return registry;
}

}  // namespace

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kShutdown: return "shutdown";
    case RequestStatus::kFailed: return "failed";
    case RequestStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

// ------------------------------------------------------- PredictionHandle ----

const PredictionResult& PredictionHandle::Get() const {
  if (state_ == nullptr) {
    throw std::logic_error("PredictionHandle::Get on an empty handle");
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->result;
}

bool PredictionHandle::Done() const {
  if (state_ == nullptr) {
    throw std::logic_error("PredictionHandle::Done on an empty handle");
  }
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

// ------------------------------------------------------ PredictionService ----

PredictionService::PredictionService(ModelRegistry* registry,
                                     const PredictionServiceOptions& options)
    : options_(Sanitize(options)),
      own_clock_(options.clock != nullptr ? nullptr : new SteadyClock),
      clock_(options.clock != nullptr ? options.clock : own_clock_.get()),
      registry_(ValidateRegistry(registry)),
      workspaces_(options_.num_threads),
      scratches_(options_.num_threads),
      worker_context_(options_.num_threads),
      last_pinned_version_(registry->current_version()),
      pool_(options_.num_threads) {}

PredictionService::~PredictionService() { Shutdown(); }

PredictionHandle PredictionService::Submit(Table table, uint64_t seed,
                                           uint64_t deadline_budget_nanos) {
  // Content-addressed fast path: a hit resolves right here -- no admission
  // slot, no worker. The key pins the version current at lookup time; a
  // concurrent Publish makes a hit at worst equivalent to a request whose
  // worker pinned just before the swap (the same straddle window the
  // uncached path already has), and post-swap lookups hash to new keys,
  // so a stale version can never be served.
  auto state = std::make_shared<internal::RequestState>();
  state->cache_eligible =
      options_.result_cache != nullptr && table.num_columns() > 0;
  if (state->cache_eligible) {
    state->cache_key_version = registry_->current_version();
    state->cache_key = ComputeCacheKey(table, seed, state->cache_key_version);
    std::vector<TypeId> cached;
    if (options_.result_cache->Lookup(state->cache_key, &cached)) {
      PredictionResult result;
      result.status = RequestStatus::kShutdown;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++submitted_;
        if (stop_) {
          // Shutdown still wins: admission (cached or not) is closed.
          ++rejected_shutdown_;
        } else {
          result.status = RequestStatus::kOk;
          ++completed_;
        }
      }
      if (result.status == RequestStatus::kOk) {
        result.type_ids = std::move(cached);
        result.model_version = state->cache_key_version;
        result.cache_hit = true;
      }
      Resolve(state, std::move(result));
      return PredictionHandle(std::move(state));
    }
  }

  // Everything fallible but the dispatch itself happens before admission,
  // so a failure here (a throwing clock, bad_alloc) leaves no slot
  // reserved and no count taken; a failed dispatch gives both back.
  state->seed = seed;
  // The wire carries a RELATIVE budget (client and service clocks share no
  // epoch); it becomes absolute exactly here, on the service clock. A
  // request without a budget reads no clock at all.
  if (deadline_budget_nanos != 0) {
    state->client_deadline_nanos = clock_->NowNanos() + deadline_budget_nanos;
  }
  state->table = std::move(table);
  std::function<void(size_t)> task = [this, state](size_t worker) {
    ExecuteRequest(state, worker);
  };

  RequestStatus admission = RequestStatus::kOk;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      admission = RequestStatus::kShutdown;
      ++rejected_shutdown_;
    } else if (MaybeInject(options_.fault_injector,
                           FaultPoint::kAdmissionReject)) {
      // Injected overload: indistinguishable from a genuinely full queue,
      // which is the point -- clients must treat both as retryable kBusy.
      admission = RequestStatus::kRejected;
      ++rejected_;
    } else if (outstanding_ >= options_.queue_capacity) {
      admission = RequestStatus::kRejected;
      ++rejected_;
    } else {
      // Reserve the admission slot; Shutdown waits for every reserved slot
      // to complete, so it cannot miss the dispatch below.
      ++outstanding_;
    }
    ++submitted_;
  }
  if (admission != RequestStatus::kOk) {
    PredictionResult result;
    result.status = admission;
    Resolve(state, std::move(result));
    return PredictionHandle(std::move(state));
  }
  // Dispatch outside mutex_: waking a worker is a syscall, and a submitter
  // preempted inside it must not stall every other submitter and worker.
  try {
    pool_.Submit(std::move(task));
  } catch (...) {
    // The pool could not take the task (bad_alloc): this request never
    // happened, so give the slot and the count back before the caller
    // sees the error.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --outstanding_;
      --submitted_;
      NotifyIfDrainedLocked();
    }
    throw;
  }
  return PredictionHandle(std::move(state));
}

void PredictionService::ExecuteRequest(
    const std::shared_ptr<internal::RequestState>& state, size_t worker) {
  // Pickup-time shed: the pool queue is the only place a request waits,
  // so this is the one point where its deadline can have expired. Shed
  // requests release their admission slot and count as completed
  // (deadline_exceeded in Stats). Past this check the request runs to
  // completion.
  if (state->client_deadline_nanos != 0) {
    bool expired = false;
    try {
      expired = clock_->NowNanos() >= state->client_deadline_nanos;
    } catch (...) {
      // An injected clock threw: serve rather than shed.
    }
    if (expired) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --outstanding_;
        ++completed_;
        ++deadline_exceeded_;
        NotifyIfDrainedLocked();
      }
      PredictionResult result;
      result.status = RequestStatus::kDeadlineExceeded;
      Resolve(state, std::move(result));
      return;
    }
  }

  // Pin the model version for this request: one registry Current() call.
  // The request serves on `bundle` even if a Publish lands mid-execution;
  // the pin drops when this function returns.
  const std::shared_ptr<const ModelBundle> bundle = registry_->Current();
  const uint64_t version = bundle->version();
  bool swapped = false;
  uint64_t last = last_pinned_version_.load(std::memory_order_relaxed);
  while (version > last && !swapped) {
    swapped = last_pinned_version_.compare_exchange_weak(last, version);
  }
  if (swapped && options_.result_cache != nullptr) {
    // Space reclamation, not correctness: superseded entries are already
    // unreachable (their keys embed the old version), so drop them now
    // instead of letting LRU pressure age them out.
    options_.result_cache->PurgeVersionsOtherThan(version);
  }

  // Scratch re-binding: this worker's token dictionary is keyed to the
  // context it last featurized against. A different context pointer means
  // a hot swap replaced the featurization state; the next
  // TokenCache::Build detects the changed component pointers and
  // re-resolves the dictionary. Holding the shared_ptr per worker is the
  // ABA guard -- while we pin the old context, a new one can never be
  // allocated at the same address. Worker slot w is only ever touched by
  // pool thread w, so this needs no lock and cannot race an executing
  // request.
  if (worker_context_[worker] != bundle->context_ptr()) {
    worker_context_[worker] = bundle->context_ptr();
  }

  PredictionResult result;
  result.status = RequestStatus::kOk;
  result.model_version = version;
  try {
    if (MaybeInject(options_.fault_injector, FaultPoint::kDispatchThrow)) {
      // Deliberately thrown INSIDE the normal try so it exercises exactly
      // the escape path a real predictor exception would take.
      throw std::runtime_error("injected dispatch fault");
    }
    if (state->table.num_columns() > 0) {
      // The caller-supplied seed is the ONLY stochastic input: prediction
      // is a pure function of (table, seed) and the pinned version, never
      // of scheduling or workers.
      util::Rng rng(state->seed);
      result.type_ids = bundle->predictor().PredictTable(
          state->table, &rng, &workspaces_[worker], &scratches_[worker]);
      if (state->cache_eligible) {
        // Insert under the version that actually served: when a publish
        // landed between Submit and pickup, the lookup-time key would file
        // the result under the wrong version.
        const CacheKey key =
            version == state->cache_key_version
                ? state->cache_key
                : ComputeCacheKey(state->table, state->seed, version);
        options_.result_cache->Insert(key, version, result.type_ids);
      }
    }
    bundle->RecordServed();
  } catch (...) {
    result.status = RequestStatus::kFailed;
    result.error = std::current_exception();
    result.type_ids.clear();
  }
  {
    // Completion frees an admission slot *before* the handle resolves, so
    // a caller woken by Get() observes the slot available.
    std::lock_guard<std::mutex> lock(mutex_);
    --outstanding_;
    ++completed_;
    if (result.status == RequestStatus::kFailed) ++failed_;
    if (swapped) ++model_swaps_;
    NotifyIfDrainedLocked();
  }
  Resolve(state, std::move(result));
}

void PredictionService::NotifyIfDrainedLocked() {
  // Only Shutdown waits on drained_, so serving never pays for the wake.
  // Notified under mutex_: Shutdown cannot return and let the service be
  // destroyed while a notify is still in progress.
  if (stop_ && outstanding_ == 0) drained_.notify_all();
}

void PredictionService::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  {
    // Every request admitted before stop_ holds a slot until it completes,
    // including one whose submitter has not reached pool_.Submit yet.
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
    drained_.wait(lock, [this] { return outstanding_ == 0; });
  }
  // Every slot is released; the pool barrier waits for the tasks to
  // resolve their handles and return (dropping their version pins).
  pool_.Wait();
}

ServiceStats PredictionService::Stats() const {
  ServiceStats stats;
  std::lock_guard<std::mutex> lock(mutex_);
  stats.submitted = submitted_;
  stats.rejected = rejected_;
  stats.rejected_shutdown = rejected_shutdown_;
  stats.deadline_exceeded = deadline_exceeded_;
  stats.accepted = submitted_ - rejected_ - rejected_shutdown_;
  stats.completed = completed_;
  stats.failed = failed_;
  stats.outstanding = outstanding_;
  stats.model_swaps = model_swaps_;
  return stats;
}

std::vector<std::vector<TypeId>> PredictAll(PredictionService* service,
                                            const std::vector<Table>& tables,
                                            uint64_t base_seed) {
  std::vector<PredictionHandle> handles;
  handles.reserve(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    handles.push_back(
        service->Submit(tables[i], util::TableSeed(base_seed, i)));
  }
  std::vector<std::vector<TypeId>> predictions(tables.size());
  uint64_t version = 0;
  for (size_t i = 0; i < handles.size(); ++i) {
    const PredictionResult& result = handles[i].Get();
    if (result.status == RequestStatus::kFailed) {
      std::rethrow_exception(result.error);
    }
    if (result.status != RequestStatus::kOk) {
      throw std::runtime_error("PredictAll: table " + std::to_string(i) +
                               " was not served (" +
                               RequestStatusName(result.status) + ")");
    }
    if (i > 0 && result.model_version != version) {
      throw std::runtime_error(
          "PredictAll: the batch straddled a publish (model versions " +
          std::to_string(version) + " and " +
          std::to_string(result.model_version) + ")");
    }
    version = result.model_version;
    predictions[i] = result.type_ids;
  }
  return predictions;
}

}  // namespace sato::serve
