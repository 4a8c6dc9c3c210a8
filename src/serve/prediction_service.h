#ifndef SATO_SERVE_PREDICTION_SERVICE_H_
#define SATO_SERVE_PREDICTION_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "core/feature_context.h"
#include "core/predictor.h"
#include "nn/workspace.h"
#include "serve/clock.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/result_cache.h"
#include "serve/thread_pool.h"
#include "table/table.h"

namespace sato::serve {

/// Terminal state of one submitted request.
enum class RequestStatus : uint8_t {
  kOk = 0,        ///< prediction completed; PredictionResult::type_ids valid
  kRejected = 1,  ///< bounded admission queue was full at Submit time
  kShutdown = 2,  ///< submitted after Shutdown() began
  kFailed = 3,    ///< prediction threw; PredictionResult::error holds it
  /// The caller-supplied deadline expired while the request waited in the
  /// pool queue: the worker that picked it up shed it instead of spending
  /// inference on an answer nobody is waiting for. Only possible when
  /// Submit was given a nonzero deadline budget.
  kDeadlineExceeded = 4,
};

/// Stable human-readable name ("ok", "rejected", ...).
const char* RequestStatusName(RequestStatus status);

struct PredictionResult {
  RequestStatus status = RequestStatus::kShutdown;
  /// Predicted semantic type ids, one per column (empty unless kOk).
  std::vector<TypeId> type_ids;
  /// Registry version of the model bundle that produced this prediction
  /// (0 for rejected/shutdown requests, which never reached a model;
  /// registry versions start at 1).
  /// With hot swap live, this is what keeps the determinism contract
  /// auditable: the response is byte-identical to a sequential
  /// SatoPredictor run on exactly this version.
  uint64_t model_version = 0;
  /// True when the response was served from the content-addressed result
  /// cache (byte-identical to the cold prediction on model_version by the
  /// determinism guarantee -- the cache key covers table content, seed and
  /// model version, nothing else).
  bool cache_hit = false;
  /// The escaped exception when status == kFailed, else null.
  std::exception_ptr error;
};

namespace internal {
struct RequestState;
}  // namespace internal

/// Future-like handle returned by PredictionService::Submit. Copyable and
/// cheap (a shared pointer); valid even after the service shuts down or is
/// destroyed, because the result lives in shared state.
class PredictionHandle {
 public:
  /// Empty handle; Get()/Done() throw std::logic_error until assigned.
  PredictionHandle() = default;

  /// Blocks until the request reaches a terminal state.
  const PredictionResult& Get() const;

  /// Non-blocking: true once the request reached a terminal state.
  bool Done() const;

  bool valid() const { return state_ != nullptr; }

 private:
  friend class PredictionService;
  explicit PredictionHandle(std::shared_ptr<internal::RequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::RequestState> state_;
};

struct PredictionServiceOptions {
  /// Prediction worker threads (the ThreadPool). Clamped to >= 1.
  size_t num_threads = 1;

  /// Bounded admission: Submit rejects (status kRejected) while this many
  /// admitted requests have not yet completed. Clamped to >= 1.
  size_t queue_capacity = 1024;

  /// Time source for deadlines. Borrowed; must outlive the service.
  /// nullptr -> the service owns a SteadyClock (real time).
  Clock* clock = nullptr;

  /// Optional content-addressed result cache in front of inference.
  /// Borrowed; must outlive the service. A hit resolves the handle at
  /// Submit time without consuming an admission slot or a worker; a miss
  /// falls through to the normal path and the completed prediction is
  /// inserted under the version that actually served it.
  /// nullptr (default) disables caching entirely.
  ResultCache* result_cache = nullptr;

  /// Deterministic fault injection (kAdmissionReject at Submit,
  /// kDispatchThrow inside the worker). Borrowed; must outlive the
  /// service. nullptr (default) disables.
  FaultInjector* fault_injector = nullptr;
};

/// Snapshot of per-service counters (see PredictionService::Stats). The
/// service is the one owner of request outcomes:
///   submitted == completed + rejected + rejected_shutdown + outstanding,
/// and the kOk answers number completed - failed - deadline_exceeded.
/// Cache hits and misses are counted by the ResultCache, not here.
struct ServiceStats {
  uint64_t submitted = 0;          ///< every Submit call
  uint64_t accepted = 0;           ///< admitted into the queue
  /// Resolved by the service: kOk (cache hits included), kFailed or
  /// kDeadlineExceeded.
  uint64_t completed = 0;
  uint64_t failed = 0;             ///< kFailed (the prediction threw)
  uint64_t rejected = 0;           ///< kRejected (admission queue full)
  uint64_t rejected_shutdown = 0;  ///< kShutdown (submitted after Shutdown)
  /// kDeadlineExceeded: admitted but shed because the caller's deadline
  /// expired before (or while) the request reached a worker. Counted in
  /// completed as well -- shed requests still release their admission slot.
  uint64_t deadline_exceeded = 0;
  uint64_t outstanding = 0;        ///< admitted, not yet completed
  /// Requests that were the first to pin a model version newer than every
  /// earlier pin -- the number of hot swaps the dispatch path actually
  /// crossed (0 while one version serves the whole stream).
  uint64_t model_swaps = 0;
};

/// Online serving frontend: callers Submit() single tables from any thread
/// and get a future-like handle. A request goes through three steps, all
/// on the submitting thread: the result cache, bounded admission, then
/// dispatch straight onto the shared ThreadPool, whose per-worker
/// Workspace/FeatureScratch machinery means steady-state serving allocates
/// nothing inside featurization or the network. The pool queue is the only
/// place a request waits; nothing holds it on a timer. Sato scores each
/// table on its own (topic vector + CRF over its columns), so stacking
/// requests into batches would share no work.
///
/// Zero-downtime hot swap: the service serves whatever its ModelRegistry
/// currently publishes. The worker pins Current() ONCE per request (one
/// shared_ptr copy) when it picks the request up, so a Publish
/// during live traffic is race-free by construction -- in-flight requests
/// finish on the version they pinned, requests picked up after the
/// publish serve the new one, no request is dropped or delayed, and the
/// old bundle is destroyed when the last in-flight request drops its pin
/// (RCU grace period == shared_ptr refcount). Every PredictionResult
/// carries the model_version that produced it. The first request to pin a
/// newer version purges the result cache of every other version (space
/// reclamation only: old keys embed the old version and can never hit).
///
/// Determinism under concurrency AND swapping: each request decodes with
/// an Rng seeded by its caller-supplied seed and nothing else, so the
/// prediction is a pure function of (table, seed, model version) --
/// byte-identical to a sequential SatoPredictor::PredictTable on the
/// version in the response, regardless of which worker runs it or the
/// worker count (asserted by tests/service_test.cc, including mid-stream
/// publishes). Callers who need distinct per-request streams from one
/// base seed should derive them with util::TableSeed(base, i), as
/// PredictAll does.
///
/// Scratch re-binding across swaps: per-worker FeatureScratch token
/// dictionaries are keyed to one FeatureContext. Each worker holds a
/// shared_ptr to the context it last featurized against; when a pinned
/// bundle carries a different context, the worker re-binds before
/// touching the scratch (the TokenCache resets itself on the changed
/// component pointers). Holding the old context per worker makes the
/// pointer comparison exact -- a freed context recycled at the same
/// address (ABA) cannot masquerade as "unchanged". Re-binding happens on
/// the worker thread between requests, so it never races an executing
/// request; a model-only swap that reuses the same context keeps every
/// worker dictionary warm.
///
/// Backpressure: admission is bounded by queue_capacity outstanding
/// requests; overflow Submits resolve immediately with kRejected (never a
/// hang), and admission resumes as outstanding requests complete.
///
/// Shutdown() stops admission (further Submits resolve kShutdown), then
/// waits for the pool to drain every admitted request. The destructor
/// calls it.
class PredictionService {
 public:
  /// Serves the registry's current (and future) versions. `registry` is
  /// borrowed and must outlive the service; it must already have a
  /// published version (throws std::invalid_argument otherwise -- a
  /// service with nothing to serve is a configuration error, not a
  /// runtime state).
  PredictionService(ModelRegistry* registry,
                    const PredictionServiceOptions& options);

  /// Shuts down (drains admitted requests) if Shutdown was not called.
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Dispatches one table for prediction. Never blocks: returns an
  /// already resolved handle (kRejected / kShutdown) when admission fails.
  /// An empty table resolves kOk with no type ids.
  ///
  /// The table is taken by value and moved into the request, so a caller
  /// that passes an rvalue (the server passes its freshly decoded table)
  /// pays no O(table) copy, accepted or rejected.
  ///
  /// `deadline_budget_nanos` is the remaining time the caller is willing
  /// to wait, measured on the SERVICE clock from the moment of this call
  /// (relative, so client and server clocks need no common epoch -- this
  /// is what the wire header's deadline_micros feeds). 0 means no
  /// deadline. A request whose deadline has expired when a worker picks
  /// it up resolves kDeadlineExceeded without running inference; a
  /// request that starts executing always runs to completion.
  PredictionHandle Submit(Table table, uint64_t seed,
                          uint64_t deadline_budget_nanos = 0);

  /// Graceful drain; idempotent and safe to call concurrently. After it
  /// returns, every previously admitted request is resolved and further
  /// Submits resolve kShutdown.
  void Shutdown();

  /// Consistent snapshot of the counters.
  ServiceStats Stats() const;

  size_t num_threads() const { return pool_.num_threads(); }
  const PredictionServiceOptions& options() const { return options_; }

  /// The registry this service serves from (never null); the server
  /// submits corrections against it.
  ModelRegistry* registry() const { return registry_; }

 private:
  void ExecuteRequest(const std::shared_ptr<internal::RequestState>& state,
                      size_t worker);
  /// Wakes Shutdown once the last admitted request completes. Caller holds
  /// mutex_ and has just released an admission slot.
  void NotifyIfDrainedLocked();

  PredictionServiceOptions options_;      // sanitized copy
  std::unique_ptr<SteadyClock> own_clock_;  // set when options.clock == null
  Clock* clock_;                          // the clock actually used
  ModelRegistry* registry_;               // the registry actually served
  std::vector<nn::Workspace> workspaces_;            // one per worker
  std::vector<SatoPredictor::Scratch> scratches_;    // one per worker
  // Per-worker context binding: worker w touches entry w exclusively (the
  // pool gives each thread a fixed index), so no lock is needed. Holding
  // the shared_ptr keeps the last-bound context alive, which is what
  // makes the swap-detection pointer comparison ABA-proof.
  std::vector<std::shared_ptr<const FeatureContext>> worker_context_;

  // Highest version any request has pinned. A CAS-max, not a plain
  // exchange: a worker that pinned the old version just before a publish
  // must not count a second swap or purge the new version's entries.
  std::atomic<uint64_t> last_pinned_version_;

  mutable std::mutex mutex_;
  std::condition_variable drained_;  // outstanding_ reached 0 after stop_
  bool stop_ = false;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t rejected_shutdown_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t outstanding_ = 0;
  uint64_t model_swaps_ = 0;

  std::mutex shutdown_mutex_;  // serialises concurrent Shutdown calls

  // Declared last so the pool drains before any state above is destroyed
  // (the destructor shuts down first anyway).
  ThreadPool pool_;
};

/// Offline batch prediction: submits table i with seed
/// util::TableSeed(base_seed, i) and returns the type ids in input order,
/// so the output is byte-identical for any worker count and equal to
/// sequential SatoPredictor runs with the same seeds.
///
/// Every table must be served: a status other than kOk throws (kFailed
/// rethrows the prediction's own exception), so a queue_capacity smaller
/// than the batch fails loudly instead of leaving gaps. The version is
/// pinned per request, so the results must also agree on model_version;
/// PredictAll throws when a publish landed mid-batch. Callers that own
/// their registry and publish once (sato_cli) never see that.
std::vector<std::vector<TypeId>> PredictAll(PredictionService* service,
                                            const std::vector<Table>& tables,
                                            uint64_t base_seed);

}  // namespace sato::serve

#endif  // SATO_SERVE_PREDICTION_SERVICE_H_
