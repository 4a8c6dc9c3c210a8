#ifndef SATO_SERVE_MODEL_REGISTRY_H_
#define SATO_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/feature_context.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "features/pipeline.h"
#include "table/semantic_type.h"

namespace sato::serve {

class CorrectionWal;

namespace internal {
/// Per-version counters that outlive the bundle itself: the registry and
/// the bundle share one record, so served counts survive retirement.
struct VersionCounters {
  std::atomic<uint64_t> served{0};
};
}  // namespace internal

/// One deployable model version: the Sato model, the feature context it
/// was trained against, the fitted scaler, and a predictor wired to all
/// three -- plus a registry-assigned version id and a human-readable tag.
///
/// A bundle is IMMUTABLE after construction and always handled through
/// `std::shared_ptr<const ModelBundle>`: whoever holds the pointer holds a
/// *pin* -- the bundle and the model/context it owns stay alive exactly
/// until the last pin drops. That is the entire hot-swap story: publishing
/// a new version never invalidates anything an in-flight request is
/// reading.
///
/// Only ModelRegistry::Publish creates bundles, so every bundle carries a
/// real registry version (1, 2, 3, ...).
class ModelBundle {
 public:
  /// Construction token that only ModelRegistry can create: the
  /// constructor must be public for make_shared (one allocation for the
  /// bundle and its refcount), yet only Publish may call it.
  class Key {
    friend class ModelRegistry;
    Key() = default;
  };

  /// The bundle keeps the model and context alive; neither may be null.
  ModelBundle(Key, std::shared_ptr<const SatoModel> model,
              std::shared_ptr<const FeatureContext> context,
              features::FeatureScaler scaler, std::string tag,
              uint64_t version);

  ModelBundle(const ModelBundle&) = delete;
  ModelBundle& operator=(const ModelBundle&) = delete;

  uint64_t version() const { return version_; }
  const std::string& tag() const { return tag_; }

  const SatoModel& model() const { return *model_; }
  const FeatureContext* context() const { return context_.get(); }
  const features::FeatureScaler& scaler() const { return scaler_; }

  /// Shared ownership of the context -- serving workers hold this per
  /// worker so that "same context pointer" can never be an ABA illusion
  /// (a freed context reallocated at the same address); see
  /// PredictionService's scratch re-binding.
  const std::shared_ptr<const FeatureContext>& context_ptr() const {
    return context_;
  }

  /// Predictor wired to this bundle's model/context/scaler. Const and
  /// re-entrant (the Apply path): share it across any number of threads.
  const SatoPredictor& predictor() const { return predictor_; }

  /// Counts one served prediction against this version (lock-free).
  void RecordServed(uint64_t n = 1) const {
    counters_->served.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t served() const {
    return counters_->served.load(std::memory_order_relaxed);
  }

 private:
  friend class ModelRegistry;

  const uint64_t version_;
  const std::string tag_;
  std::shared_ptr<const SatoModel> model_;
  std::shared_ptr<const FeatureContext> context_;
  const features::FeatureScaler scaler_;
  SatoPredictor predictor_;  // borrows from the members above
  std::shared_ptr<internal::VersionCounters> counters_;
};

/// One user correction (the AdaTyper adaptation hook, arXiv:2311.13806):
/// "this column is actually type T". Recorded, not yet learned from.
struct Correction {
  std::string column_name;  ///< header or caller-side identifier
  TypeId corrected_type = 0;
  uint64_t model_version = 0;  ///< version whose prediction was corrected
};

/// Snapshot of one version's lifecycle in RegistryStats.
struct VersionInfo {
  uint64_t version = 0;
  std::string tag;
  uint64_t served = 0;  ///< predictions recorded against this version
  bool retired = false; ///< superseded AND the last pin has dropped
};

struct RegistryStats {
  /// Total Publish calls. Publish assigns and installs versions 1..n in
  /// order, so after every Publish that returns this is also
  /// current_version() (0 before the first).
  uint64_t published = 0;
  std::vector<VersionInfo> versions;  ///< ascending by version
  uint64_t corrections_submitted = 0;
  uint64_t corrections_dropped = 0;  ///< evicted from the bounded log
  /// Corrections refused because the attached WAL could not durably
  /// record them -- each one was answered with a typed failure, never a
  /// false ack.
  uint64_t corrections_wal_failed = 0;
};

/// Versioned model registry with RCU-style hot swap.
///
/// `Publish` wraps components into an immutable ModelBundle, assigns the
/// next monotonically-increasing version id, and replaces the current
/// pointer. `Current` is the read side: one shared_ptr copy that pins the
/// bundle for as long as the caller keeps the pointer -- readers and
/// publishers only ever contend for the duration of that pointer copy
/// (classic read-copy-update with shared_ptr as the grace period: the old
/// version is destroyed when its last pin drops, not at publish time).
///
/// The registry itself only keeps a *weak* reference to superseded
/// versions, so it never extends an old model's lifetime: `PinVersion`
/// can revive a version only while someone still pins it (or it is
/// current); once retired it returns nullptr.
///
/// Thread-safe throughout. Publishing is rare and cheap (a pointer swap +
/// history bookkeeping under a mutex); pinning is a single shared_ptr copy
/// under a mutex held for nothing else.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Publishes a new version owning its components. Returns the published
  /// bundle (already current). Throws std::invalid_argument on null
  /// model/context.
  std::shared_ptr<const ModelBundle> Publish(
      std::shared_ptr<const SatoModel> model,
      std::shared_ptr<const FeatureContext> context,
      features::FeatureScaler scaler, std::string tag = std::string());

  /// The current version, pinned. Null until the first Publish.
  std::shared_ptr<const ModelBundle> Current() const {
    std::lock_guard<std::mutex> lock(current_mutex_);
    return current_;
  }

  /// Version id of the current bundle; 0 before the first Publish. One
  /// atomic load: no lock and no pin, so every request can read it.
  uint64_t current_version() const {
    return current_version_.load(std::memory_order_acquire);
  }

  /// Pins a specific version: the current bundle, or an older one that is
  /// still alive (someone else pins it). Returns null for unknown or
  /// retired versions -- the registry never resurrects freed models.
  std::shared_ptr<const ModelBundle> PinVersion(uint64_t version) const;

  /// Consistent snapshot: per-version served counts and retirement state,
  /// plus correction-log counters.
  RegistryStats Stats() const;

  // ---- AdaTyper adaptation hook (correction log only; no learning yet) --

  /// Attaches a durable write-ahead log (serve/correction_wal.h): every
  /// subsequent SubmitCorrection appends to the WAL BEFORE touching the
  /// in-memory log, and fails without recording anything when the WAL
  /// append fails -- so a correction the caller acknowledges is always
  /// replayable after a crash. Borrowed; pass nullptr to detach, and
  /// detach (or destroy the registry) before destroying the WAL.
  void AttachCorrectionWal(CorrectionWal* wal);

  /// Appends one user correction to the bounded in-memory log (evicting
  /// the oldest entry when full -- see Stats().corrections_dropped) and,
  /// when a WAL is attached, to durable storage first. Returns true when
  /// the correction was accepted; false ONLY when the attached WAL could
  /// not record it, in which case the correction is dropped entirely and
  /// the caller must not acknowledge it.
  bool SubmitCorrection(Correction correction);

  /// Snapshot of the retained corrections, oldest first.
  std::vector<Correction> Corrections() const;

  /// Bound on the retained correction log (default 1024). Shrinking it
  /// evicts oldest entries immediately.
  void set_max_corrections(size_t n);
  size_t max_corrections() const;

 private:
  struct VersionRecord {
    uint64_t version;
    std::string tag;
    std::weak_ptr<const ModelBundle> bundle;  // never extends a lifetime
    std::shared_ptr<internal::VersionCounters> counters;
  };

  // The RCU pointer. Readers pin by copying it under current_mutex_, which
  // guards nothing else, so a reader never waits on a publisher's history
  // bookkeeping. std::atomic<std::shared_ptr> would cost the same (the
  // libstdc++ one is a spin lock too), but GCC 12's load releases that
  // lock with relaxed ordering, which leaves its pointer read unordered
  // before a concurrent Publish's write -- a race ThreadSanitizer reports.
  // Publishers swap it while holding mutex_ so versions install
  // monotonically.
  mutable std::mutex current_mutex_;
  std::shared_ptr<const ModelBundle> current_;
  // current_->version(), stored with current_ for readers that need only
  // the id (the result-cache key on every Submit).
  std::atomic<uint64_t> current_version_{0};

  mutable std::mutex mutex_;  // history + correction log
  uint64_t next_version_ = 1;
  std::vector<VersionRecord> history_;
  std::deque<Correction> corrections_;
  size_t max_corrections_ = 1024;
  uint64_t corrections_submitted_ = 0;
  uint64_t corrections_dropped_ = 0;
  uint64_t corrections_wal_failed_ = 0;
  CorrectionWal* wal_ = nullptr;  // borrowed durable log; null = memory only
};

}  // namespace sato::serve

#endif  // SATO_SERVE_MODEL_REGISTRY_H_
