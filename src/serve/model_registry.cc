#include "serve/model_registry.h"

#include <stdexcept>
#include <utility>

#include "serve/correction_wal.h"

namespace sato::serve {

ModelBundle::ModelBundle(Key, std::shared_ptr<const SatoModel> model,
                         std::shared_ptr<const FeatureContext> context,
                         features::FeatureScaler scaler, std::string tag,
                         uint64_t version)
    : version_(version),
      tag_(std::move(tag)),
      model_(std::move(model)),
      context_(std::move(context)),
      scaler_(std::move(scaler)),
      predictor_(model_.get(), context_.get(), scaler_),
      counters_(std::make_shared<internal::VersionCounters>()) {
  if (model_ == nullptr || context_ == nullptr) {
    throw std::invalid_argument("ModelBundle: model and context required");
  }
}

std::shared_ptr<const ModelBundle> ModelRegistry::Publish(
    std::shared_ptr<const SatoModel> model,
    std::shared_ptr<const FeatureContext> context,
    features::FeatureScaler scaler, std::string tag) {
  if (model == nullptr || context == nullptr) {
    throw std::invalid_argument("ModelRegistry::Publish: null model/context");
  }
  std::shared_ptr<const ModelBundle> bundle;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t version = next_version_++;
    if (tag.empty()) tag = "v" + std::to_string(version);
    bundle = std::make_shared<const ModelBundle>(
        ModelBundle::Key(), std::move(model), std::move(context),
        std::move(scaler), tag, version);
    history_.push_back(
        VersionRecord{version, std::move(tag), bundle, bundle->counters_});
    // The swap itself. Readers that already pinned the old version keep
    // it alive; new Current() calls see this bundle. Stored under mutex_
    // so concurrent publishes install in version order; readers only
    // take current_mutex_, and the old version (if this drops its last
    // pin) is destroyed after that lock is released. The version id is
    // stored after the pointer, so a reader that sees the new id and then
    // pins gets the new bundle.
    std::shared_ptr<const ModelBundle> previous;
    {
      std::lock_guard<std::mutex> current_lock(current_mutex_);
      previous = std::exchange(current_, bundle);
      current_version_.store(version, std::memory_order_release);
    }
  }
  return bundle;
}

std::shared_ptr<const ModelBundle> ModelRegistry::PinVersion(
    uint64_t version) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const VersionRecord& record : history_) {
    if (record.version == version) return record.bundle.lock();
  }
  return nullptr;
}

RegistryStats ModelRegistry::Stats() const {
  RegistryStats stats;
  std::lock_guard<std::mutex> lock(mutex_);
  stats.published = next_version_ - 1;
  stats.versions.reserve(history_.size());
  for (const VersionRecord& record : history_) {
    VersionInfo info;
    info.version = record.version;
    info.tag = record.tag;
    info.served = record.counters->served.load(std::memory_order_relaxed);
    info.retired = record.bundle.expired();
    stats.versions.push_back(std::move(info));
  }
  stats.corrections_submitted = corrections_submitted_;
  stats.corrections_dropped = corrections_dropped_;
  stats.corrections_wal_failed = corrections_wal_failed_;
  return stats;
}

void ModelRegistry::AttachCorrectionWal(CorrectionWal* wal) {
  std::lock_guard<std::mutex> lock(mutex_);
  wal_ = wal;
}

bool ModelRegistry::SubmitCorrection(Correction correction) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++corrections_submitted_;
  // Durability first: the WAL append happens strictly before the
  // in-memory record, so "accepted" always means "replayable". A failed
  // append records NOTHING -- a correction half-present in memory but
  // absent from the log would silently evaporate on restart.
  if (wal_ != nullptr && !wal_->Append(correction)) {
    ++corrections_wal_failed_;
    return false;
  }
  while (corrections_.size() >= max_corrections_) {
    corrections_.pop_front();
    ++corrections_dropped_;
  }
  corrections_.push_back(std::move(correction));
  return true;
}

std::vector<Correction> ModelRegistry::Corrections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<Correction>(corrections_.begin(), corrections_.end());
}

void ModelRegistry::set_max_corrections(size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_corrections_ = n > 0 ? n : 1;
  while (corrections_.size() > max_corrections_) {
    corrections_.pop_front();
    ++corrections_dropped_;
  }
}

size_t ModelRegistry::max_corrections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_corrections_;
}

}  // namespace sato::serve
