#ifndef SATO_CORE_MODEL_IO_H_
#define SATO_CORE_MODEL_IO_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/feature_context.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "features/pipeline.h"

namespace sato {

/// Metadata written ahead of the bundle payload: a human-readable version
/// tag (what ModelRegistry publishes under) and an FNV-1a hash of the
/// serialized payload, verified on load so a truncated or bit-flipped
/// bundle fails loudly instead of decoding into garbage weights.
struct BundleManifest {
  std::string tag;
  uint64_t content_hash = 0;  ///< FNV-1a over the payload bytes
};

/// A fully-deployable Sato restored from disk: the pre-trained feature
/// context, the model, the training-split scaler, and a predictor wired to
/// all three. (The paper publicly releases its trained model, §8 -- this
/// is the equivalent mechanism here.) The predictor pins the model and the
/// context, so it stays valid after `model` and `context` are handed on
/// (say, published into a ModelRegistry) or reset.
struct LoadedSato {
  std::shared_ptr<const FeatureContext> context;
  std::shared_ptr<const SatoModel> model;
  features::FeatureScaler scaler;
  std::unique_ptr<SatoPredictor> predictor;
  BundleManifest manifest;
};

/// Writes a single self-contained bundle: a manifest (version tag +
/// payload content hash), then variant + config + feature dims, the
/// feature context (embeddings, TF-IDF, LDA), the scaler, and the model
/// parameters (including the CRF for structured variants). `tag` is the
/// human-readable model version written into the manifest.
void SaveSatoBundle(const SatoModel& model, const FeatureContext& context,
                    const features::FeatureScaler& scaler, std::ostream* out,
                    const std::string& tag = std::string());

/// Restores a bundle saved with SaveSatoBundle, verifying its content
/// hash. Throws std::runtime_error on malformed or corrupted input.
LoadedSato LoadSatoBundle(std::istream* in);

}  // namespace sato

#endif  // SATO_CORE_MODEL_IO_H_
