#include "core/model_io.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/string_util.h"

namespace sato {

namespace {

// A bundle starts with this magic, then the manifest block, then the
// payload.
constexpr uint64_t kBundleMagicV2 = 0x5341544f424e4432ull;  // "SATOBND2"

void WriteU64(std::ostream* out, uint64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t ReadU64(std::istream* in) {
  uint64_t v = 0;
  in->read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!*in) throw std::runtime_error("LoadSatoBundle: truncated stream");
  return v;
}

void WriteString(std::ostream* out, const std::string& s) {
  WriteU64(out, s.size());
  out->write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string ReadString(std::istream* in) {
  const uint64_t size = ReadU64(in);
  if (size > (1ull << 20)) {
    throw std::runtime_error("LoadSatoBundle: implausible string length");
  }
  std::string s(size, '\0');
  in->read(s.data(), static_cast<std::streamsize>(size));
  if (!*in) throw std::runtime_error("LoadSatoBundle: truncated stream");
  return s;
}

/// Serializes the bundle payload (everything after the magic/manifest):
/// variant, config, feature dims, context, scaler, model.
void WritePayload(const SatoModel& model, const FeatureContext& context,
                  const features::FeatureScaler& scaler, std::ostream* out) {
  WriteU64(out, static_cast<uint64_t>(model.variant()));

  // The config keeps its in-memory layout on disk (ReadPayload reads the
  // struct raw), but is copied field by field into a zeroed image, so
  // padding never reaches the bundle or its content hash.
  const SatoConfig& config = model.config();
  static_assert(sizeof(SatoConfig) == 136, "new field: add it to the image");
  char image[sizeof(SatoConfig)] = {};
  auto put = [&image](size_t offset, const auto& field) {
    std::memcpy(image + offset, &field, sizeof(field));
  };
  put(offsetof(SatoConfig, subnet_hidden), config.subnet_hidden);
  put(offsetof(SatoConfig, char_out), config.char_out);
  put(offsetof(SatoConfig, word_out), config.word_out);
  put(offsetof(SatoConfig, para_out), config.para_out);
  put(offsetof(SatoConfig, topic_out), config.topic_out);
  put(offsetof(SatoConfig, primary_hidden), config.primary_hidden);
  put(offsetof(SatoConfig, dropout), config.dropout);
  put(offsetof(SatoConfig, learning_rate), config.learning_rate);
  put(offsetof(SatoConfig, weight_decay), config.weight_decay);
  put(offsetof(SatoConfig, epochs), config.epochs);
  put(offsetof(SatoConfig, batch_size), config.batch_size);
  put(offsetof(SatoConfig, crf_epochs), config.crf_epochs);
  put(offsetof(SatoConfig, crf_batch_size), config.crf_batch_size);
  put(offsetof(SatoConfig, crf_learning_rate), config.crf_learning_rate);
  put(offsetof(SatoConfig, crf_init_scale), config.crf_init_scale);
  put(offsetof(SatoConfig, num_topics), config.num_topics);
  put(offsetof(SatoConfig, seed), config.seed);
  out->write(image, sizeof(image));

  // Reconstruct the dims from the pipeline so the loaded model is built
  // with identical shapes.
  ColumnwiseModel::Dims dims;
  dims.char_dim = context.pipeline().char_dim();
  dims.word_dim = context.pipeline().word_dim();
  dims.para_dim = context.pipeline().para_dim();
  dims.stat_dim = context.pipeline().stat_dim();
  out->write(reinterpret_cast<const char*>(&dims), sizeof(dims));

  context.Save(out);
  scaler.Save(out);
  model.Save(out);
}

/// Parses the payload written by WritePayload.
LoadedSato ReadPayload(std::istream* in) {
  auto variant = static_cast<SatoVariant>(ReadU64(in));

  SatoConfig config;
  in->read(reinterpret_cast<char*>(&config), sizeof(config));
  ColumnwiseModel::Dims dims;
  in->read(reinterpret_cast<char*>(&dims), sizeof(dims));
  if (!*in) throw std::runtime_error("LoadSatoBundle: truncated stream");

  LoadedSato loaded;
  loaded.context =
      std::make_shared<const FeatureContext>(FeatureContext::Load(in));
  loaded.scaler = features::FeatureScaler::Load(in);

  // Build the architecture (weights are placeholder-initialised, then
  // overwritten by Load).
  util::Rng init_rng(config.seed);
  auto model = std::make_shared<SatoModel>(
      variant, dims, loaded.context->topic_dim(), config, &init_rng);
  model->Load(in);
  loaded.model = std::move(model);

  loaded.predictor = std::make_unique<SatoPredictor>(
      loaded.model, loaded.context, loaded.scaler);
  return loaded;
}

}  // namespace

void SaveSatoBundle(const SatoModel& model, const FeatureContext& context,
                    const features::FeatureScaler& scaler, std::ostream* out,
                    const std::string& tag) {
  // The payload is serialized to memory first so its content hash can go
  // into the manifest ahead of it. A model bundle is ~MiB scale, so the
  // staging buffer is cheap relative to the integrity check it buys.
  std::ostringstream payload;
  WritePayload(model, context, scaler, &payload);
  const std::string bytes = std::move(payload).str();

  WriteU64(out, kBundleMagicV2);
  WriteString(out, tag);
  WriteU64(out, util::Fnv1aHash(bytes));
  WriteU64(out, bytes.size());
  out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

LoadedSato LoadSatoBundle(std::istream* in) {
  if (ReadU64(in) != kBundleMagicV2) {
    throw std::runtime_error("LoadSatoBundle: bad magic");
  }

  BundleManifest manifest;
  manifest.tag = ReadString(in);
  manifest.content_hash = ReadU64(in);

  // Bound the untrusted length field before allocating: a corrupted
  // bundle must fail with runtime_error, not bad_alloc. Real payloads
  // are ~MiB scale; 1 GiB is far beyond any plausible model.
  const uint64_t payload_size = ReadU64(in);
  if (payload_size > (1ull << 30)) {
    throw std::runtime_error("LoadSatoBundle: implausible payload length");
  }
  std::string bytes(payload_size, '\0');
  in->read(bytes.data(), static_cast<std::streamsize>(payload_size));
  if (!*in) throw std::runtime_error("LoadSatoBundle: truncated stream");
  if (util::Fnv1aHash(bytes) != manifest.content_hash) {
    throw std::runtime_error(
        "LoadSatoBundle: content hash mismatch (corrupted bundle)");
  }

  std::istringstream payload(std::move(bytes));
  LoadedSato loaded = ReadPayload(&payload);
  loaded.manifest = std::move(manifest);
  return loaded;
}

}  // namespace sato
