#include "core/sato_model.h"

#include <cmath>
#include <stdexcept>

#include "nn/loss.h"

namespace sato {

std::string VariantName(SatoVariant variant) {
  switch (variant) {
    case SatoVariant::kBase: return "Base";
    case SatoVariant::kNoStruct: return "Sato-NoStruct";
    case SatoVariant::kNoTopic: return "Sato-NoTopic";
    case SatoVariant::kFull: return "Sato";
  }
  return "?";
}

bool VariantUsesTopic(SatoVariant variant) {
  return variant == SatoVariant::kNoStruct || variant == SatoVariant::kFull;
}

bool VariantUsesCrf(SatoVariant variant) {
  return variant == SatoVariant::kNoTopic || variant == SatoVariant::kFull;
}

SatoModel::SatoModel(SatoVariant variant,
                     const ColumnwiseModel::Dims& feature_dims,
                     size_t topic_dim, const SatoConfig& config,
                     util::Rng* rng)
    : variant_(variant), config_(config) {
  ColumnwiseModel::Dims dims = feature_dims;
  dims.topic_dim = uses_topic() ? topic_dim : 0;
  columnwise_ = std::make_unique<ColumnwiseModel>(dims, config, rng);
  if (uses_crf()) {
    crf_ = std::make_unique<crf::LinearChainCrf>(
        static_cast<int>(dims.num_classes));
  }
}

FeatureBatch SatoModel::MakeBatch(const TableExample& table) const {
  std::vector<const features::ColumnFeatures*> columns;
  std::vector<const std::vector<double>*> topics;
  columns.reserve(table.features.size());
  for (const auto& f : table.features) columns.push_back(&f);
  if (uses_topic()) {
    topics.assign(table.features.size(), &table.topic);
  }
  return FeatureBatch::FromColumns(columns, topics);
}

const nn::Matrix& SatoModel::ApplyProbs(const TableExample& table,
                                        nn::Workspace* ws) const {
  ws->Reset();
  FeatureBatch batch = MakeBatch(table);
  // The logits come back as a workspace reference owned by the output
  // layer's slot; softmax would clobber it for any later reader, so the
  // probabilities get their own scratch slot.
  const nn::Matrix& logits = columnwise_->Apply(batch, ws);
  nn::Matrix& probs = ws->Scratch(logits.rows(), logits.cols());
  std::copy(logits.data(), logits.data() + logits.size(), probs.data());
  nn::SoftmaxRowsInPlace(&probs);
  return probs;
}

nn::Matrix SatoModel::PredictProbs(const TableExample& table,
                                   nn::Workspace* ws) const {
  return ApplyProbs(table, ws);
}

nn::Matrix SatoModel::PredictProbs(const TableExample& table) const {
  nn::Workspace ws;
  return PredictProbs(table, &ws);
}

std::vector<int> SatoModel::Predict(const TableExample& table,
                                    nn::Workspace* ws) const {
  const nn::Matrix& probs = ApplyProbs(table, ws);
  if (uses_crf()) {
    // Unary potentials are the log of the normalised prediction scores
    // (§4.3); Viterbi yields the MAP type sequence (§3.3).
    nn::Matrix& unary = ws->Scratch(probs.rows(), probs.cols());
    for (size_t i = 0; i < probs.size(); ++i) {
      unary.data()[i] = std::log(std::max(probs.data()[i], 1e-12));
    }
    return crf_->Viterbi(unary);
  }
  std::vector<int> out(probs.rows());
  for (size_t r = 0; r < probs.rows(); ++r) {
    const double* row = probs.Row(r);
    int best = 0;
    for (size_t c = 1; c < probs.cols(); ++c) {
      if (row[c] > row[best]) best = static_cast<int>(c);
    }
    out[r] = best;
  }
  return out;
}

std::vector<int> SatoModel::Predict(const TableExample& table) const {
  nn::Workspace ws;
  return Predict(table, &ws);
}

nn::Matrix SatoModel::ColumnEmbeddings(const TableExample& table,
                                       nn::Workspace* ws) const {
  ws->Reset();
  FeatureBatch batch = MakeBatch(table);
  nn::Matrix embedding;
  columnwise_->ApplyWithEmbedding(batch, ws, &embedding);
  return embedding;
}

nn::Matrix SatoModel::ColumnEmbeddings(const TableExample& table) const {
  nn::Workspace ws;
  return ColumnEmbeddings(table, &ws);
}

void SatoModel::Save(std::ostream* out) const {
  columnwise_->Save(out);
  if (crf_ != nullptr) crf_->Save(out);
}

void SatoModel::Load(std::istream* in) {
  columnwise_->Load(in);
  if (crf_ != nullptr) {
    auto loaded = crf::LinearChainCrf::Load(in);
    if (loaded.num_states() != crf_->num_states()) {
      throw std::runtime_error("SatoModel::Load: CRF state mismatch");
    }
    crf_->pairwise().value = loaded.pairwise().value;
  }
}

}  // namespace sato
