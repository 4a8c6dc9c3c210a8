#include "core/columnwise_model.h"

#include <stdexcept>

#include "nn/activations.h"
#include "nn/serialize.h"

namespace sato {

FeatureBatch FeatureBatch::FromColumns(
    const std::vector<const features::ColumnFeatures*>& columns,
    const std::vector<const std::vector<double>*>& topics) {
  if (columns.empty()) {
    throw std::invalid_argument("FeatureBatch::FromColumns: empty batch");
  }
  bool with_topic = !topics.empty();
  if (with_topic && topics.size() != columns.size()) {
    throw std::invalid_argument("FeatureBatch::FromColumns: topic mismatch");
  }
  FeatureBatch batch;
  size_t n = columns.size();
  auto fill = [&](features::FeatureGroup g, nn::Matrix* out) {
    const auto& first = columns[0]->group(g);
    *out = nn::Matrix(n, first.size());
    for (size_t i = 0; i < n; ++i) out->SetRow(i, columns[i]->group(g));
  };
  fill(features::FeatureGroup::kChar, &batch.char_features);
  fill(features::FeatureGroup::kWord, &batch.word_features);
  fill(features::FeatureGroup::kPara, &batch.para_features);
  fill(features::FeatureGroup::kStat, &batch.stat_features);
  if (with_topic) {
    batch.topic_features = nn::Matrix(n, topics[0]->size());
    for (size_t i = 0; i < n; ++i) batch.topic_features.SetRow(i, *topics[i]);
  }
  return batch;
}

namespace {

// Builds one compression subnetwork: Linear -> ReLU -> Linear -> ReLU.
void BuildSubnet(nn::Sequential* net, size_t in, size_t hidden, size_t out,
                 util::Rng* rng) {
  net->Emplace<nn::Linear>(in, hidden, rng);
  net->Emplace<nn::ReLU>();
  net->Emplace<nn::Linear>(hidden, out, rng);
  net->Emplace<nn::ReLU>();
}

}  // namespace

ColumnwiseModel::ColumnwiseModel(const Dims& dims, const SatoConfig& config,
                                 util::Rng* rng)
    : dims_(dims),
      char_out_(config.char_out),
      word_out_(config.word_out),
      para_out_(config.para_out),
      topic_out_(dims.topic_dim > 0 ? config.topic_out : 0) {
  BuildSubnet(&char_subnet_, dims.char_dim, config.subnet_hidden, char_out_, rng);
  BuildSubnet(&word_subnet_, dims.word_dim, config.subnet_hidden, word_out_, rng);
  BuildSubnet(&para_subnet_, dims.para_dim, config.subnet_hidden, para_out_, rng);
  if (dims.topic_dim > 0) {
    BuildSubnet(&topic_subnet_, dims.topic_dim, config.subnet_hidden,
                topic_out_, rng);
  }
  size_t concat = char_out_ + word_out_ + para_out_ + dims.stat_dim + topic_out_;
  // Primary network (§3.1): two FC+BN+ReLU+Dropout blocks, then the output
  // layer. Softmax lives in the loss / prediction path.
  primary_.Emplace<nn::Linear>(concat, config.primary_hidden, rng);
  batch_norms_.push_back(primary_.Emplace<nn::BatchNorm1d>(config.primary_hidden));
  primary_.Emplace<nn::ReLU>();
  primary_.Emplace<nn::Dropout>(config.dropout, rng);
  primary_.Emplace<nn::Linear>(config.primary_hidden, config.primary_hidden, rng);
  batch_norms_.push_back(primary_.Emplace<nn::BatchNorm1d>(config.primary_hidden));
  primary_.Emplace<nn::ReLU>();
  primary_.Emplace<nn::Dropout>(config.dropout, rng);
  primary_.Emplace<nn::Linear>(config.primary_hidden, dims.num_classes, rng);
}

nn::Matrix ColumnwiseModel::RunSubnets(const FeatureBatch& batch, bool train) {
  nn::Matrix concat = char_subnet_.Forward(batch.char_features, train);
  concat = nn::ConcatColumns(concat, word_subnet_.Forward(batch.word_features, train));
  concat = nn::ConcatColumns(concat, para_subnet_.Forward(batch.para_features, train));
  if (uses_topic()) {
    if (batch.topic_features.rows() != batch.batch_size()) {
      throw std::invalid_argument("ColumnwiseModel: missing topic features");
    }
    concat = nn::ConcatColumns(concat,
                               topic_subnet_.Forward(batch.topic_features, train));
  }
  concat = nn::ConcatColumns(concat, batch.stat_features);
  return concat;
}

const nn::Matrix& ColumnwiseModel::ApplySubnets(const FeatureBatch& batch,
                                                nn::Workspace* ws) const {
  // Same column layout as RunSubnets: char | word | para | topic | stat.
  const nn::Matrix& c = char_subnet_.Apply(batch.char_features, ws);
  const nn::Matrix& w = word_subnet_.Apply(batch.word_features, ws);
  const nn::Matrix& p = para_subnet_.Apply(batch.para_features, ws);
  const nn::Matrix* t = nullptr;
  if (uses_topic()) {
    if (batch.topic_features.rows() != batch.batch_size()) {
      throw std::invalid_argument("ColumnwiseModel: missing topic features");
    }
    t = &topic_subnet_.Apply(batch.topic_features, ws);
  }
  if (batch.stat_features.cols() != dims_.stat_dim ||
      batch.stat_features.rows() != batch.batch_size()) {
    throw std::invalid_argument("ColumnwiseModel: stat feature shape");
  }
  size_t n = batch.batch_size();
  size_t width = char_out_ + word_out_ + para_out_ + topic_out_ + dims_.stat_dim;
  nn::Matrix& concat = ws->Scratch(n, width);
  for (size_t r = 0; r < n; ++r) {
    double* dst = concat.Row(r);
    dst = std::copy(c.Row(r), c.Row(r) + c.cols(), dst);
    dst = std::copy(w.Row(r), w.Row(r) + w.cols(), dst);
    dst = std::copy(p.Row(r), p.Row(r) + p.cols(), dst);
    if (t != nullptr) dst = std::copy(t->Row(r), t->Row(r) + t->cols(), dst);
    std::copy(batch.stat_features.Row(r),
              batch.stat_features.Row(r) + batch.stat_features.cols(), dst);
  }
  return concat;
}

nn::Matrix ColumnwiseModel::Forward(const FeatureBatch& batch, bool train) {
  return primary_.Forward(RunSubnets(batch, train), train);
}

const nn::Matrix& ColumnwiseModel::Apply(const FeatureBatch& batch,
                                         nn::Workspace* ws) const {
  return primary_.Apply(ApplySubnets(batch, ws), ws);
}

const nn::Matrix& ColumnwiseModel::ApplyWithEmbedding(
    const FeatureBatch& batch, nn::Workspace* ws,
    nn::Matrix* embedding) const {
  return primary_.ApplyWithPenultimate(ApplySubnets(batch, ws), ws, embedding);
}

nn::Matrix ColumnwiseModel::ForwardWithEmbedding(const FeatureBatch& batch,
                                                 bool train,
                                                 nn::Matrix* embedding) {
  return primary_.ForwardWithPenultimate(RunSubnets(batch, train), train,
                                         embedding);
}

void ColumnwiseModel::Backward(const nn::Matrix& grad_logits) {
  nn::Matrix grad_concat = primary_.Backward(grad_logits);
  // Split the concat gradient back into its group slices.
  size_t n = grad_concat.rows();
  size_t offset = 0;
  auto slice = [&](size_t width) {
    nn::Matrix g(n, width);
    for (size_t r = 0; r < n; ++r) {
      const double* src = grad_concat.Row(r) + offset;
      std::copy(src, src + width, g.Row(r));
    }
    offset += width;
    return g;
  };
  nn::Matrix g_char = slice(char_out_);
  nn::Matrix g_word = slice(word_out_);
  nn::Matrix g_para = slice(para_out_);
  char_subnet_.Backward(g_char);
  word_subnet_.Backward(g_word);
  para_subnet_.Backward(g_para);
  if (uses_topic()) {
    nn::Matrix g_topic = slice(topic_out_);
    topic_subnet_.Backward(g_topic);
  }
  // The Stat slice feeds raw inputs; nothing upstream to update.
}

std::vector<nn::Parameter*> ColumnwiseModel::Parameters() {
  std::vector<nn::Parameter*> params;
  for (nn::Sequential* net :
       {&char_subnet_, &word_subnet_, &para_subnet_, &topic_subnet_, &primary_}) {
    auto p = net->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

void ColumnwiseModel::Save(std::ostream* out) const {
  auto* self = const_cast<ColumnwiseModel*>(this);
  nn::SaveParameters(self->Parameters(), out);
  for (const nn::BatchNorm1d* bn : batch_norms_) {
    nn::SaveMatrix(bn->running_mean(), out);
    nn::SaveMatrix(bn->running_var(), out);
  }
}

void ColumnwiseModel::Load(std::istream* in) {
  nn::LoadParameters(Parameters(), in);
  for (nn::BatchNorm1d* bn : batch_norms_) {
    *bn->mutable_running_mean() = nn::LoadMatrix(in);
    *bn->mutable_running_var() = nn::LoadMatrix(in);
  }
}

}  // namespace sato
