#include "topic/lda.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/cpu.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define SATO_LDA_HAS_AVX2 1
#include <immintrin.h>

#include <bit>
#endif

namespace sato::topic {

namespace {

#if defined(SATO_LDA_HAS_AVX2)
// One fold-in Gibbs sampling step: weights p[t] = (n_dk[t] + alpha) *
// col[t], cumulative sum, one draw, index search. Bitwise-identical to
// the scalar step: the products are the same element-wise IEEE ops (just
// four at a time), the prefix chain keeps the exact serial add order, and
// counting cum[t] < u in a non-decreasing array (p[t] >= 0 always) is the
// index lower_bound returns, with the same past-the-end fallback.
// Requires k % 4 == 0 (the dispatch site checks).
__attribute__((target("avx2"))) int SampleTopicAvx2(const double* col,
                                                    const double* n_dk,
                                                    double* cum, int k,
                                                    double alpha,
                                                    util::Rng* rng) {
  const __m256d av = _mm256_set1_pd(alpha);
  for (int t = 0; t < k; t += 4) {
    __m256d nd = _mm256_loadu_pd(n_dk + t);
    __m256d c = _mm256_loadu_pd(col + t);
    _mm256_storeu_pd(cum + t, _mm256_mul_pd(_mm256_add_pd(nd, av), c));
  }
  double acc = 0.0;
  for (int t = 0; t < k; ++t) {
    acc += cum[t];
    cum[t] = acc;
  }
  const __m256d uv = _mm256_set1_pd(rng->Uniform() * acc);
  int below = 0;
  for (int t = 0; t < k; t += 4) {
    __m256d c = _mm256_loadu_pd(cum + t);
    below += std::popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(c, uv, _CMP_LT_OQ))));
  }
  return below >= k ? k - 1 : below;
}
#endif  // SATO_LDA_HAS_AVX2

using embedding::TokenId;
using embedding::Vocabulary;

// Encodes a tokenised document as in-vocabulary token ids, truncated.
std::vector<TokenId> Encode(const Vocabulary& vocab,
                            const std::vector<std::string>& doc,
                            size_t max_tokens) {
  std::vector<TokenId> ids;
  ids.reserve(std::min(doc.size(), max_tokens));
  for (const auto& token : doc) {
    if (ids.size() >= max_tokens) break;
    auto id = vocab.Id(token);
    if (id.has_value()) ids.push_back(*id);
  }
  return ids;
}

}  // namespace

LdaModel LdaModel::Train(const std::vector<std::vector<std::string>>& documents,
                         const LdaOptions& options, util::Rng* rng) {
  LdaModel model;
  model.options_ = options;

  Vocabulary& vocab = model.vocab_;
  for (const auto& doc : documents) vocab.CountAll(doc);
  vocab.Finalize(options.min_count);
  const size_t v = vocab.size();
  const int k = options.num_topics;
  if (v == 0) throw std::invalid_argument("LdaModel::Train: empty vocabulary");

  std::vector<std::vector<TokenId>> docs;
  docs.reserve(documents.size());
  for (const auto& doc : documents) {
    docs.push_back(Encode(vocab, doc, options.max_doc_tokens));
  }

  // Collapsed Gibbs state.
  std::vector<std::vector<int>> z(docs.size());          // token topics
  std::vector<std::vector<int>> n_dk(docs.size());       // doc-topic counts
  std::vector<int> n_kw(static_cast<size_t>(k) * v, 0);  // topic-word counts
  std::vector<int> n_k(static_cast<size_t>(k), 0);       // topic totals

  for (size_t d = 0; d < docs.size(); ++d) {
    z[d].resize(docs[d].size());
    n_dk[d].assign(static_cast<size_t>(k), 0);
    for (size_t i = 0; i < docs[d].size(); ++i) {
      int topic = static_cast<int>(rng->UniformInt(0, k - 1));
      z[d][i] = topic;
      ++n_dk[d][static_cast<size_t>(topic)];
      ++n_kw[static_cast<size_t>(topic) * v + static_cast<size_t>(docs[d][i])];
      ++n_k[static_cast<size_t>(topic)];
    }
  }

  const double alpha = options.alpha;
  const double beta = options.beta;
  const double v_beta = static_cast<double>(v) * beta;
  std::vector<double> p(static_cast<size_t>(k));

  for (int iter = 0; iter < options.train_iterations; ++iter) {
    for (size_t d = 0; d < docs.size(); ++d) {
      for (size_t i = 0; i < docs[d].size(); ++i) {
        TokenId w = docs[d][i];
        int old_topic = z[d][i];
        --n_dk[d][static_cast<size_t>(old_topic)];
        --n_kw[static_cast<size_t>(old_topic) * v + static_cast<size_t>(w)];
        --n_k[static_cast<size_t>(old_topic)];

        for (int t = 0; t < k; ++t) {
          p[static_cast<size_t>(t)] =
              (static_cast<double>(n_dk[d][static_cast<size_t>(t)]) + alpha) *
              (static_cast<double>(
                   n_kw[static_cast<size_t>(t) * v + static_cast<size_t>(w)]) +
               beta) /
              (static_cast<double>(n_k[static_cast<size_t>(t)]) + v_beta);
        }
        int new_topic = static_cast<int>(rng->Categorical(p));
        z[d][i] = new_topic;
        ++n_dk[d][static_cast<size_t>(new_topic)];
        ++n_kw[static_cast<size_t>(new_topic) * v + static_cast<size_t>(w)];
        ++n_k[static_cast<size_t>(new_topic)];
      }
    }
  }

  // Estimate phi from the final counts (flat row-major [K x V]).
  model.phi_.assign(static_cast<size_t>(k) * v, 0.0);
  for (int t = 0; t < k; ++t) {
    double denom = static_cast<double>(n_k[static_cast<size_t>(t)]) + v_beta;
    double* row = model.phi_.data() + static_cast<size_t>(t) * v;
    for (size_t w = 0; w < v; ++w) {
      row[w] =
          (static_cast<double>(n_kw[static_cast<size_t>(t) * v + w]) + beta) /
          denom;
    }
  }
  model.BuildPhiTranspose();
  return model;
}

void LdaModel::BuildPhiTranspose() {
  const size_t k = static_cast<size_t>(options_.num_topics);
  const size_t v = vocab_.size();
  phi_t_.assign(v * k, 0.0);
  for (size_t t = 0; t < k; ++t) {
    const double* row = phi_.data() + t * v;
    for (size_t w = 0; w < v; ++w) phi_t_[w * k + t] = row[w];
  }
}

std::vector<double> LdaModel::InferTopics(
    const std::vector<std::string>& document, util::Rng* rng) const {
  LdaScratch scratch;
  scratch.ids = Encode(vocab_, document, options_.max_doc_tokens);
  std::vector<double> theta;
  InferTopicsInto(rng, &scratch, &theta);
  return theta;
}

void LdaModel::InferTopicsInto(util::Rng* rng, LdaScratch* scratch,
                               std::vector<double>* theta) const {
  const int k = options_.num_topics;
  const size_t ku = static_cast<size_t>(k);
  theta->assign(ku, 1.0 / static_cast<double>(k));
  const std::vector<TokenId>& ids = scratch->ids;
  if (ids.empty()) return;

  // Fold-in Gibbs; identical draw order and weights to
  // ReferenceInferTopics, so results are bit-for-bit the same. Each
  // token's phi column is read contiguously from the [V x K] transpose
  // (same doubles as phi_, different layout). The sampling step is fused:
  // one pass builds the cumulative weights cum[t] = p[0] + ... + p[t] with
  // exactly the additions Rng::Categorical performs (its total pass and
  // its walk accumulate the same p[t] in the same order), one Uniform()
  // draw lands at the same stream position, and the search finds the first
  // t with u <= cum[t] -- the index the reference's early-exit walk
  // returns. On AVX2 hosts SampleTopicAvx2 runs the same step with
  // vectorised products and search but the identical serial prefix chain.
  scratch->z.resize(ids.size());
  scratch->n_dk.assign(ku, 0.0);
  double* n_dk = scratch->n_dk.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    int t = static_cast<int>(rng->UniformInt(0, k - 1));
    scratch->z[i] = t;
    n_dk[static_cast<size_t>(t)] += 1.0;
  }
  scratch->p.resize(ku);
  double* cum = scratch->p.data();
  const double alpha = options_.alpha;
#if defined(SATO_LDA_HAS_AVX2)
  const bool use_avx2 = k % 4 == 0 && util::CpuHasAvx2() &&
                        !util::CpuDispatchDisabledByEnv();
#else
  const bool use_avx2 = false;
#endif
  for (int iter = 0; iter < options_.infer_iterations; ++iter) {
    for (size_t i = 0; i < ids.size(); ++i) {
      int old_topic = scratch->z[i];
      n_dk[static_cast<size_t>(old_topic)] -= 1.0;
      const double* col = PhiCol(ids[i]);
      int new_topic = 0;
      if (use_avx2) {
#if defined(SATO_LDA_HAS_AVX2)
        new_topic = SampleTopicAvx2(col, n_dk, cum, k, alpha, rng);
#endif
      } else {
        double acc = 0.0;
        for (size_t t = 0; t < ku; ++t) {
          acc += (n_dk[t] + alpha) * col[t];
          cum[t] = acc;
        }
        double u = rng->Uniform() * acc;
        const double* hit = std::lower_bound(cum, cum + ku, u);
        new_topic = hit == cum + ku ? k - 1 : static_cast<int>(hit - cum);
      }
      scratch->z[i] = new_topic;
      n_dk[static_cast<size_t>(new_topic)] += 1.0;
    }
  }
  double denom = static_cast<double>(ids.size()) +
                 static_cast<double>(k) * alpha;
  for (size_t t = 0; t < ku; ++t) {
    (*theta)[t] = (n_dk[t] + alpha) / denom;
  }
}

std::vector<double> LdaModel::ReferenceInferTopics(
    const std::vector<std::string>& document, util::Rng* rng) const {
  const int k = options_.num_topics;
  const size_t v = vocab_.size();
  std::vector<double> theta(static_cast<size_t>(k),
                            1.0 / static_cast<double>(k));
  std::vector<TokenId> ids = Encode(vocab_, document, options_.max_doc_tokens);
  if (ids.empty()) return theta;

  std::vector<int> z(ids.size());
  std::vector<int> n_dk(static_cast<size_t>(k), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    int t = static_cast<int>(rng->UniformInt(0, k - 1));
    z[i] = t;
    ++n_dk[static_cast<size_t>(t)];
  }
  std::vector<double> p(static_cast<size_t>(k));
  const double alpha = options_.alpha;
  for (int iter = 0; iter < options_.infer_iterations; ++iter) {
    for (size_t i = 0; i < ids.size(); ++i) {
      int old_topic = z[i];
      --n_dk[static_cast<size_t>(old_topic)];
      size_t w = static_cast<size_t>(ids[i]);
      for (int t = 0; t < k; ++t) {
        p[static_cast<size_t>(t)] =
            (static_cast<double>(n_dk[static_cast<size_t>(t)]) + alpha) *
            phi_[static_cast<size_t>(t) * v + w];
      }
      int new_topic = static_cast<int>(rng->Categorical(p));
      z[i] = new_topic;
      ++n_dk[static_cast<size_t>(new_topic)];
    }
  }
  double denom = static_cast<double>(ids.size()) +
                 static_cast<double>(k) * alpha;
  for (int t = 0; t < k; ++t) {
    theta[static_cast<size_t>(t)] =
        (static_cast<double>(n_dk[static_cast<size_t>(t)]) + alpha) / denom;
  }
  return theta;
}

std::vector<std::pair<std::string, double>> LdaModel::TopWords(
    int topic, size_t k) const {
  const size_t v = vocab_.size();
  const double* row = PhiRow(topic);
  std::vector<std::pair<std::string, double>> scored;
  scored.reserve(v);
  for (size_t w = 0; w < v; ++w) {
    scored.emplace_back(vocab_.Token(static_cast<TokenId>(w)), row[w]);
  }
  std::partial_sort(scored.begin(), scored.begin() + std::min(k, scored.size()),
                    scored.end(), [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  scored.resize(std::min(k, scored.size()));
  return scored;
}

void LdaModel::Save(std::ostream* out) const {
  uint64_t k = static_cast<uint64_t>(options_.num_topics);
  uint64_t v = vocab_.size();
  out->write(reinterpret_cast<const char*>(&k), sizeof(k));
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
  // The options keep their in-memory layout on disk (Load reads the struct
  // raw), but are copied field by field into a zeroed image, so padding
  // never reaches the file: the bytes are a function of the values alone.
  static_assert(sizeof(LdaOptions) == 48, "new field: add it to the image");
  char image[sizeof(LdaOptions)] = {};
  auto put = [&image](size_t offset, const auto& field) {
    std::memcpy(image + offset, &field, sizeof(field));
  };
  put(offsetof(LdaOptions, num_topics), options_.num_topics);
  put(offsetof(LdaOptions, alpha), options_.alpha);
  put(offsetof(LdaOptions, beta), options_.beta);
  put(offsetof(LdaOptions, train_iterations), options_.train_iterations);
  put(offsetof(LdaOptions, infer_iterations), options_.infer_iterations);
  put(offsetof(LdaOptions, min_count), options_.min_count);
  put(offsetof(LdaOptions, max_doc_tokens), options_.max_doc_tokens);
  out->write(image, sizeof(image));
  for (size_t i = 0; i < v; ++i) {
    const std::string& t = vocab_.Token(static_cast<TokenId>(i));
    uint64_t len = t.size();
    out->write(reinterpret_cast<const char*>(&len), sizeof(len));
    out->write(t.data(), static_cast<std::streamsize>(len));
    int64_t freq = vocab_.Frequency(static_cast<TokenId>(i));
    out->write(reinterpret_cast<const char*>(&freq), sizeof(freq));
  }
  // Flat [K x V] phi: byte-identical to the previous row-by-row format.
  out->write(reinterpret_cast<const char*>(phi_.data()),
             static_cast<std::streamsize>(phi_.size() * sizeof(double)));
}

LdaModel LdaModel::Load(std::istream* in) {
  LdaModel model;
  uint64_t k = 0, v = 0;
  in->read(reinterpret_cast<char*>(&k), sizeof(k));
  in->read(reinterpret_cast<char*>(&v), sizeof(v));
  in->read(reinterpret_cast<char*>(&model.options_), sizeof(model.options_));
  if (!*in) throw std::runtime_error("LdaModel::Load: truncated stream");
  for (uint64_t i = 0; i < v; ++i) {
    uint64_t len = 0;
    in->read(reinterpret_cast<char*>(&len), sizeof(len));
    std::string t(len, '\0');
    in->read(t.data(), static_cast<std::streamsize>(len));
    int64_t freq = 0;
    in->read(reinterpret_cast<char*>(&freq), sizeof(freq));
    if (!*in) throw std::runtime_error("LdaModel::Load: truncated stream");
    for (int64_t c = 0; c < freq; ++c) model.vocab_.Count(t);
  }
  model.vocab_.Finalize(1);
  if (model.vocab_.size() != v) {
    throw std::runtime_error("LdaModel::Load: vocabulary mismatch");
  }
  model.phi_.assign(k * v, 0.0);
  in->read(reinterpret_cast<char*>(model.phi_.data()),
           static_cast<std::streamsize>(model.phi_.size() * sizeof(double)));
  if (!*in) throw std::runtime_error("LdaModel::Load: truncated stream");
  model.BuildPhiTranspose();
  return model;
}

}  // namespace sato::topic
