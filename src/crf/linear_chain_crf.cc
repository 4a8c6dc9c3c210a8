#include "crf/linear_chain_crf.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/serialize.h"
#include "util/cpu.h"
#include "util/math_util.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define SATO_CRF_HAS_AVX2 1
#endif

namespace sato::crf {

namespace {

void CheckShapes(const nn::Matrix& unary, int num_states) {
  if (unary.rows() == 0 || unary.cols() != static_cast<size_t>(num_states)) {
    throw std::invalid_argument("LinearChainCrf: bad unary shape");
  }
}

}  // namespace

LinearChainCrf::LinearChainCrf(int num_states)
    : num_states_(num_states),
      pairwise_("crf_pairwise",
                nn::Matrix(static_cast<size_t>(num_states),
                           static_cast<size_t>(num_states), 0.0)) {}

void LinearChainCrf::InitFromCooccurrence(const nn::Matrix& counts,
                                          double scale) {
  if (counts.rows() != pairwise_.value.rows() ||
      counts.cols() != pairwise_.value.cols()) {
    throw std::invalid_argument("InitFromCooccurrence: shape mismatch");
  }
  nn::Matrix& p = pairwise_.value;
  double mean = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    p.data()[i] = std::log1p(counts.data()[i]);
    mean += p.data()[i];
  }
  mean /= static_cast<double>(counts.size());
  for (size_t i = 0; i < p.size(); ++i) {
    p.data()[i] = scale * (p.data()[i] - mean);
  }
}

nn::Matrix LinearChainCrf::Forward(const nn::Matrix& unary) const {
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  nn::Matrix alpha(m, k);
  for (size_t s = 0; s < k; ++s) alpha(0, s) = unary(0, s);
  std::vector<double> scratch(k);
  for (size_t i = 1; i < m; ++i) {
    for (size_t s = 0; s < k; ++s) {
      for (size_t prev = 0; prev < k; ++prev) {
        scratch[prev] = alpha(i - 1, prev) + pairwise_.value(prev, s);
      }
      alpha(i, s) = unary(i, s) + util::LogSumExp(scratch.data(), k);
    }
  }
  return alpha;
}

nn::Matrix LinearChainCrf::Backward(const nn::Matrix& unary) const {
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  nn::Matrix beta(m, k);  // beta(m-1, *) = 0
  std::vector<double> scratch(k);
  for (size_t ii = m - 1; ii > 0; --ii) {
    size_t i = ii - 1;
    for (size_t s = 0; s < k; ++s) {
      for (size_t next = 0; next < k; ++next) {
        scratch[next] =
            pairwise_.value(s, next) + unary(i + 1, next) + beta(i + 1, next);
      }
      beta(i, s) = util::LogSumExp(scratch.data(), k);
    }
  }
  return beta;
}

double LinearChainCrf::LogPartition(const nn::Matrix& unary) const {
  CheckShapes(unary, num_states_);
  nn::Matrix alpha = Forward(unary);
  const size_t m = unary.rows();
  return util::LogSumExp(alpha.Row(m - 1), static_cast<size_t>(num_states_));
}

double LinearChainCrf::LogLikelihood(const nn::Matrix& unary,
                                     const std::vector<int>& labels) const {
  CheckShapes(unary, num_states_);
  if (labels.size() != unary.rows()) {
    throw std::invalid_argument("LogLikelihood: label count mismatch");
  }
  double score = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    score += unary(i, static_cast<size_t>(labels[i]));
    if (i + 1 < labels.size()) {
      score += pairwise_.value(static_cast<size_t>(labels[i]),
                               static_cast<size_t>(labels[i + 1]));
    }
  }
  return score - LogPartition(unary);
}

double LinearChainCrf::AccumulateGradients(const nn::Matrix& unary,
                                           const std::vector<int>& labels,
                                           nn::Matrix* unary_grad) {
  CheckShapes(unary, num_states_);
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  nn::Matrix alpha = Forward(unary);
  nn::Matrix beta = Backward(unary);
  double log_z = util::LogSumExp(alpha.Row(m - 1), k);

  // Gradient of NLL w.r.t. pairwise potentials: expected adjacent-pair
  // marginals minus gold indicators.
  for (size_t i = 0; i + 1 < m; ++i) {
    for (size_t a = 0; a < k; ++a) {
      double base = alpha(i, a) - log_z;
      for (size_t b = 0; b < k; ++b) {
        double log_marginal =
            base + pairwise_.value(a, b) + unary(i + 1, b) + beta(i + 1, b);
        pairwise_.grad(a, b) += std::exp(log_marginal);
      }
    }
    pairwise_.grad(static_cast<size_t>(labels[i]),
                   static_cast<size_t>(labels[i + 1])) -= 1.0;
  }

  if (unary_grad != nullptr) {
    *unary_grad = nn::Matrix(m, k);
    for (size_t i = 0; i < m; ++i) {
      for (size_t s = 0; s < k; ++s) {
        (*unary_grad)(i, s) = std::exp(alpha(i, s) + beta(i, s) - log_z);
      }
      (*unary_grad)(i, static_cast<size_t>(labels[i])) -= 1.0;
    }
  }

  // NLL itself.
  double score = 0.0;
  for (size_t i = 0; i < m; ++i) {
    score += unary(i, static_cast<size_t>(labels[i]));
    if (i + 1 < m) {
      score += pairwise_.value(static_cast<size_t>(labels[i]),
                               static_cast<size_t>(labels[i + 1]));
    }
  }
  return log_z - score;
}

namespace {

/// One Viterbi relaxation step from a single predecessor state: for every
/// state s, keeps `from + transition[s]` in best[s] (and `prev` in
/// best_prev[s]) when it strictly beats the current best. Both stores are
/// unconditional selects, not branches, so the loop if-converts into
/// vector blends wherever the target has them.
__attribute__((always_inline)) inline void RelaxFrom(
    double from, const double* transition, int prev, size_t k, double* best,
    int* best_prev) {
  for (size_t s = 0; s < k; ++s) {
    const double cand = from + transition[s];
    const double current = best[s];
    const int current_prev = best_prev[s];
    const bool better = cand > current;
    best[s] = better ? cand : current;
    best_prev[s] = better ? prev : current_prev;
  }
}

void RelaxFromPortable(double from, const double* transition, int prev,
                       size_t k, double* best, int* best_prev) {
  RelaxFrom(from, transition, prev, k, best, best_prev);
}

#if defined(SATO_CRF_HAS_AVX2)
// The same loop compiled for AVX2, whose blends (absent from the SSE2
// baseline) let it vectorise. Element-wise IEEE adds and compares in the
// same order: bit-identical to the portable build.
__attribute__((target("avx2"))) void RelaxFromAvx2(double from,
                                                   const double* transition,
                                                   int prev, size_t k,
                                                   double* best,
                                                   int* best_prev) {
  RelaxFrom(from, transition, prev, k, best, best_prev);
}
#endif  // SATO_CRF_HAS_AVX2

}  // namespace

std::vector<int> LinearChainCrf::Viterbi(const nn::Matrix& unary) const {
  CheckShapes(unary, num_states_);
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  nn::Matrix delta(m, k);
  std::vector<int> backptr(m * k, 0);  // backptr[i * k + s]
#if defined(SATO_CRF_HAS_AVX2)
  const auto relax = util::CpuHasAvx2() && !util::CpuDispatchDisabledByEnv()
                         ? RelaxFromAvx2
                         : RelaxFromPortable;
#else
  const auto relax = RelaxFromPortable;
#endif
  for (size_t s = 0; s < k; ++s) delta(0, s) = unary(0, s);
  for (size_t i = 1; i < m; ++i) {
    // `prev` outermost so the inner loop sweeps the contiguous pairwise
    // row and vectorises. Visiting `prev` in increasing order with a
    // strict `>` keeps first-max tie-breaking and adds the same two
    // doubles per candidate, so the path is bit-identical to the
    // per-state argmax.
    const double* prev_delta = delta.Row(i - 1);
    double* best = delta.Row(i);
    int* best_prev = backptr.data() + i * k;
    std::fill(best, best + k, -std::numeric_limits<double>::infinity());
    for (size_t prev = 0; prev < k; ++prev) {
      relax(prev_delta[prev], pairwise_.value.Row(prev),
            static_cast<int>(prev), k, best, best_prev);
    }
    const double* emission = unary.Row(i);
    for (size_t s = 0; s < k; ++s) best[s] += emission[s];
  }
  std::vector<int> path(m);
  const double* last = delta.Row(m - 1);
  path[m - 1] = static_cast<int>(std::max_element(last, last + k) - last);
  for (size_t ii = m - 1; ii > 0; --ii) {
    path[ii - 1] = backptr[ii * k + static_cast<size_t>(path[ii])];
  }
  return path;
}

nn::Matrix LinearChainCrf::Marginals(const nn::Matrix& unary) const {
  CheckShapes(unary, num_states_);
  const size_t m = unary.rows();
  const size_t k = static_cast<size_t>(num_states_);
  nn::Matrix alpha = Forward(unary);
  nn::Matrix beta = Backward(unary);
  double log_z = util::LogSumExp(alpha.Row(m - 1), k);
  nn::Matrix marginals(m, k);
  for (size_t i = 0; i < m; ++i) {
    for (size_t s = 0; s < k; ++s) {
      marginals(i, s) = std::exp(alpha(i, s) + beta(i, s) - log_z);
    }
  }
  return marginals;
}

void LinearChainCrf::Save(std::ostream* out) const {
  nn::SaveMatrix(pairwise_.value, out);
}

LinearChainCrf LinearChainCrf::Load(std::istream* in) {
  nn::Matrix p = nn::LoadMatrix(in);
  if (p.rows() != p.cols()) {
    throw std::runtime_error("LinearChainCrf::Load: non-square matrix");
  }
  LinearChainCrf crf(static_cast<int>(p.rows()));
  crf.pairwise_.value = std::move(p);
  return crf;
}

}  // namespace sato::crf
