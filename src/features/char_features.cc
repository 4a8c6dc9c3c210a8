#include "features/char_features.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "embedding/token_cache.h"
#include "features/feature_scratch.h"

namespace sato::features {

namespace {
// 26 letters (case-folded) + 10 digits + 17 punctuation/special characters.
constexpr std::string_view kAlphabet =
    "abcdefghijklmnopqrstuvwxyz0123456789 .,-:/()$%&'\"+#@_";

// Maps a character to its alphabet slot or -1 (reference path: linear scan).
int Slot(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  char folded = static_cast<char>(std::tolower(u));
  auto pos = kAlphabet.find(folded);
  return pos == std::string_view::npos ? -1 : static_cast<int>(pos);
}

}  // namespace

std::string_view CharFeatureExtractor::Alphabet() { return kAlphabet; }

const std::array<int8_t, 256>& CharFeatureExtractor::SlotLut() {
  static const std::array<int8_t, 256> lut = [] {
    std::array<int8_t, 256> t{};
    for (int c = 0; c < 256; ++c) {
      t[static_cast<size_t>(c)] =
          static_cast<int8_t>(Slot(static_cast<char>(c)));
    }
    return t;
  }();
  return lut;
}

size_t CharFeatureExtractor::dim() const {
  return kAlphabet.size() * kStatsPerChar;
}

void CharFeatureExtractor::ExtractInto(const embedding::TokenCache& cache,
                                       size_t column, FeatureScratch* scratch,
                                       std::vector<double>* out) const {
  const size_t a = kAlphabet.size();
  scratch->char_sum.assign(a, 0.0);
  scratch->char_sum_sq.assign(a, 0.0);
  scratch->char_max.assign(a, 0.0);
  scratch->char_present.assign(a, 0.0);
  double* sum = scratch->char_sum.data();
  double* sum_sq = scratch->char_sum_sq.data();
  double* mx = scratch->char_max.data();
  double* present = scratch->char_present.data();

  const auto& span = cache.column_span(column);
  const std::vector<double>& multiplicity = cache.value_counts();
  const int8_t* lut = SlotLut().data();

  // The column is walked per DISTINCT value (the cache's per-column
  // interner provides the multiplicity m of each): every accumulation the
  // reference performs per cell -- sum += counts, sum_sq += counts^2,
  // present += 1, n += 1 -- is an addition of small integers held in
  // doubles, which is exact, so folding m duplicate cells into one
  // `x * m` update yields bit-identical aggregates at 1/m of the work.
  // Empty cells never enter the interner, so n is still the non-empty
  // cell count.
  //
  // A value's slots are tallied in integer counters; only the slots it
  // hit (`touched`) are folded into the double sums. A slot with count 0
  // contributes sum += 0, sum_sq += 0, max(mx, 0) and no presence -- all
  // exact no-ops -- so skipping it is bit-identical to the reference's
  // full-alphabet sweep (cell values touch ~10 slots, the alphabet has 53).
  uint32_t counts[kAlphabet.size()] = {};
  uint8_t touched[kAlphabet.size()];
  double n = 0.0;
  for (uint32_t s = span.value_begin; s < span.value_end; ++s) {
    std::string_view value = cache.value_view(s);
    double m = multiplicity[s];
    n += m;
    size_t num_touched = 0;
    const auto* p = reinterpret_cast<const unsigned char*>(value.data());
    for (size_t b = 0; b < value.size(); ++b) {
      const int8_t sl = lut[p[b]];
      if (sl >= 0 && counts[sl]++ == 0) {
        touched[num_touched++] = static_cast<uint8_t>(sl);
      }
    }
    for (size_t k = 0; k < num_touched; ++k) {
      const uint8_t i = touched[k];
      const double c = counts[i];
      sum[i] += c * m;
      sum_sq[i] += c * c * m;
      mx[i] = std::max(mx[i], c);
      present[i] += m;
      counts[i] = 0;
    }
  }
  out->assign(dim(), 0.0);
  if (n == 0.0) return;
  double inv_n = 1.0 / n;
  double* o = out->data();
  for (size_t i = 0; i < a; ++i) {
    double mean = sum[i] * inv_n;
    double var = std::max(0.0, sum_sq[i] * inv_n - mean * mean);
    o[i * kStatsPerChar + 0] = mean;
    o[i * kStatsPerChar + 1] = std::sqrt(var);
    o[i * kStatsPerChar + 2] = mx[i];
    o[i * kStatsPerChar + 3] = present[i] * inv_n;
  }
}

std::vector<double> CharFeatureExtractor::ReferenceExtract(
    const Column& column) const {
  const size_t a = kAlphabet.size();
  std::vector<double> sum(a, 0.0), sum_sq(a, 0.0), mx(a, 0.0), present(a, 0.0);
  size_t n = 0;
  std::vector<double> counts(a);
  for (const std::string& value : column.values) {
    if (value.empty()) continue;
    ++n;
    std::fill(counts.begin(), counts.end(), 0.0);
    for (char c : value) {
      int s = Slot(c);
      if (s >= 0) counts[static_cast<size_t>(s)] += 1.0;
    }
    for (size_t i = 0; i < a; ++i) {
      sum[i] += counts[i];
      sum_sq[i] += counts[i] * counts[i];
      mx[i] = std::max(mx[i], counts[i]);
      if (counts[i] > 0.0) present[i] += 1.0;
    }
  }
  std::vector<double> out(dim(), 0.0);
  if (n == 0) return out;
  double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < a; ++i) {
    double mean = sum[i] * inv_n;
    double var = std::max(0.0, sum_sq[i] * inv_n - mean * mean);
    out[i * kStatsPerChar + 0] = mean;
    out[i * kStatsPerChar + 1] = std::sqrt(var);
    out[i * kStatsPerChar + 2] = mx[i];
    out[i * kStatsPerChar + 3] = present[i] * inv_n;
  }
  return out;
}

}  // namespace sato::features
