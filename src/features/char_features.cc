#include "features/char_features.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "features/simd_load.h"

#if defined(SATO_FEATURES_HAS_AVX2)
#define SATO_CHAR_HAS_AVX2 1
#endif

#include "embedding/token_cache.h"
#include "features/config.h"
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

/// Scalar classification kernel: one 256-entry LUT probe per byte. The
/// parity baseline for the AVX2 kernel below (tests compare all 256 byte
/// values), and the portable fallback when dispatch is off.
void ClassifySlotsScalar(const unsigned char* p, size_t n, int8_t* out) {
  const std::array<int8_t, 256>& lut = CharFeatureExtractor::SlotLut();
  for (size_t i = 0; i < n; ++i) out[i] = lut[p[i]];
}

#if defined(SATO_CHAR_HAS_AVX2)
/// One vector of the AVX2 classification: letters and digits resolve
/// through range compares (with a masked +0x20 case fold);
/// high-nibble-0x2 punctuation resolves through a pshufb nibble LUT taken
/// directly from SlotLut()[0x20..0x2f] (passed in as `lut_h2`), so the
/// two kernels cannot drift; the three stragglers (':' '@' '_') are
/// masked equality compares. Bytes >= 0x80 read as negative in every
/// signed compare and fall through to -1, matching the scalar LUT (C
/// locale: tolower is identity there and the alphabet is pure ASCII).
__attribute__((target("avx2"))) inline __m256i ClassifyVecAvx2(
    __m256i v, __m256i lut_h2) {
  const __m256i upper_lo = _mm256_set1_epi8('A' - 1);
  const __m256i upper_hi = _mm256_set1_epi8('Z' + 1);
  const __m256i letter_lo = _mm256_set1_epi8('a' - 1);
  const __m256i letter_hi = _mm256_set1_epi8('z' + 1);
  const __m256i digit_lo = _mm256_set1_epi8('0' - 1);
  const __m256i digit_hi = _mm256_set1_epi8('9' + 1);
  const __m256i case_bit = _mm256_set1_epi8(0x20);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i high_mask = _mm256_set1_epi8(static_cast<char>(0xf0));
  const __m256i h2_tag = _mm256_set1_epi8(0x20);
  const __m256i base_a = _mm256_set1_epi8('a');
  const __m256i digit_bias = _mm256_set1_epi8('0' - 26);
  const __m256i none = _mm256_set1_epi8(-1);

  __m256i is_upper = _mm256_and_si256(_mm256_cmpgt_epi8(v, upper_lo),
                                      _mm256_cmpgt_epi8(upper_hi, v));
  __m256i lower = _mm256_add_epi8(v, _mm256_and_si256(is_upper, case_bit));
  __m256i is_letter = _mm256_and_si256(_mm256_cmpgt_epi8(lower, letter_lo),
                                       _mm256_cmpgt_epi8(letter_hi, lower));
  __m256i is_digit = _mm256_and_si256(_mm256_cmpgt_epi8(v, digit_lo),
                                      _mm256_cmpgt_epi8(digit_hi, v));
  __m256i letter_slot = _mm256_sub_epi8(lower, base_a);
  __m256i digit_slot = _mm256_sub_epi8(v, digit_bias);
  __m256i h2_slot =
      _mm256_shuffle_epi8(lut_h2, _mm256_and_si256(v, low_mask));
  __m256i is_h2 = _mm256_cmpeq_epi8(_mm256_and_si256(v, high_mask), h2_tag);

  __m256i slot = none;
  slot = _mm256_blendv_epi8(slot, letter_slot, is_letter);
  slot = _mm256_blendv_epi8(slot, digit_slot, is_digit);
  slot = _mm256_blendv_epi8(slot, h2_slot, is_h2);
  slot = _mm256_blendv_epi8(
      slot, _mm256_set1_epi8(40),
      _mm256_cmpeq_epi8(v, _mm256_set1_epi8(':')));
  slot = _mm256_blendv_epi8(
      slot, _mm256_set1_epi8(51),
      _mm256_cmpeq_epi8(v, _mm256_set1_epi8('@')));
  slot = _mm256_blendv_epi8(
      slot, _mm256_set1_epi8(52),
      _mm256_cmpeq_epi8(v, _mm256_set1_epi8('_')));
  return slot;
}

/// AVX2 classification kernel: 32 bytes per iteration, with the final
/// partial block classified by one masked vector pass (corpus values are
/// mostly shorter than one vector, so the partial block is the common
/// case) -- loaded with the shared tail loader, classified like any full
/// block (garbage lanes classify to garbage slots), then only the first
/// `rem` lanes are copied out, which also keeps the store inside the
/// caller's exactly-sized buffer.
__attribute__((target("avx2"))) void ClassifySlotsAvx2(const unsigned char* p,
                                                       size_t n,
                                                       int8_t* out) {
  const std::array<int8_t, 256>& lut = CharFeatureExtractor::SlotLut();
  const __m256i lut_h2 = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lut.data() + 0x20)));

  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        ClassifyVecAvx2(v, lut_h2));
  }
  if (i < n) {
    const size_t rem = n - i;
    __m256i slot =
        ClassifyVecAvx2(internal::LoadTailAvx2(p + i, rem), lut_h2);
    alignas(32) int8_t tmp[32];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), slot);
    std::memcpy(out + i, tmp, rem);
  }
}
#endif  // SATO_CHAR_HAS_AVX2

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

void CharFeatureExtractor::ClassifySlots(std::string_view value,
                                         bool use_simd, int8_t* out) {
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(value.data());
#if defined(SATO_CHAR_HAS_AVX2)
  if (use_simd) {
    ClassifySlotsAvx2(p, value.size(), out);
    return;
  }
#else
  (void)use_simd;
#endif
  ClassifySlotsScalar(p, value.size(), out);
}

size_t CharFeatureExtractor::dim() const {
  return kAlphabet.size() * kStatsPerChar;
}

void CharFeatureExtractor::ExtractInto(const embedding::TokenCache& cache,
                                       size_t column, FeatureScratch* scratch,
                                       std::vector<double>* out,
                                       const Config& config) const {
  const size_t a = kAlphabet.size();
  scratch->char_sum.assign(a, 0.0);
  scratch->char_sum_sq.assign(a, 0.0);
  scratch->char_max.assign(a, 0.0);
  scratch->char_present.assign(a, 0.0);
  scratch->char_counts.assign(a, 0.0);
  double* sum = scratch->char_sum.data();
  double* sum_sq = scratch->char_sum_sq.data();
  double* mx = scratch->char_max.data();
  double* present = scratch->char_present.data();
  double* counts = scratch->char_counts.data();

  const bool use_simd = SimdEnabled(config);
  const auto& span = cache.column_span(column);
  const std::vector<double>& multiplicity = cache.value_counts();
  std::vector<uint32_t>& touched = scratch->touched;
  std::vector<int8_t>& slots = scratch->slot_buf;

  // The column is walked per DISTINCT value (the cache's per-column
  // interner provides the multiplicity m of each): every accumulation the
  // reference performs per cell -- sum += counts, sum_sq += counts^2,
  // present += 1, n += 1 -- is an addition of small integers held in
  // doubles, which is exact, so folding m duplicate cells into one
  // `x * m` update yields bit-identical aggregates at 1/m of the work.
  // Empty cells never enter the interner, so n is still the non-empty
  // cell count.
  double n = 0.0;
  for (uint32_t s = span.value_begin; s < span.value_end; ++s) {
    std::string_view value = cache.value_view(s);
    double m = multiplicity[s];
    n += m;
    if (slots.size() < value.size()) slots.resize(value.size());
    ClassifySlots(value, use_simd, slots.data());
    // Only the slots this value actually hit get accumulated: a slot with
    // count 0 contributes sum += 0, sum_sq += 0, max(mx, 0) and no
    // presence -- all exact no-ops -- so skipping it is bit-identical to
    // the reference's full-alphabet sweep, at a fraction of the work
    // (cell values touch ~10 slots, the alphabet has 53).
    touched.clear();
    for (size_t b = 0; b < value.size(); ++b) {
      int8_t sl = slots[b];
      if (sl >= 0) {
        if (counts[sl] == 0.0) touched.push_back(static_cast<uint32_t>(sl));
        counts[static_cast<size_t>(sl)] += 1.0;
      }
    }
    for (uint32_t i : touched) {
      sum[i] += counts[i] * m;
      sum_sq[i] += counts[i] * counts[i] * m;
      mx[i] = std::max(mx[i], counts[i]);
      present[i] += m;  // counts[i] > 0 by construction
      counts[i] = 0.0;
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
