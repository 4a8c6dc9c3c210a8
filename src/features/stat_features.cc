#include "features/stat_features.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#if defined(__GNUC__) && defined(__x86_64__)
#define SATO_STAT_HAS_AVX2 1
#include <immintrin.h>
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SATO_STAT_SANITIZED 1
#endif
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SATO_STAT_SANITIZED 1
#endif

#include "embedding/token_cache.h"
#include "features/config.h"
#include "features/feature_scratch.h"
#include "util/math_util.h"
#include "util/string_util.h"

namespace sato::features {

const std::vector<std::string>& StatFeatureExtractor::FeatureNames() {
  static const std::vector<std::string> names = {
      "log_num_values",      "frac_empty",          "frac_numeric",
      "mean_length",         "std_length",          "min_length",
      "max_length",          "median_length",       "frac_unique",
      "numeric_mean_log",    "numeric_std_log",     "numeric_min_log",
      "numeric_max_log",     "numeric_median_log",  "numeric_skewness",
      "numeric_kurtosis",    "frac_with_digit",     "frac_with_alpha",
      "frac_all_caps",       "frac_capitalized",    "mean_word_count",
      "max_word_count",      "frac_with_punct",     "frac_with_space",
      "value_entropy_norm",  "mean_digit_fraction", "mean_alpha_fraction",
  };
  return names;
}

namespace {

// Symmetric log compression for potentially huge numerics.
double SignedLog(double v) {
  return v >= 0.0 ? std::log1p(v) : -std::log1p(-v);
}

// util::Median semantics without the by-value copy: `buf` is consumed.
double MedianInPlace(std::vector<double>* buf) {
  if (buf->empty()) return 0.0;
  size_t mid = buf->size() / 2;
  std::nth_element(buf->begin(), buf->begin() + mid, buf->end());
  double hi = (*buf)[mid];
  if (buf->size() % 2 == 1) return hi;
  double lo = *std::max_element(buf->begin(), buf->begin() + mid);
  return 0.5 * (lo + hi);
}

// Whitespace-delimited word count: util::SplitWhitespace(v).size() without
// materialising the pieces.
double WordCount(std::string_view v) {
  size_t i = 0, words = 0;
  while (i < v.size()) {
    while (i < v.size() && std::isspace(static_cast<unsigned char>(v[i]))) ++i;
    size_t start = i;
    while (i < v.size() && !std::isspace(static_cast<unsigned char>(v[i]))) ++i;
    if (i > start) ++words;
  }
  return static_cast<double>(words);
}

// Shared per-value character scan (flags + digit/alpha tallies). Both
// paths call this, so their per-value statistics agree bit for bit.
struct ValueScan {
  bool has_digit = false, has_alpha = false, has_punct = false,
       has_space = false, has_lower = false;
  size_t digits = 0, alphas = 0;
};

// Bytes that can occur in a string ParseNumeric might accept: digits,
// whitespace, sign/decimal/separator/decoration characters, and the
// letters strtod itself can consume (hex digits, 0x/p exponents, e/E,
// inf/infinity, nan). The one strtod construct that can contain OTHER
// bytes is the nan(n-char-seq) tail, which requires a '(' -- so a value
// with a disallowed byte and no '(' anywhere is guaranteed to parse as
// nullopt: the cleaning step never removes such a byte, and strtod stops
// at it, leaving *end != '\0'.
const std::array<bool, 256>& MaybeNumericLut() {
  static const std::array<bool, 256> lut = [] {
    std::array<bool, 256> t{};
    auto allow = [&t](std::string_view chars) {
      for (char c : chars) t[static_cast<unsigned char>(c)] = true;
    };
    allow("0123456789");
    allow(" \t\n\v\f\r");
    allow("+-.,$%()_");
    allow("abcdefinptxy");
    allow("ABCDEFINPTXY");
    return t;
  }();
  return lut;
}

// Per-value character scan (flags + digit/alpha tallies) plus the
// maybe-numeric hint in the same pass. Both extraction paths share this
// scan, so their per-value statistics agree bit for bit; only the fast
// path consumes the hint.
ValueScan ScanValueWithNumericHint(std::string_view v, bool* maybe_numeric) {
  const std::array<bool, 256>& numeric_lut = MaybeNumericLut();
  bool all_allowed = true;
  bool force_slow = false;
  ValueScan s;
  for (char c : v) {
    unsigned char u = static_cast<unsigned char>(c);
    all_allowed = all_allowed && numeric_lut[u];
    // '(' may open a strtod nan(n-char-seq) tail; an embedded NUL makes
    // strtod stop early and *succeed* on the prefix. Either way the LUT
    // cannot prove "not numeric", so force the slow path.
    force_slow = force_slow || c == '(' || c == '\0';
    if (std::isdigit(u)) { s.has_digit = true; ++s.digits; }
    else if (std::isalpha(u)) {
      s.has_alpha = true;
      ++s.alphas;
      if (std::islower(u)) s.has_lower = true;
    } else if (std::isspace(u)) s.has_space = true;
    else s.has_punct = true;
  }
  *maybe_numeric = all_allowed || force_slow;
  return s;
}

ValueScan ScanValue(std::string_view v) {
  bool ignored;
  return ScanValueWithNumericHint(v, &ignored);
}

/// Scalar scan kernel: the parity baseline. Composes the shared scan with
/// WordCount so its outputs are by construction the exact quantities the
/// pre-SIMD extractor computed.
StatFeatureExtractor::ScanResult ScanKernelScalar(std::string_view v) {
  StatFeatureExtractor::ScanResult r;
  bool maybe_numeric = false;
  ValueScan s = ScanValueWithNumericHint(v, &maybe_numeric);
  r.has_digit = s.has_digit;
  r.has_alpha = s.has_alpha;
  r.has_punct = s.has_punct;
  r.has_space = s.has_space;
  r.has_lower = s.has_lower;
  r.digits = s.digits;
  r.alphas = s.alphas;
  r.words = static_cast<size_t>(WordCount(v));
  r.maybe_numeric = maybe_numeric;
  return r;
}

#if defined(SATO_STAT_HAS_AVX2)
/// pshufb nibble tables for the maybe-numeric byte test, built from
/// MaybeNumericLut() itself so the two representations cannot drift:
/// row[L] has bit H set iff byte (H<<4)|L is allowed (all allowed bytes
/// are < 0x80, so 8 row bits suffice), and bit[H] = 1<<H for H < 8, else
/// 0. A byte is allowed iff row[lo nibble] & bit[hi nibble] != 0.
struct NumericNibbleTables {
  alignas(32) int8_t row[32];
  alignas(32) int8_t bit[32];
};

const NumericNibbleTables& NibbleTables() {
  static const NumericNibbleTables tables = [] {
    NumericNibbleTables t{};
    const std::array<bool, 256>& allowed = MaybeNumericLut();
    for (int lo = 0; lo < 16; ++lo) {
      uint8_t bits = 0;
      for (int hi = 0; hi < 8; ++hi) {
        if (allowed[static_cast<size_t>((hi << 4) | lo)]) {
          bits |= static_cast<uint8_t>(1u << hi);
        }
      }
      t.row[lo] = t.row[lo + 16] = static_cast<int8_t>(bits);
    }
    for (int hi = 0; hi < 16; ++hi) {
      uint8_t b = hi < 8 ? static_cast<uint8_t>(1u << hi) : 0;
      t.bit[hi] = t.bit[hi + 16] = static_cast<int8_t>(b);
    }
    return t;
  }();
  return tables;
}

/// Loads the (partial, `rem` in [1,31]) final 32-byte window at `p`.
/// When the window stays inside the 4 KiB page the overread past the
/// value's end is harmless and a plain unaligned load wins; a window
/// crossing a page boundary (or any load under ASan/TSan, which trap
/// heap overreads regardless of page layout) goes through a bounce
/// buffer. Bytes at lanes >= rem are garbage either way -- the caller
/// must mask them out of whatever it computes from the vector.
__attribute__((target("avx2"))) inline __m256i LoadTailAvx2(
    const unsigned char* p, size_t rem) {
#if !defined(SATO_STAT_SANITIZED)
  if ((reinterpret_cast<uintptr_t>(p) & 4095u) <= 4096u - 32u) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
#endif
  alignas(32) unsigned char buf[32];
  std::memcpy(buf, p, rem);
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
}

/// AVX2 scan kernel: one fused pass, 32 bytes per iteration, with the
/// final partial block handled by a masked load instead of a scalar tail
/// (corpus values are mostly shorter than one vector, so the tail IS the
/// common case). Character classes come from signed range compares (bytes
/// >= 0x80 read negative, fail every range and land in the punct class --
/// exactly what the scalar C-locale ctype calls do); each class collapses
/// to a 32-bit movemask, lanes past the value's end are stripped with
/// `valid = (1 << rem) - 1`, and flags/tallies accumulate in scalar
/// registers. Word boundaries come from the non-space movemask
/// (`starts = nonspace & ~(nonspace << 1 | carry)`), fusing WordCount's
/// second pass into this one; the maybe-numeric test is the nibble-LUT
/// membership probe above. Every output is a flag or an integer tally, so
/// parity with the scalar kernel is exact.
__attribute__((target("avx2"))) StatFeatureExtractor::ScanResult ScanKernelAvx2(
    std::string_view value) {
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(value.data());
  const size_t n = value.size();
  const NumericNibbleTables& nt = NibbleTables();
  const __m256i row_lut =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(nt.row));
  const __m256i bit_lut =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(nt.bit));
  const __m256i digit_lo = _mm256_set1_epi8('0' - 1);
  const __m256i digit_hi = _mm256_set1_epi8('9' + 1);
  const __m256i upper_lo = _mm256_set1_epi8('A' - 1);
  const __m256i upper_hi = _mm256_set1_epi8('Z' + 1);
  const __m256i lower_lo = _mm256_set1_epi8('a' - 1);
  const __m256i lower_hi = _mm256_set1_epi8('z' + 1);
  const __m256i ws_lo = _mm256_set1_epi8(0x09 - 1);  // \t..\r
  const __m256i ws_hi = _mm256_set1_epi8(0x0d + 1);
  const __m256i space = _mm256_set1_epi8(' ');
  const __m256i paren = _mm256_set1_epi8('(');
  const __m256i nul = _mm256_setzero_si256();
  const __m256i low_mask = _mm256_set1_epi8(0x0f);

  uint32_t digit_any = 0, alpha_any = 0, lower_any = 0, space_any = 0;
  uint32_t punct_any = 0, slow_any = 0, denied_any = 0;
  size_t digits = 0, alphas = 0, words = 0;
  uint32_t carry = 0;  // 1 iff the previous byte was non-space

  for (size_t i = 0; i < n; i += 32) {
    const size_t rem = n - i;
    const bool full = rem >= 32;
    const uint32_t valid =
        full ? 0xffffffffu : ((1u << rem) - 1u);
    __m256i v = full ? _mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(p + i))
                     : LoadTailAvx2(p + i, rem);
    __m256i is_digit = _mm256_and_si256(_mm256_cmpgt_epi8(v, digit_lo),
                                        _mm256_cmpgt_epi8(digit_hi, v));
    __m256i is_upper = _mm256_and_si256(_mm256_cmpgt_epi8(v, upper_lo),
                                        _mm256_cmpgt_epi8(upper_hi, v));
    __m256i is_lower = _mm256_and_si256(_mm256_cmpgt_epi8(v, lower_lo),
                                        _mm256_cmpgt_epi8(lower_hi, v));
    __m256i is_alpha = _mm256_or_si256(is_upper, is_lower);
    __m256i is_ws = _mm256_or_si256(
        _mm256_and_si256(_mm256_cmpgt_epi8(v, ws_lo),
                         _mm256_cmpgt_epi8(ws_hi, v)),
        _mm256_cmpeq_epi8(v, space));

    __m256i row = _mm256_shuffle_epi8(row_lut, _mm256_and_si256(v, low_mask));
    __m256i hi_nibble =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    __m256i bit = _mm256_shuffle_epi8(bit_lut, hi_nibble);
    __m256i denied =
        _mm256_cmpeq_epi8(_mm256_and_si256(row, bit), _mm256_setzero_si256());
    __m256i slow = _mm256_or_si256(_mm256_cmpeq_epi8(v, paren),
                                   _mm256_cmpeq_epi8(v, nul));

    const uint32_t digit_m =
        static_cast<uint32_t>(_mm256_movemask_epi8(is_digit)) & valid;
    const uint32_t alpha_m =
        static_cast<uint32_t>(_mm256_movemask_epi8(is_alpha)) & valid;
    const uint32_t lower_m =
        static_cast<uint32_t>(_mm256_movemask_epi8(is_lower)) & valid;
    const uint32_t ws_m =
        static_cast<uint32_t>(_mm256_movemask_epi8(is_ws)) & valid;

    digit_any |= digit_m;
    alpha_any |= alpha_m;
    lower_any |= lower_m;
    space_any |= ws_m;
    punct_any |= valid & ~(digit_m | alpha_m | ws_m);
    slow_any |= static_cast<uint32_t>(_mm256_movemask_epi8(slow)) & valid;
    denied_any |= static_cast<uint32_t>(_mm256_movemask_epi8(denied)) & valid;

    digits += static_cast<size_t>(std::popcount(digit_m));
    alphas += static_cast<size_t>(std::popcount(alpha_m));

    const uint32_t nonspace = ~ws_m & valid;
    const uint32_t starts = nonspace & ~((nonspace << 1) | carry);
    words += static_cast<size_t>(std::popcount(starts));
    carry = nonspace >> 31;
  }

  StatFeatureExtractor::ScanResult r;
  r.has_digit = digit_any != 0;
  r.has_alpha = alpha_any != 0;
  r.has_lower = lower_any != 0;
  r.has_space = space_any != 0;
  r.has_punct = punct_any != 0;
  r.digits = digits;
  r.alphas = alphas;
  r.words = words;
  r.maybe_numeric = denied_any == 0 || slow_any != 0;
  return r;
}
#endif  // SATO_STAT_HAS_AVX2

// Per-unique-value flag bits cached in FeatureScratch::stat_flags.
constexpr uint8_t kHasDigit = 1u << 0;
constexpr uint8_t kHasAlpha = 1u << 1;
constexpr uint8_t kHasPunct = 1u << 2;
constexpr uint8_t kHasSpace = 1u << 3;
constexpr uint8_t kAllCaps = 1u << 4;
constexpr uint8_t kCapitalized = 1u << 5;
constexpr uint8_t kHasNumeric = 1u << 6;

}  // namespace

StatFeatureExtractor::ScanResult StatFeatureExtractor::ScanValueKernel(
    std::string_view v, bool use_simd) {
#if defined(SATO_STAT_HAS_AVX2)
  if (use_simd) return ScanKernelAvx2(v);
#else
  (void)use_simd;
#endif
  return ScanKernelScalar(v);
}

void StatFeatureExtractor::ExtractInto(const embedding::TokenCache& cache,
                                       size_t column, FeatureScratch* scratch,
                                       std::vector<double>* out,
                                       const Config& config) const {
  out->assign(kDim, 0.0);
  double* o = out->data();
  const auto& span = cache.column_span(column);
  size_t total = span.cell_end - span.cell_begin;
  o[0] = std::log1p(static_cast<double>(total));
  if (total == 0) return;

  const bool use_simd = SimdEnabled(config);
  size_t num_unique = span.value_end - span.value_begin;

  // Phase 1 -- per DISTINCT value: the byte scan, the word count, the
  // ParseNumeric attempt and the two fraction quotients run once per
  // unique value instead of once per cell. Every cached quantity is a
  // pure function of the value's bytes, so duplicates would have computed
  // the very same doubles.
  std::vector<uint8_t>& flags = scratch->stat_flags;
  std::vector<double>& uniq_numeric = scratch->stat_numeric;
  std::vector<double>& uniq_words = scratch->stat_words;
  std::vector<double>& uniq_digit_frac = scratch->stat_digit_frac;
  std::vector<double>& uniq_alpha_frac = scratch->stat_alpha_frac;
  flags.clear();
  uniq_numeric.clear();
  uniq_words.clear();
  uniq_digit_frac.clear();
  uniq_alpha_frac.clear();
  if (flags.capacity() < num_unique) flags.reserve(num_unique);
  if (uniq_numeric.capacity() < num_unique) uniq_numeric.reserve(num_unique);
  if (uniq_words.capacity() < num_unique) uniq_words.reserve(num_unique);
  if (uniq_digit_frac.capacity() < num_unique)
    uniq_digit_frac.reserve(num_unique);
  if (uniq_alpha_frac.capacity() < num_unique)
    uniq_alpha_frac.reserve(num_unique);

  for (uint32_t s = span.value_begin; s < span.value_end; ++s) {
    std::string_view v = cache.value_view(s);  // never empty
    ScanResult r = ScanValueKernel(v, use_simd);
    uint8_t f = 0;
    if (r.has_digit) f |= kHasDigit;
    if (r.has_alpha) f |= kHasAlpha;
    if (r.has_punct) f |= kHasPunct;
    if (r.has_space) f |= kHasSpace;
    if (r.has_alpha && !r.has_lower) f |= kAllCaps;
    if (std::isupper(static_cast<unsigned char>(v[0]))) f |= kCapitalized;
    double numeric_value = 0.0;
    if (r.maybe_numeric) {  // skip trim/clean/strtod for obvious text
      auto numeric = util::ParseNumeric(v, &scratch->numeric_buf);
      if (numeric.has_value()) {
        f |= kHasNumeric;
        numeric_value = *numeric;
      }
    }
    double size = static_cast<double>(v.size());
    flags.push_back(f);
    uniq_numeric.push_back(numeric_value);
    uniq_words.push_back(static_cast<double>(r.words));
    uniq_digit_frac.push_back(static_cast<double>(r.digits) / size);
    uniq_alpha_frac.push_back(static_cast<double>(r.alphas) / size);
  }

  // Phase 2 -- per cell, in cell order: pull the cached per-value addends
  // and accumulate exactly as the pre-dedup loop did. The floating-point
  // sums (digit/alpha fractions) see the identical doubles in the
  // identical order, and lengths/numerics/word_counts are filled in the
  // identical sequence, so every downstream moment/median/extreme is
  // bit-identical to the reference.
  size_t empty = 0;
  std::vector<double>& lengths = scratch->lengths;
  std::vector<double>& numerics = scratch->numerics;
  std::vector<double>& word_counts = scratch->word_counts;
  lengths.clear();
  numerics.clear();
  word_counts.clear();
  if (lengths.capacity() < total) lengths.reserve(total);
  if (numerics.capacity() < total) numerics.reserve(total);
  if (word_counts.capacity() < total) word_counts.reserve(total);

  double with_digit = 0, with_alpha = 0, all_caps = 0, capitalized = 0;
  double with_punct = 0, with_space = 0;
  double digit_frac_sum = 0, alpha_frac_sum = 0;
  size_t non_empty = 0;

  // Sum/min/max accumulators fused into the cell loop: the sums add the
  // identical doubles in the identical order util::Mean would, and the
  // strict-compare running min/max keeps the first of equal elements
  // exactly like std::min_element/std::max_element, so each fused result
  // is bit-identical to the separate pass it replaces. (StdDev, medians
  // and the higher moments still need the materialised vectors.)
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double len_sum = 0, len_min = kInf, len_max = -kInf;
  double num_sum = 0, num_min = kInf, num_max = -kInf;
  double wc_sum = 0, wc_max = -kInf;

  for (uint32_t ci = span.cell_begin; ci < span.cell_end; ++ci) {
    const auto& cell = cache.cell(ci);
    std::string_view v = cell.value;
    if (v.empty()) {
      ++empty;
      continue;
    }
    ++non_empty;
    double len = static_cast<double>(v.size());
    lengths.push_back(len);
    len_sum += len;
    if (len < len_min) len_min = len;
    if (len_max < len) len_max = len;
    uint32_t u = cell.value_slot - span.value_begin;
    uint8_t f = flags[u];
    if (f & kHasNumeric) {
      double x = uniq_numeric[u];
      numerics.push_back(x);
      num_sum += x;
      if (x < num_min) num_min = x;
      if (num_max < x) num_max = x;
    }
    double wc = uniq_words[u];
    word_counts.push_back(wc);
    wc_sum += wc;
    if (wc_max < wc) wc_max = wc;

    if (f & kHasDigit) ++with_digit;
    if (f & kHasAlpha) ++with_alpha;
    if (f & kAllCaps) ++all_caps;
    if (f & kCapitalized) ++capitalized;
    if (f & kHasPunct) ++with_punct;
    if (f & kHasSpace) ++with_space;
    digit_frac_sum += uniq_digit_frac[u];
    alpha_frac_sum += uniq_alpha_frac[u];
  }

  double inv_total = 1.0 / static_cast<double>(total);
  o[1] = static_cast<double>(empty) * inv_total;
  if (non_empty == 0) return;
  double inv_ne = 1.0 / static_cast<double>(non_empty);

  o[2] = static_cast<double>(numerics.size()) * inv_ne;
  // lengths/word_counts hold one entry per non-empty cell, so non_empty
  // is their element count and the fused sums divide by the same n the
  // separate util::Mean passes would.
  const double len_mean = len_sum / static_cast<double>(non_empty);
  o[3] = len_mean;
  // One pow(d,2) pass with the already-computed mean: util::StdDev is
  // sqrt(CentralMoment(xs,2)) where CentralMoment re-derives the same
  // mean, so the summands (and their order) are identical.
  if (non_empty < 2) {
    o[4] = 0.0;
  } else {
    double m2_sum = 0.0;
    for (double x : lengths) m2_sum += std::pow(x - len_mean, 2);
    o[4] = std::sqrt(m2_sum / static_cast<double>(non_empty));
  }
  o[5] = len_min;
  o[6] = len_max;
  scratch->median_buf.assign(lengths.begin(), lengths.end());
  o[7] = MedianInPlace(&scratch->median_buf);
  // Distinct non-empty values, pre-counted by the cache in
  // first-occurrence order.
  o[8] = static_cast<double>(num_unique) * inv_ne;

  if (!numerics.empty()) {
    const double nn = static_cast<double>(numerics.size());
    const double num_mean = num_sum / nn;  // == util::Mean(numerics)
    o[9] = SignedLog(num_mean);
    // One fused pass for the second/third/fourth central moments: each
    // accumulator adds the identical std::pow summands in the identical
    // order the separate util::StdDev/Skewness/Kurtosis passes would
    // (all of which re-derive this same mean), then the util functions'
    // size guards and zero-variance short-circuits are replayed verbatim.
    double m2_sum = 0.0, m3_sum = 0.0, m4_sum = 0.0;
    for (double x : numerics) {
      double d = x - num_mean;
      m2_sum += std::pow(d, 2);
      m3_sum += std::pow(d, 3);
      m4_sum += std::pow(d, 4);
    }
    const double m2 = m2_sum / nn;
    const double sd = numerics.size() < 2 ? 0.0 : std::sqrt(m2);
    o[10] = std::log1p(sd);
    o[11] = SignedLog(num_min);
    o[12] = SignedLog(num_max);
    scratch->median_buf.assign(numerics.begin(), numerics.end());
    o[13] = SignedLog(MedianInPlace(&scratch->median_buf));
    o[14] = sd == 0.0 ? 0.0 : (m3_sum / nn) / (sd * sd * sd);
    o[15] = m2 == 0.0 ? 0.0 : (m4_sum / nn) / (m2 * m2) - 3.0;
  }

  o[16] = with_digit * inv_ne;
  o[17] = with_alpha * inv_ne;
  o[18] = all_caps * inv_ne;
  o[19] = capitalized * inv_ne;
  o[20] = wc_sum / static_cast<double>(non_empty);
  o[21] = wc_max;
  o[22] = with_punct * inv_ne;
  o[23] = with_space * inv_ne;

  // Normalised entropy of the empirical value distribution; counts come
  // from the cache's per-column interner, in first-occurrence order (the
  // same order the reference path now uses).
  scratch->entropy_counts.assign(
      cache.value_counts().begin() + span.value_begin,
      cache.value_counts().begin() + span.value_end);
  double h = util::Entropy(scratch->entropy_counts);
  double h_max =
      num_unique > 1 ? std::log(static_cast<double>(num_unique)) : 1.0;
  o[24] = h / h_max;

  o[25] = digit_frac_sum * inv_ne;
  o[26] = alpha_frac_sum * inv_ne;
}

std::vector<double> StatFeatureExtractor::ReferenceExtract(
    const Column& column) const {
  std::vector<double> out(kDim, 0.0);
  const auto& values = column.values;
  size_t total = values.size();
  out[0] = std::log1p(static_cast<double>(total));
  if (total == 0) return out;

  size_t empty = 0;
  std::vector<double> lengths, numerics, word_counts;
  // Unique-value counts in first-occurrence order (deterministic entropy
  // summation, matching the fast path).
  std::unordered_map<std::string_view, size_t> value_index;
  std::vector<double> counts;
  // Reused across cells so the reference path performs one clean-buffer
  // allocation per column, not one per value.
  std::string numeric_scratch;
  double with_digit = 0, with_alpha = 0, all_caps = 0, capitalized = 0;
  double with_punct = 0, with_space = 0;
  double digit_frac_sum = 0, alpha_frac_sum = 0;
  size_t non_empty = 0;

  for (const std::string& v : values) {
    if (v.empty()) {
      ++empty;
      continue;
    }
    ++non_empty;
    auto [it, inserted] = value_index.try_emplace(v, counts.size());
    if (inserted) {
      counts.push_back(1.0);
    } else {
      counts[it->second] += 1.0;
    }
    lengths.push_back(static_cast<double>(v.size()));
    auto numeric = util::ParseNumeric(v, &numeric_scratch);
    if (numeric.has_value()) numerics.push_back(*numeric);
    word_counts.push_back(WordCount(v));

    ValueScan s = ScanValue(v);
    if (s.has_digit) ++with_digit;
    if (s.has_alpha) ++with_alpha;
    if (s.has_alpha && !s.has_lower) ++all_caps;
    if (std::isupper(static_cast<unsigned char>(v[0]))) ++capitalized;
    if (s.has_punct) ++with_punct;
    if (s.has_space) ++with_space;
    digit_frac_sum += static_cast<double>(s.digits) / static_cast<double>(v.size());
    alpha_frac_sum += static_cast<double>(s.alphas) / static_cast<double>(v.size());
  }

  double inv_total = 1.0 / static_cast<double>(total);
  out[1] = static_cast<double>(empty) * inv_total;
  if (non_empty == 0) return out;
  double inv_ne = 1.0 / static_cast<double>(non_empty);

  out[2] = static_cast<double>(numerics.size()) * inv_ne;
  out[3] = util::Mean(lengths);
  out[4] = util::StdDev(lengths);
  out[5] = lengths.empty() ? 0.0 : *std::min_element(lengths.begin(), lengths.end());
  out[6] = lengths.empty() ? 0.0 : *std::max_element(lengths.begin(), lengths.end());
  out[7] = util::Median(lengths);
  out[8] = static_cast<double>(counts.size()) * inv_ne;

  if (!numerics.empty()) {
    out[9] = SignedLog(util::Mean(numerics));
    out[10] = std::log1p(util::StdDev(numerics));
    out[11] = SignedLog(*std::min_element(numerics.begin(), numerics.end()));
    out[12] = SignedLog(*std::max_element(numerics.begin(), numerics.end()));
    out[13] = SignedLog(util::Median(numerics));
    out[14] = util::Skewness(numerics);
    out[15] = util::Kurtosis(numerics);
  }

  out[16] = with_digit * inv_ne;
  out[17] = with_alpha * inv_ne;
  out[18] = all_caps * inv_ne;
  out[19] = capitalized * inv_ne;
  out[20] = util::Mean(word_counts);
  out[21] = word_counts.empty()
                ? 0.0
                : *std::max_element(word_counts.begin(), word_counts.end());
  out[22] = with_punct * inv_ne;
  out[23] = with_space * inv_ne;

  // Normalised entropy of the empirical value distribution.
  double h = util::Entropy(counts);
  double h_max = counts.size() > 1 ? std::log(static_cast<double>(counts.size())) : 1.0;
  out[24] = h / h_max;

  out[25] = digit_frac_sum * inv_ne;
  out[26] = alpha_frac_sum * inv_ne;
  return out;
}

}  // namespace sato::features
