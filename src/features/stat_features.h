#ifndef SATO_FEATURES_STAT_FEATURES_H_
#define SATO_FEATURES_STAT_FEATURES_H_

#include <vector>

#include "features/config.h"
#include "table/table.h"

namespace sato::embedding {
class TokenCache;
}

namespace sato::features {

struct FeatureScratch;

/// Global column statistics (the Sherlock "Stat" group). Exactly 27
/// features, matching the paper's count (§3.1: "the Stat feature set, which
/// consists of only 27 features"); this group is concatenated to the primary
/// network input directly, without a compression subnetwork.
///
/// ExtractInto is the serving fast path: it reads the TokenCache's cell
/// views and per-column unique-value counts, scans each value once, and
/// reuses caller scratch for every sequence (no per-column map or vector
/// allocation). ReferenceExtract keeps the original implementation as the
/// parity baseline.
class StatFeatureExtractor {
 public:
  static constexpr size_t kDim = 27;

  /// Everything one pass over a value's bytes yields: the character-class
  /// flags and tallies feeding nine of the 27 features, the
  /// whitespace-delimited word count, and the maybe-numeric hint that
  /// gates ParseNumeric. Exposed (with ScanValueKernel) so the SIMD
  /// parity suite can compare kernels byte for byte.
  struct ScanResult {
    bool has_digit = false, has_alpha = false, has_punct = false,
         has_space = false, has_lower = false;
    size_t digits = 0, alphas = 0;
    size_t words = 0;
    bool maybe_numeric = false;
  };

  /// Scan kernel: classifies every byte of `v` in one pass. With
  /// `use_simd` the AVX2 kernel runs (32 bytes/iteration, masked
  /// compares + a nibble LUT for the maybe-numeric byte test, scalar
  /// tail); otherwise the scalar loop. The two are exact-equal for every
  /// byte sequence -- all outputs are flags and integer tallies.
  static ScanResult ScanValueKernel(std::string_view v, bool use_simd);

  size_t dim() const { return kDim; }

  /// Fast path: features of cache column `column` written into `*out`
  /// (resized to dim()); allocation-free once `scratch` is warm. `config`
  /// selects the scalar or AVX2 kernel.
  void ExtractInto(const embedding::TokenCache& cache, size_t column,
                   FeatureScratch* scratch, std::vector<double>* out,
                   const Config& config = DefaultConfig()) const;

  /// Reference implementation (parity baseline).
  std::vector<double> ReferenceExtract(const Column& column) const;

  /// Names of the 27 statistics, aligned with Extract's output order
  /// (useful for debugging and ablation reports).
  static const std::vector<std::string>& FeatureNames();
};

}  // namespace sato::features

#endif  // SATO_FEATURES_STAT_FEATURES_H_
