#ifndef SATO_FEATURES_CHAR_FEATURES_H_
#define SATO_FEATURES_CHAR_FEATURES_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "table/table.h"

namespace sato::embedding {
class TokenCache;
}

namespace sato::features {

struct FeatureScratch;

/// Character-distribution features (the Sherlock "Char" group).
///
/// For every character in a fixed alphabet (case-folded letters, digits and
/// common punctuation) we aggregate the per-value occurrence counts across
/// the column into four statistics: mean, standard deviation, maximum and
/// the fraction of values containing the character. This is a scaled-down
/// but structurally faithful version of Sherlock's 960-dim char group
/// (which uses ~10 aggregates over the full printable range).
///
/// Two paths produce identical features: ExtractInto (the serving fast
/// path -- 256-entry char->slot LUT, caller-provided scratch, no
/// allocation) and ReferenceExtract (the original per-column code, kept as
/// the parity baseline like nn::gemm's Reference* kernels).
class CharFeatureExtractor {
 public:
  /// The alphabet: 26 case-folded letters + 10 digits + punctuation.
  static std::string_view Alphabet();

  /// 256-entry byte -> alphabet-slot table (-1 for out-of-alphabet bytes);
  /// replaces the reference path's per-character linear alphabet scan.
  static const std::array<int8_t, 256>& SlotLut();

  /// Number of aggregate statistics per alphabet character.
  static constexpr size_t kStatsPerChar = 4;

  /// Output dimensionality.
  size_t dim() const;

  /// Fast path: features of cache column `column` written into `*out`
  /// (resized to dim()); allocation-free once `scratch` is warm. Each
  /// distinct value's bytes go through SlotLut() into integer tallies.
  void ExtractInto(const embedding::TokenCache& cache, size_t column,
                   FeatureScratch* scratch, std::vector<double>* out) const;

  /// Reference implementation (parity baseline).
  std::vector<double> ReferenceExtract(const Column& column) const;
};

}  // namespace sato::features

#endif  // SATO_FEATURES_CHAR_FEATURES_H_
