// Adversarial SIMD-vs-scalar parity suite for the featurization kernel
// with an AVX2 variant (features/config.h dispatch): the stat value scan,
// alone and through the end-to-end ExtractInto fast path with dispatch
// off vs on. The scalar kernel is the contract; the AVX2 kernel must be
// EXACT-equal on every byte sequence -- the inputs (adversarial_values.h)
// are chosen to break lane boundaries, sign assumptions (bytes >= 0x80),
// the nibble LUTs, and the fused word counter's carry across 32-byte
// vector edges.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversarial_values.h"
#include "corpus/generator.h"
#include "features/char_features.h"
#include "features/config.h"
#include "features/feature_scratch.h"
#include "features/stat_features.h"
#include "table/table.h"
#include "util/cpu.h"

namespace sato::features {
namespace {

using testdata::AdversarialTable;
using testdata::AdversarialValues;

bool SimdAvailable() { return util::CpuHasAvx2(); }

/// Bitwise vector comparison: the dispatch-parity contract is bit
/// identity, which for features containing NaN (empty-column divisions)
/// is STRONGER than operator== -- NaN != NaN, but the bit patterns of
/// identically-computed NaNs must match.
void ExpectBitwiseEq(const std::vector<double>& a,
                     const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t ab, bb;
    std::memcpy(&ab, &a[i], sizeof(ab));
    std::memcpy(&bb, &b[i], sizeof(bb));
    EXPECT_EQ(ab, bb) << what << " index " << i << " (" << a[i]
                      << " vs " << b[i] << ")";
  }
}

TEST(SimdParityTest, StatScanMatchesScalarOnEveryAdversarialValue) {
  if (!SimdAvailable()) GTEST_SKIP() << "host lacks AVX2";
  for (const std::string& value : AdversarialValues()) {
    auto s = StatFeatureExtractor::ScanValueKernel(value, /*use_simd=*/false);
    auto v = StatFeatureExtractor::ScanValueKernel(value, /*use_simd=*/true);
    EXPECT_EQ(s.has_digit, v.has_digit) << value;
    EXPECT_EQ(s.has_alpha, v.has_alpha) << value;
    EXPECT_EQ(s.has_punct, v.has_punct) << value;
    EXPECT_EQ(s.has_space, v.has_space) << value;
    EXPECT_EQ(s.has_lower, v.has_lower) << value;
    EXPECT_EQ(s.digits, v.digits) << value;
    EXPECT_EQ(s.alphas, v.alphas) << value;
    EXPECT_EQ(s.words, v.words) << value;
    EXPECT_EQ(s.maybe_numeric, v.maybe_numeric) << value;
  }
}

Config DispatchConfig(bool dispatch) {
  Config config;
  config.enable_cpu_dispatch = dispatch;
  return config;
}

/// End-to-end dispatch parity: the stat fast path must produce
/// BITWISE-identical feature vectors with the SIMD scan on and off (it
/// accumulates exact small integers; there is no fp regrouping). The char
/// kernel has no dispatch; it is checked against its reference on the
/// same tables.
TEST(SimdParityTest, ExtractIntoIsBitwiseIdenticalWithDispatchOffAndOn) {
  if (!SimdAvailable()) GTEST_SKIP() << "host lacks AVX2";
  corpus::CorpusOptions copts;
  copts.num_tables = 20;
  copts.seed = 31;
  std::vector<Table> tables = corpus::CorpusGenerator(copts).Generate();
  tables.push_back(AdversarialTable());

  CharFeatureExtractor char_ex;
  StatFeatureExtractor stat_ex;
  for (const Table& table : tables) {
    for (bool simd : {false, true}) {
      const Config config = DispatchConfig(simd);
      ASSERT_EQ(SimdEnabled(config), simd);
      FeatureScratch scratch;
      scratch.cache.Build(table, nullptr, nullptr, nullptr);
      for (size_t c = 0; c < scratch.cache.num_columns(); ++c) {
        std::vector<double> char_f, stat_f;
        char_ex.ExtractInto(scratch.cache, c, &scratch, &char_f);
        stat_ex.ExtractInto(scratch.cache, c, &scratch, &stat_f, config);
        // The scalar pass also matches the per-column reference
        // extractors, so transitively SIMD == scalar == reference.
        std::string tag = table.id() + " col " + std::to_string(c) +
                          " simd=" + (simd ? "on" : "off");
        ExpectBitwiseEq(char_f, char_ex.ReferenceExtract(table.column(c)),
                        "char " + tag);
        ExpectBitwiseEq(stat_f, stat_ex.ReferenceExtract(table.column(c)),
                        "stat " + tag);
      }
    }
  }
}

TEST(SimdParityTest, KernelNameReflectsConfigAndHost) {
  Config scalar;
  scalar.enable_cpu_dispatch = false;
  EXPECT_EQ(KernelName(scalar), "scalar");
  EXPECT_FALSE(SimdEnabled(scalar));
  Config dispatch;
  dispatch.enable_cpu_dispatch = true;
  EXPECT_EQ(KernelName(dispatch), SimdAvailable() ? "avx2" : "scalar");
}

}  // namespace
}  // namespace sato::features
