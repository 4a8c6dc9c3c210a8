#ifndef SATO_FEATURES_FEATURE_SCRATCH_H_
#define SATO_FEATURES_FEATURE_SCRATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "embedding/token_cache.h"
#include "features/column_features.h"
#include "topic/lda.h"

namespace sato::features {

/// Per-worker scratch for the tokenize-once featurization fast path: the
/// table's TokenCache, the LDA fold-in scratch, and every accumulator the
/// id-based extractor kernels write through. One FeatureScratch per thread
/// (they are cheap); never share one across concurrent calls.
///
/// Every buffer is recycled between tables, so steady-state featurization
/// performs no heap allocation: after a warm-up pass over the workload,
/// growth_events() stays constant and CapacityBytes() stops moving --
/// tests/features_test.cc asserts both, plus a literal operator-new count.
struct FeatureScratch {
  embedding::TokenCache cache;  ///< tokenize-once view of the current table
  topic::LdaScratch lda;        ///< fold-in state for the topic vector

  // Word/para kernels: per-cell embedding accumulator and per-column
  // mean / sum-of-squares accumulators (embedding_dim doubles each).
  std::vector<double> acc;
  std::vector<double> mean;
  std::vector<double> sum_sq;

  // Para kernel: per-unique-token term frequencies within the current
  // column, plus the touched-list that resets them in O(column tokens).
  std::vector<double> tf;
  std::vector<uint32_t> touched;

  // Char kernel: per-alphabet-slot accumulators (the per-value tallies
  // are integer counters on the kernel's stack).
  std::vector<double> char_sum;
  std::vector<double> char_sum_sq;
  std::vector<double> char_max;
  std::vector<double> char_present;

  // Stat kernel: per-column sequences fed to the util:: moment helpers,
  // the median work buffer, the entropy count copy, and the ParseNumeric
  // clean buffer.
  std::vector<double> lengths;
  std::vector<double> numerics;
  std::vector<double> word_counts;
  std::vector<double> median_buf;
  std::vector<double> entropy_counts;
  std::string numeric_buf;

  // Stat kernel per-unique-value caches: scan flags, parsed numeric,
  // word count, digit/alpha fraction quotients -- computed once per
  // distinct value, replayed per cell in cell order (bit-identical fp
  // summation at a fraction of the scans).
  std::vector<uint8_t> stat_flags;
  std::vector<double> stat_numeric;
  std::vector<double> stat_words;
  std::vector<double> stat_digit_frac;
  std::vector<double> stat_alpha_frac;

  /// Retired ColumnFeatures elements, recycled (with their inner-vector
  /// capacities intact) when the output vector of ExtractCached shrinks or
  /// grows between tables with different column counts. Without the pool,
  /// shrinking would free per-column buffers and re-growing would
  /// re-allocate them -- exactly the churn the fast path removes.
  std::vector<ColumnFeatures> column_pool;

  /// Build/extract calls that had to grow a buffer (warm steady state: 0).
  size_t growth_events = 0;

  /// Total heap capacity currently held across all nested scratch.
  size_t CapacityBytes() const {
    size_t own = (acc.capacity() + mean.capacity() + sum_sq.capacity() +
                  tf.capacity() + char_sum.capacity() +
                  char_sum_sq.capacity() + char_max.capacity() +
                  char_present.capacity() +
                  lengths.capacity() + numerics.capacity() +
                  word_counts.capacity() + median_buf.capacity() +
                  entropy_counts.capacity() + stat_numeric.capacity() +
                  stat_words.capacity() + stat_digit_frac.capacity() +
                  stat_alpha_frac.capacity()) *
                     sizeof(double) +
                 touched.capacity() * sizeof(uint32_t) +
                 stat_flags.capacity() * sizeof(uint8_t) +
                 numeric_buf.capacity() +
                 // Pool entries' inner capacities are deliberately not
                 // counted: they migrate between the pool and the caller's
                 // output vector without any allocation, so counting them
                 // would read as spurious "growth".
                 column_pool.capacity() * sizeof(ColumnFeatures);
    return own + cache.CapacityBytes() + lda.CapacityBytes();
  }

  /// growth_events plus the nested cache's own counter.
  size_t TotalGrowthEvents() const {
    return growth_events + cache.growth_events();
  }
};

}  // namespace sato::features

#endif  // SATO_FEATURES_FEATURE_SCRATCH_H_
