// Tests for the Sherlock-style feature extractors (Char/Word/Para/Stat),
// the pipeline (tokenize-once fast path vs Reference* parity), the
// zero-allocation steady-state guarantee, and the train-set feature scaler.

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

#include <gtest/gtest.h>

#include "adversarial_values.h"
#include "corpus/generator.h"
#include "embedding/tfidf.h"
#include "embedding/token_cache.h"
#include "embedding/vocabulary.h"
#include "embedding/word_embeddings.h"
#include "features/char_features.h"
#include "features/feature_scratch.h"
#include "features/para_features.h"
#include "features/pipeline.h"
#include "features/stat_features.h"
#include "features/word_features.h"
#include "topic/table_document.h"
#include "util/rng.h"

// Global allocation counter: the steady-state test asserts a literal zero
// heap allocations across a warm featurization pass, not just stable
// scratch capacities. GCC's allocator-pairing analysis cannot see that
// these replacements route consistently through malloc/free, so its
// mismatch warning is a false positive here; noinline keeps the pairing
// opaque at call sites.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace sato::features {
namespace {

Column MakeColumn(std::vector<std::string> values) {
  Column c;
  c.header = "test";
  c.values = std::move(values);
  return c;
}

embedding::WordEmbeddings TinyEmbeddings() {
  embedding::Vocabulary v;
  v.Count("warsaw");
  v.Count("warsaw");
  v.Count("london");
  v.Finalize(1);
  nn::Matrix vectors = nn::Matrix::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  return embedding::WordEmbeddings(std::move(v), std::move(vectors));
}

// ---------------------------------------------------------------- char ----

TEST(CharFeaturesTest, DimensionMatchesAlphabet) {
  CharFeatureExtractor ex;
  EXPECT_EQ(ex.dim(),
            CharFeatureExtractor::Alphabet().size() *
                CharFeatureExtractor::kStatsPerChar);
}

TEST(CharFeaturesTest, CountsAreCaseInsensitive) {
  CharFeatureExtractor ex;
  auto a = ex.ReferenceExtract(MakeColumn({"AAA"}));
  auto b = ex.ReferenceExtract(MakeColumn({"aaa"}));
  EXPECT_EQ(a, b);
}

TEST(CharFeaturesTest, MeanCountForKnownInput) {
  CharFeatureExtractor ex;
  // 'a' appears 2x in first value, 0x in second.
  auto f = ex.ReferenceExtract(MakeColumn({"aa", "bb"}));
  size_t a_slot = CharFeatureExtractor::Alphabet().find('a');
  size_t base = a_slot * CharFeatureExtractor::kStatsPerChar;
  EXPECT_DOUBLE_EQ(f[base + 0], 1.0);   // mean
  EXPECT_DOUBLE_EQ(f[base + 1], 1.0);   // std
  EXPECT_DOUBLE_EQ(f[base + 2], 2.0);   // max
  EXPECT_DOUBLE_EQ(f[base + 3], 0.5);   // presence fraction
}

TEST(CharFeaturesTest, EmptyColumnIsZeroVector) {
  CharFeatureExtractor ex;
  auto f = ex.ReferenceExtract(MakeColumn({}));
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
  auto g = ex.ReferenceExtract(MakeColumn({"", ""}));
  for (double v : g) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(CharFeaturesTest, DigitsAndPunctuationCovered) {
  auto alphabet = CharFeatureExtractor::Alphabet();
  for (char c : {'0', '9', '$', '%', ',', '-'}) {
    EXPECT_NE(alphabet.find(c), std::string_view::npos) << c;
  }
}

TEST(CharFeaturesTest, DistinguishesCodesFromWords) {
  CharFeatureExtractor ex;
  auto code = ex.ReferenceExtract(MakeColumn({"AB-1234", "XY-5678"}));
  auto word = ex.ReferenceExtract(MakeColumn({"Warsaw", "London"}));
  EXPECT_NE(code, word);
}

// ---------------------------------------------------------------- word ----

TEST(WordFeaturesTest, DimIs2DPlus2) {
  auto emb = TinyEmbeddings();
  WordFeatureExtractor ex(&emb);
  EXPECT_EQ(ex.dim(), 2 * emb.dim() + 2);
}

TEST(WordFeaturesTest, MeanEmbeddingForUniformColumn) {
  auto emb = TinyEmbeddings();
  WordFeatureExtractor ex(&emb);
  auto f = ex.ReferenceExtract(MakeColumn({"warsaw", "warsaw"}));
  EXPECT_DOUBLE_EQ(f[0], 1.0);  // mean dim0 = warsaw[0]
  EXPECT_DOUBLE_EQ(f[1], 0.0);
  EXPECT_DOUBLE_EQ(f[2], 0.0);  // std dim0
  EXPECT_DOUBLE_EQ(f[4], 1.0);  // in-vocab fraction
  EXPECT_DOUBLE_EQ(f[5], 1.0);  // mean tokens per value
}

TEST(WordFeaturesTest, CoverageDropsForOovTokens) {
  auto emb = TinyEmbeddings();
  WordFeatureExtractor ex(&emb);
  auto f = ex.ReferenceExtract(MakeColumn({"warsaw", "zanzibar"}));
  EXPECT_DOUBLE_EQ(f[2 * emb.dim()], 0.5);
}

TEST(WordFeaturesTest, EmptyColumnIsZero) {
  auto emb = TinyEmbeddings();
  WordFeatureExtractor ex(&emb);
  auto f = ex.ReferenceExtract(MakeColumn({"", ""}));
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ---------------------------------------------------------------- para ----

TEST(ParaFeaturesTest, UnitNormPlusNormScalar) {
  auto emb = TinyEmbeddings();
  embedding::TfIdf tfidf;
  tfidf.Fit({{"warsaw"}, {"london"}});
  ParagraphFeatureExtractor ex(&emb, &tfidf);
  auto f = ex.ReferenceExtract(MakeColumn({"warsaw london", "warsaw"}));
  double norm = 0.0;
  for (size_t i = 0; i + 1 < f.size(); ++i) norm += f[i] * f[i];
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-9);
  EXPECT_GT(f.back(), 0.0);  // pre-normalisation magnitude
}

TEST(ParaFeaturesTest, EmptyColumnZero) {
  auto emb = TinyEmbeddings();
  embedding::TfIdf tfidf;
  tfidf.Fit({{"x"}});
  ParagraphFeatureExtractor ex(&emb, &tfidf);
  auto f = ex.ReferenceExtract(MakeColumn({}));
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ---------------------------------------------------------------- stat ----

TEST(StatFeaturesTest, Exactly27Features) {
  StatFeatureExtractor ex;
  EXPECT_EQ(ex.dim(), 27u);
  EXPECT_EQ(StatFeatureExtractor::FeatureNames().size(), 27u);
  EXPECT_EQ(ex.ReferenceExtract(MakeColumn({"a"})).size(), 27u);
}

TEST(StatFeaturesTest, FractionsForMixedColumn) {
  StatFeatureExtractor ex;
  auto f = ex.ReferenceExtract(MakeColumn({"12", "abc", "", "45"}));
  EXPECT_DOUBLE_EQ(f[1], 0.25);          // frac empty (1 of 4)
  EXPECT_DOUBLE_EQ(f[2], 2.0 / 3.0);     // frac numeric of non-empty
}

TEST(StatFeaturesTest, LengthStatistics) {
  StatFeatureExtractor ex;
  auto f = ex.ReferenceExtract(MakeColumn({"ab", "abcd"}));
  EXPECT_DOUBLE_EQ(f[3], 3.0);  // mean length
  EXPECT_DOUBLE_EQ(f[5], 2.0);  // min
  EXPECT_DOUBLE_EQ(f[6], 4.0);  // max
  EXPECT_DOUBLE_EQ(f[7], 3.0);  // median
}

TEST(StatFeaturesTest, UniquenessAndEntropy) {
  StatFeatureExtractor ex;
  auto uniform = ex.ReferenceExtract(MakeColumn({"a", "b", "c", "d"}));
  auto constant = ex.ReferenceExtract(MakeColumn({"a", "a", "a", "a"}));
  EXPECT_DOUBLE_EQ(uniform[8], 1.0);   // all unique
  EXPECT_DOUBLE_EQ(constant[8], 0.25);
  EXPECT_GT(uniform[24], constant[24]);  // entropy higher when diverse
}

TEST(StatFeaturesTest, NumericMomentsOnLogScale) {
  StatFeatureExtractor ex;
  auto f = ex.ReferenceExtract(MakeColumn({"10", "100", "1000"}));
  EXPECT_NEAR(f[11], std::log1p(10.0), 1e-12);    // min (log)
  EXPECT_NEAR(f[12], std::log1p(1000.0), 1e-12);  // max (log)
}

TEST(StatFeaturesTest, CapsAndCapitalizedFractions) {
  StatFeatureExtractor ex;
  auto f = ex.ReferenceExtract(MakeColumn({"USA", "Warsaw", "paris", "UK"}));
  EXPECT_DOUBLE_EQ(f[18], 0.5);   // all-caps: USA, UK
  EXPECT_DOUBLE_EQ(f[19], 0.75);  // capitalized first letter
}

TEST(StatFeaturesTest, EmptyColumnOnlyCountFeature) {
  StatFeatureExtractor ex;
  auto f = ex.ReferenceExtract(MakeColumn({}));
  EXPECT_DOUBLE_EQ(f[0], std::log1p(0.0));
  for (size_t i = 1; i < f.size(); ++i) EXPECT_DOUBLE_EQ(f[i], 0.0);
}

// ------------------------------------------------------------- pipeline ----

TEST(PipelineTest, GroupDimensionsConsistent) {
  auto emb = TinyEmbeddings();
  embedding::TfIdf tfidf;
  tfidf.Fit({{"warsaw"}});
  FeaturePipeline pipeline(&emb, &tfidf);
  auto f = pipeline.Extract(MakeColumn({"warsaw", "london"}));
  EXPECT_EQ(f.char_features.size(), pipeline.char_dim());
  EXPECT_EQ(f.word_features.size(), pipeline.word_dim());
  EXPECT_EQ(f.para_features.size(), pipeline.para_dim());
  EXPECT_EQ(f.stat_features.size(), pipeline.stat_dim());
  EXPECT_EQ(pipeline.total_dim(), pipeline.char_dim() + pipeline.word_dim() +
                                      pipeline.para_dim() + pipeline.stat_dim());
}

TEST(PipelineTest, GroupAccessor) {
  ColumnFeatures f;
  f.char_features = {1.0};
  f.word_features = {2.0};
  f.para_features = {3.0};
  f.stat_features = {4.0};
  EXPECT_EQ(f.group(FeatureGroup::kChar)[0], 1.0);
  EXPECT_EQ(f.group(FeatureGroup::kWord)[0], 2.0);
  EXPECT_EQ(f.group(FeatureGroup::kPara)[0], 3.0);
  EXPECT_EQ(f.group(FeatureGroup::kStat)[0], 4.0);
  EXPECT_THROW(f.group(FeatureGroup::kTopic), std::invalid_argument);
}

TEST(PipelineTest, GroupNamesMatchFigure9Labels) {
  EXPECT_EQ(FeatureGroupName(FeatureGroup::kChar), "char");
  EXPECT_EQ(FeatureGroupName(FeatureGroup::kWord), "word");
  EXPECT_EQ(FeatureGroupName(FeatureGroup::kPara), "par");
  EXPECT_EQ(FeatureGroupName(FeatureGroup::kStat), "rest");
  EXPECT_EQ(FeatureGroupName(FeatureGroup::kTopic), "topic");
}

// --------------------------------------------------------------- scaler ----

TEST(ScalerTest, StandardizesToZeroMeanUnitVariance) {
  std::vector<ColumnFeatures> features(3);
  for (size_t i = 0; i < 3; ++i) {
    features[i].char_features = {static_cast<double>(i)};        // 0,1,2
    features[i].word_features = {10.0 * static_cast<double>(i)};
    features[i].para_features = {5.0};                           // constant
    features[i].stat_features = {static_cast<double>(i) - 1.0};
  }
  FeatureScaler scaler;
  scaler.Fit(features);
  for (auto& f : features) scaler.Transform(&f);

  double mean = 0.0;
  for (const auto& f : features) mean += f.char_features[0];
  EXPECT_NEAR(mean / 3.0, 0.0, 1e-12);
  // Constant feature centred to exactly zero.
  for (const auto& f : features) EXPECT_DOUBLE_EQ(f.para_features[0], 0.0);
}

TEST(ScalerTest, TransformBeforeFitThrows) {
  FeatureScaler scaler;
  ColumnFeatures f;
  EXPECT_THROW(scaler.Transform(&f), std::logic_error);
}

TEST(ScalerTest, FitEmptyThrows) {
  FeatureScaler scaler;
  EXPECT_THROW(scaler.Fit({}), std::invalid_argument);
}

TEST(ScalerTest, SaveLoadRoundTrip) {
  std::vector<ColumnFeatures> features(4);
  for (size_t i = 0; i < 4; ++i) {
    double v = static_cast<double>(i);
    features[i].char_features = {v, 2.0 * v};
    features[i].word_features = {-v};
    features[i].para_features = {v * v};
    features[i].stat_features = {1.0, v, 3.0};
  }
  FeatureScaler scaler;
  scaler.Fit(features);
  std::stringstream ss;
  scaler.Save(&ss);
  FeatureScaler back = FeatureScaler::Load(&ss);
  EXPECT_TRUE(back.fitted());

  ColumnFeatures a = features[2], b = features[2];
  scaler.Transform(&a);
  back.Transform(&b);
  EXPECT_EQ(a.char_features, b.char_features);
  EXPECT_EQ(a.word_features, b.word_features);
  EXPECT_EQ(a.para_features, b.para_features);
  EXPECT_EQ(a.stat_features, b.stat_features);
}

TEST(ScalerTest, SaveBeforeFitThrows) {
  FeatureScaler scaler;
  std::stringstream ss;
  EXPECT_THROW(scaler.Save(&ss), std::logic_error);
}

// ---------------------------------------------- fast path vs reference ----

// Shared corpus + embedding fixture for the tokenize-once fast path: real
// generated tables, a frequency-cut vocabulary (so OOV tokens exist) with
// deterministic Gaussian vectors, and tf-idf statistics over the corpus.
class FastPathParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 40;
    copts.seed = 91;
    corpus::CorpusGenerator gen(copts);
    tables_ = new std::vector<Table>(gen.Generate());

    embedding::Vocabulary vocab;
    for (const Table& t : *tables_) {
      for (const Column& c : t.columns()) {
        for (const std::string& v : c.values) {
          vocab.CountAll(embedding::TokenizeCell(v));
        }
      }
    }
    vocab.Finalize(/*min_count=*/2);  // singletons become OOV
    util::Rng rng(7);
    nn::Matrix vectors = nn::Matrix::Gaussian(vocab.size(), 8, 1.0, &rng);
    embeddings_ = new embedding::WordEmbeddings(std::move(vocab),
                                                std::move(vectors));
    tfidf_ = new embedding::TfIdf();
    tfidf_->Fit(topic::TablesToDocuments(*tables_));
    pipeline_ = new FeaturePipeline(embeddings_, tfidf_);
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    delete tfidf_;
    delete embeddings_;
    delete tables_;
  }

  static void ExpectGroupNear(const std::vector<double>& fast,
                              const std::vector<double>& ref,
                              const char* group, const std::string& id,
                              size_t column) {
    ASSERT_EQ(fast.size(), ref.size()) << group << " " << id << ":" << column;
    for (size_t i = 0; i < fast.size(); ++i) {
      if (!std::isfinite(ref[i])) {
        // inf/nan features (e.g. numeric moments of an inf-valued column):
        // the two paths must produce the same non-finite value.
        EXPECT_TRUE((std::isnan(fast[i]) && std::isnan(ref[i])) ||
                    fast[i] == ref[i])
            << group << "[" << i << "] " << id << ":" << column << " fast="
            << fast[i] << " ref=" << ref[i];
        continue;
      }
      EXPECT_NEAR(fast[i], ref[i], 1e-12)
          << group << "[" << i << "] " << id << ":" << column;
    }
  }

  static void ExpectTableParity(const Table& table) {
    FeatureScratch scratch;
    std::vector<ColumnFeatures> fast;
    scratch.cache.Build(table, embeddings_, tfidf_, nullptr);
    pipeline_->ExtractCached(&scratch, &fast);
    ASSERT_EQ(fast.size(), table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      ColumnFeatures ref = pipeline_->ExtractReference(table.column(c));
      ExpectGroupNear(fast[c].char_features, ref.char_features, "char",
                      table.id(), c);
      ExpectGroupNear(fast[c].word_features, ref.word_features, "word",
                      table.id(), c);
      ExpectGroupNear(fast[c].para_features, ref.para_features, "para",
                      table.id(), c);
      ExpectGroupNear(fast[c].stat_features, ref.stat_features, "stat",
                      table.id(), c);
    }
  }

  static std::vector<Table>* tables_;
  static embedding::WordEmbeddings* embeddings_;
  static embedding::TfIdf* tfidf_;
  static FeaturePipeline* pipeline_;
};

std::vector<Table>* FastPathParityTest::tables_ = nullptr;
embedding::WordEmbeddings* FastPathParityTest::embeddings_ = nullptr;
embedding::TfIdf* FastPathParityTest::tfidf_ = nullptr;
FeaturePipeline* FastPathParityTest::pipeline_ = nullptr;

TEST_F(FastPathParityTest, MatchesReferenceOnGeneratedCorpus) {
  for (const Table& table : *tables_) ExpectTableParity(table);
}

TEST_F(FastPathParityTest, MatchesReferenceOnEdgeColumns) {
  Table edge("edge");
  edge.AddColumn(MakeColumn({}));                      // no values at all
  edge.AddColumn(MakeColumn({"", "", ""}));            // only empty cells
  edge.AddColumn(MakeColumn({"zzzqqq", "xxyyzz kqjx"}));  // all-OOV tokens
  edge.AddColumn(MakeColumn({"--- !!", "...", "()"}));    // no alnum tokens
  edge.AddColumn(MakeColumn({"42", "1,777,972", "7"}));   // numeric buckets
  edge.AddColumn(MakeColumn({"Warsaw", "", "USA", "Warsaw", ""}));
  // strtod corner cases the Stat maybe-numeric prefilter must not skip:
  // inf/nan spellings and nan(n-char-seq) tails whose bytes lie outside
  // the prefilter's allowed set.
  edge.AddColumn(MakeColumn({"inf", "-Infinity", "nan", "nan(gz)",
                             "NAN(q_1)", "(510) 555", "0x1Ap2"}));
  ExpectTableParity(edge);
}

TEST_F(FastPathParityTest, PerColumnConvenienceMatchesReference) {
  const Table& table = (*tables_)[0];
  for (size_t c = 0; c < table.num_columns(); ++c) {
    ColumnFeatures fast = pipeline_->Extract(table.column(c));
    ColumnFeatures ref = pipeline_->ExtractReference(table.column(c));
    ExpectGroupNear(fast.char_features, ref.char_features, "char",
                    table.id(), c);
    ExpectGroupNear(fast.word_features, ref.word_features, "word",
                    table.id(), c);
    ExpectGroupNear(fast.para_features, ref.para_features, "para",
                    table.id(), c);
    ExpectGroupNear(fast.stat_features, ref.stat_features, "stat",
                    table.id(), c);
  }
}

// The adversarial table adds bytes >= 0x80, embedded NULs, digit runs
// longer than 12, mixed case and values around 32 bytes. The tokenizer
// has one scalar path; CI runs this suite again with
// SATO_DISABLE_CPU_DISPATCH=1.
TEST_F(FastPathParityTest, TokenCacheAgreesWithTokenizeCell) {
  for (const Table& table : {(*tables_)[1], testdata::AdversarialTable()}) {
    embedding::TokenCache cache;
    cache.Build(table, embeddings_, tfidf_, nullptr);
    size_t cell_index = 0;
    for (const Column& column : table.columns()) {
      for (const std::string& value : column.values) {
        const auto& cell = cache.cell(cell_index++);
        auto expected = embedding::TokenizeCell(value);
        ASSERT_EQ(cell.occ_end - cell.occ_begin, expected.size()) << value;
        for (size_t i = 0; i < expected.size(); ++i) {
          uint32_t unique = cache.occurrences()[cell.occ_begin + i];
          const auto& token = cache.token(unique);
          EXPECT_EQ(token.text, expected[i]);
          // Pre-resolved idf and embedding row agree with the string paths.
          EXPECT_DOUBLE_EQ(token.idf, tfidf_->Idf(expected[i]));
          std::vector<double> looked_up = embeddings_->Lookup(expected[i]);
          const double* row = cache.EmbeddingRow(unique);
          for (size_t j = 0; j < looked_up.size(); ++j) {
            EXPECT_DOUBLE_EQ(row[j], looked_up[j]) << expected[i];
          }
          EXPECT_EQ(token.embed_id >= 0, embeddings_->Contains(expected[i]));
        }
      }
    }
  }
}

TEST_F(FastPathParityTest, SteadyStateExtractionAllocatesNothing) {
  FeatureScratch scratch;
  std::vector<ColumnFeatures> out;
  // Warm-up: two passes so every buffer (including the column recycle
  // pool) reaches its high-water capacity.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Table& table : *tables_) {
      scratch.cache.Build(table, embeddings_, tfidf_, nullptr);
      pipeline_->ExtractCached(&scratch, &out);
    }
  }
  size_t growth_before = scratch.TotalGrowthEvents();
  size_t capacity_before = scratch.CapacityBytes();
  uint64_t allocs_before = g_heap_allocations.load();
  for (const Table& table : *tables_) {
    scratch.cache.Build(table, embeddings_, tfidf_, nullptr);
    pipeline_->ExtractCached(&scratch, &out);
  }
  uint64_t allocs = g_heap_allocations.load() - allocs_before;
  EXPECT_EQ(allocs, 0u) << "warm featurization pass touched the heap";
  EXPECT_EQ(scratch.TotalGrowthEvents(), growth_before);
  EXPECT_EQ(scratch.CapacityBytes(), capacity_before);
}

// The per-worker token dictionary and OOV pool persist across tables, so
// a worker's answer must not depend on what it served before: the same
// table built fresh, after 50 other tables, and under a dictionary bound
// that forces resets mid-stream yields bitwise-equal features and the
// same token texts.
class TokenDictionaryHistoryTest : public FastPathParityTest {
 protected:
  struct Result {
    std::vector<ColumnFeatures> features;
    std::vector<std::string> texts;  ///< token text per occurrence
  };

  static Result BuildAndExtract(FeatureScratch* scratch, const Table& table) {
    Result r;
    scratch->cache.Build(table, embeddings_, tfidf_, nullptr);
    pipeline_->ExtractCached(scratch, &r.features);
    for (uint32_t index : scratch->cache.occurrences()) {
      r.texts.push_back(scratch->cache.token(index).text);
    }
    return r;
  }

  static void ExpectBitwiseEqual(const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }

  static void ExpectSame(const Result& a, const Result& b,
                         const std::string& how) {
    EXPECT_EQ(a.texts, b.texts) << how;
    ASSERT_EQ(a.features.size(), b.features.size()) << how;
    for (size_t c = 0; c < a.features.size(); ++c) {
      const std::string tag = how + " column " + std::to_string(c);
      ExpectBitwiseEqual(a.features[c].char_features,
                         b.features[c].char_features, "char " + tag);
      ExpectBitwiseEqual(a.features[c].word_features,
                         b.features[c].word_features, "word " + tag);
      ExpectBitwiseEqual(a.features[c].para_features,
                         b.features[c].para_features, "para " + tag);
      ExpectBitwiseEqual(a.features[c].stat_features,
                         b.features[c].stat_features, "stat " + tag);
    }
  }

  static std::vector<Table> OtherTables() {
    corpus::CorpusOptions copts;
    copts.num_tables = 50;
    copts.seed = 92;
    return corpus::CorpusGenerator(copts).Generate();
  }
};

TEST_F(TokenDictionaryHistoryTest, FeaturesDoNotDependOnWhatTheScratchServed) {
  const std::vector<Table> others = OtherTables();
  for (const Table& table : {(*tables_)[1], testdata::AdversarialTable()}) {
    FeatureScratch fresh;
    const Result expected = BuildAndExtract(&fresh, table);
    ASSERT_FALSE(expected.texts.empty());

    FeatureScratch warm;
    for (const Table& other : others) BuildAndExtract(&warm, other);
    ExpectSame(expected, BuildAndExtract(&warm, table), "warm " + table.id());

    // A bound a few tables' worth of tokens wide: Build drops the
    // dictionary and the OOV pool whenever it is exceeded, and the pool
    // regrows (reallocating, re-wiring rows) from empty each time.
    FeatureScratch bounded;
    bounded.cache.set_max_dictionary_bytes(48u << 10);
    size_t resets = 0;
    std::string first_token;
    size_t last_size = 0;
    for (const Table& other : others) {
      BuildAndExtract(&bounded, other);
      const embedding::TokenCache& cache = bounded.cache;
      if (cache.dictionary_size() == 0) continue;
      if (cache.dictionary_size() < last_size ||
          (!first_token.empty() && cache.token(0).text != first_token)) {
        ++resets;
      }
      last_size = cache.dictionary_size();
      first_token = cache.token(0).text;
    }
    EXPECT_GE(resets, 2u) << "the bound never forced a dictionary reset";
    ExpectSame(expected, BuildAndExtract(&bounded, table),
               "bounded " + table.id());
    // Once more, right after the table itself grew the dictionary.
    ExpectSame(expected, BuildAndExtract(&bounded, table),
               "bounded again " + table.id());
  }
}

TEST(TokenizerByteClassTest, MatchesCLocaleForAllBytes) {
  const auto& classes = embedding::TokenCache::ByteClasses();
  for (int c = 0; c < 256; ++c) {
    const auto& b = classes[static_cast<size_t>(c)];
    EXPECT_EQ((b.flags & embedding::TokenCache::kAlnum) != 0,
              std::isalnum(c) != 0)
        << "byte " << c;
    EXPECT_EQ((b.flags & embedding::TokenCache::kDigit) != 0,
              std::isdigit(c) != 0)
        << "byte " << c;
    EXPECT_EQ(static_cast<unsigned char>(b.lower), std::tolower(c))
        << "byte " << c;
  }
}

TEST(ScalerTest, DimensionMismatchDetected) {
  std::vector<ColumnFeatures> features(2);
  for (auto& f : features) {
    f.char_features = {1.0, 2.0};
    f.word_features = {1.0};
    f.para_features = {1.0};
    f.stat_features = {1.0};
  }
  FeatureScaler scaler;
  scaler.Fit(features);
  ColumnFeatures bad;
  bad.char_features = {1.0};  // wrong dim
  bad.word_features = {1.0};
  bad.para_features = {1.0};
  bad.stat_features = {1.0};
  EXPECT_THROW(scaler.Transform(&bad), std::invalid_argument);
}

}  // namespace
}  // namespace sato::features
