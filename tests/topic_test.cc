// Tests for the LDA table-intent estimator: Gibbs training invariants,
// topic recovery on separable corpora, fold-in inference, analysis helpers.

#include <cmath>
#include <cstddef>
#include <cstring>
#include <new>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "embedding/token_cache.h"
#include "topic/analysis.h"
#include "topic/lda.h"
#include "topic/table_document.h"

namespace sato::topic {
namespace {

// Two cleanly separable themes.
std::vector<std::vector<std::string>> TwoThemeCorpus(int docs_per_theme) {
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < docs_per_theme; ++i) {
    docs.push_back({"goal", "match", "league", "striker", "goal", "match"});
    docs.push_back({"election", "senate", "ballot", "vote", "senate", "vote"});
  }
  return docs;
}

LdaOptions SmallLda(int topics) {
  LdaOptions o;
  o.num_topics = topics;
  o.train_iterations = 80;
  o.infer_iterations = 30;
  o.min_count = 1;
  return o;
}

TEST(LdaTest, PhiRowsAreDistributions) {
  util::Rng rng(1);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(30), SmallLda(4), &rng);
  const size_t v = lda.vocab().size();
  ASSERT_EQ(lda.phi().size(), static_cast<size_t>(lda.num_topics()) * v);
  for (int t = 0; t < lda.num_topics(); ++t) {
    const double* row = lda.PhiRow(t);
    double sum = 0.0;
    for (size_t w = 0; w < v; ++w) {
      EXPECT_GE(row[w], 0.0);
      sum += row[w];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LdaTest, InferredThetaIsDistribution) {
  util::Rng rng(2);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(30), SmallLda(4), &rng);
  auto theta = lda.InferTopics({"goal", "match", "league"}, &rng);
  ASSERT_EQ(theta.size(), 4u);
  double sum = 0.0;
  for (double p : theta) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(LdaTest, SeparatesTwoThemes) {
  util::Rng rng(3);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(50), SmallLda(2), &rng);
  auto sports = lda.InferTopics({"goal", "match", "striker", "league"}, &rng);
  auto politics = lda.InferTopics({"vote", "senate", "ballot", "election"}, &rng);
  // The argmax topics must differ.
  size_t s_top = sports[0] > sports[1] ? 0 : 1;
  size_t p_top = politics[0] > politics[1] ? 0 : 1;
  EXPECT_NE(s_top, p_top);
  EXPECT_GT(sports[s_top], 0.7);
  EXPECT_GT(politics[p_top], 0.7);
}

TEST(LdaTest, UnknownTokensGiveUniformMixture) {
  util::Rng rng(4);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(4), &rng);
  auto theta = lda.InferTopics({"zzz", "qqq"}, &rng);
  for (double p : theta) EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(LdaTest, TopWordsBelongToTheme) {
  util::Rng rng(5);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(50), SmallLda(2), &rng);
  // Each topic's top word should come from a single theme's vocabulary.
  std::set<std::string> sports = {"goal", "match", "league", "striker"};
  std::set<std::string> politics = {"election", "senate", "ballot", "vote"};
  for (int t = 0; t < 2; ++t) {
    auto top = lda.TopWords(t, 3);
    ASSERT_FALSE(top.empty());
    bool in_sports = sports.count(top[0].first) > 0;
    for (const auto& [word, p] : top) {
      EXPECT_EQ(in_sports ? sports.count(word) : politics.count(word), 1u)
          << word;
    }
  }
}

TEST(LdaTest, EmptyVocabularyThrows) {
  util::Rng rng(6);
  EXPECT_THROW(LdaModel::Train({}, SmallLda(2), &rng), std::invalid_argument);
}

TEST(LdaTest, SaveLoadRoundTrip) {
  util::Rng rng(7);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), SmallLda(3), &rng);
  std::stringstream ss;
  lda.Save(&ss);
  LdaModel back = LdaModel::Load(&ss);
  EXPECT_EQ(back.num_topics(), lda.num_topics());
  EXPECT_EQ(back.vocab().size(), lda.vocab().size());
  EXPECT_EQ(back.phi(), lda.phi());
  // Inference streams must agree for the same seed.
  util::Rng r1(9), r2(9);
  EXPECT_EQ(lda.InferTopics({"goal", "match"}, &r1),
            back.InferTopics({"goal", "match"}, &r2));
}

// Save writes LdaOptions in its in-memory layout; the 4 padding bytes
// after num_topics must reach the stream as zeros, not as whatever memory
// the options were built in, or two saves of the same model differ.
TEST(LdaTest, SaveZeroesOptionsPadding) {
  static_assert(offsetof(LdaOptions, alpha) == 8, "padding moved");
  alignas(LdaOptions) unsigned char options_storage[sizeof(LdaOptions)];
  std::memset(options_storage, 0xAB, sizeof(options_storage));
  LdaOptions* options = new (options_storage) LdaOptions;
  options->num_topics = 3;
  options->min_count = 1;
  alignas(LdaModel) unsigned char model_storage[sizeof(LdaModel)];
  std::memset(model_storage, 0xAB, sizeof(model_storage));
  util::Rng rng(7);
  LdaModel* lda = new (model_storage)
      LdaModel(LdaModel::Train(TwoThemeCorpus(5), *options, &rng));
  std::stringstream ss;
  lda->Save(&ss);
  lda->~LdaModel();
  const std::string bytes = ss.str();
  // Two u64 headers (K, V), then the options: num_topics, then padding.
  ASSERT_GE(bytes.size(), 16 + sizeof(LdaOptions));
  for (size_t i = 16 + sizeof(int); i < 16 + 8; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[i]), 0u) << "byte " << i;
  }
}

TEST(LdaTest, MaxDocTokensTruncates) {
  util::Rng rng(8);
  LdaOptions opts = SmallLda(2);
  opts.max_doc_tokens = 4;
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(20), opts, &rng);
  // Inference still works on a long document.
  std::vector<std::string> longdoc(1000, "goal");
  auto theta = lda.InferTopics(longdoc, &rng);
  double sum = 0.0;
  for (double p : theta) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ------------------------------------------- flat-phi fold-in fast path ----

TEST(LdaFastPathTest, InferTopicsMatchesReferenceExactly) {
  util::Rng rng(17);
  LdaModel lda = LdaModel::Train(TwoThemeCorpus(30), SmallLda(4), &rng);
  std::vector<std::vector<std::string>> docs = {
      {"goal", "match", "league", "goal"},
      {"election", "goal", "zzz", "vote", "vote"},
      {"zzz", "qqq"},  // all OOV -> uniform
      {},
  };
  for (const auto& doc : docs) {
    util::Rng r1(99), r2(99);
    // Identical draw order and weights: bit-for-bit equality, not just
    // closeness.
    EXPECT_EQ(lda.InferTopics(doc, &r1), lda.ReferenceInferTopics(doc, &r2));
  }
}

TEST(LdaFastPathTest, CacheDrivenFoldInMatchesReferenceOnTables) {
  corpus::CorpusOptions opts;
  opts.num_tables = 30;
  opts.seed = 23;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();

  util::Rng rng(29);
  LdaOptions lda_opts = SmallLda(6);
  lda_opts.min_count = 2;         // some corpus tokens are OOV for the LDA
  lda_opts.max_doc_tokens = 16;   // most tables exceed this -> truncation
  LdaModel lda = LdaModel::Train(TablesToDocuments(tables), lda_opts, &rng);

  embedding::TokenCache cache;
  LdaScratch scratch;
  std::vector<double> theta;
  for (const Table& t : tables) {
    cache.Build(t, nullptr, nullptr, &lda.vocab());
    scratch.ids.clear();
    cache.CollectLdaIds(lda.options().max_doc_tokens, &scratch.ids);
    util::Rng r1(101), r2(101);
    lda.InferTopicsInto(&r1, &scratch, &theta);
    EXPECT_EQ(theta, lda.ReferenceInferTopics(TableToDocument(t), &r2))
        << t.id();
  }
}

TEST(LdaFastPathTest, SteadyStateFoldInDoesNotGrowScratch) {
  corpus::CorpusOptions opts;
  opts.num_tables = 20;
  opts.seed = 31;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();
  util::Rng rng(37);
  LdaModel lda = LdaModel::Train(TablesToDocuments(tables), SmallLda(4), &rng);

  embedding::TokenCache cache;
  LdaScratch scratch;
  std::vector<double> theta;
  auto run_pass = [&] {
    for (const Table& t : tables) {
      cache.Build(t, nullptr, nullptr, &lda.vocab());
      scratch.ids.clear();
      cache.CollectLdaIds(lda.options().max_doc_tokens, &scratch.ids);
      util::Rng r(7);
      lda.InferTopicsInto(&r, &scratch, &theta);
    }
  };
  run_pass();  // warm-up
  size_t capacity_before = scratch.CapacityBytes() + cache.CapacityBytes();
  size_t growth_before = cache.growth_events();
  run_pass();
  EXPECT_EQ(scratch.CapacityBytes() + cache.CapacityBytes(), capacity_before);
  EXPECT_EQ(cache.growth_events(), growth_before);
}

// ------------------------------------------------------ table documents ----

TEST(TableDocumentTest, ConcatenatesAllCellTokens) {
  Table t("doc");
  Column c1;
  c1.header = "city";
  c1.values = {"New York", "Paris"};
  Column c2;
  c2.header = "year";
  c2.values = {"1999"};
  t.AddColumn(c1);
  t.AddColumn(c2);
  auto doc = TableToDocument(t);
  EXPECT_EQ(doc, (std::vector<std::string>{"new", "york", "paris", "<num_4>"}));
}

TEST(TableDocumentTest, HeadersExcluded) {
  Table t("doc");
  Column c;
  c.header = "SECRETHEADER";
  c.values = {"x"};
  t.AddColumn(c);
  for (const auto& token : TableToDocument(t)) {
    EXPECT_EQ(token.find("secretheader"), std::string::npos);
  }
}

TEST(TableDocumentTest, BatchConversion) {
  corpus::CorpusOptions opts;
  opts.num_tables = 10;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();
  auto docs = TablesToDocuments(tables);
  EXPECT_EQ(docs.size(), tables.size());
}

// ------------------------------------------------------------- analysis ----

TEST(TopicAnalysisTest, SalientTopicsHaveInterpretableShape) {
  corpus::CorpusOptions opts;
  opts.num_tables = 300;
  opts.seed = 11;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();

  util::Rng rng(12);
  LdaOptions lda_opts = SmallLda(8);
  lda_opts.min_count = 2;
  LdaModel lda = LdaModel::Train(TablesToDocuments(tables), lda_opts, &rng);

  TopicAnalysis analysis(&lda);
  analysis.Fit(tables, &rng);
  auto salient = analysis.SalientTopics(5, 5);
  ASSERT_EQ(salient.size(), 5u);
  for (size_t i = 1; i < salient.size(); ++i) {
    EXPECT_GE(salient[i - 1].saliency, salient[i].saliency);  // sorted
  }
  for (const auto& st : salient) {
    EXPECT_EQ(st.top_types.size(), 5u);
    EXPECT_FALSE(st.top_words.empty());
    EXPECT_GE(st.saliency, 0.0);
    // Representative-type probabilities are sorted descending.
    for (size_t i = 1; i < st.top_types.size(); ++i) {
      EXPECT_GE(st.top_types[i - 1].second, st.top_types[i].second);
    }
  }
}

TEST(TopicAnalysisTest, TypeTopicRowsAreDistributions) {
  corpus::CorpusOptions opts;
  opts.num_tables = 200;
  opts.seed = 13;
  corpus::CorpusGenerator gen(opts);
  auto tables = gen.Generate();
  util::Rng rng(14);
  LdaModel lda =
      LdaModel::Train(TablesToDocuments(tables), SmallLda(6), &rng);
  TopicAnalysis analysis(&lda);
  analysis.Fit(tables, &rng);
  // Types present in the corpus must have a normalised distribution.
  const auto& row = analysis.TypeTopicDistribution(TypeIdOrDie("name"));
  double sum = 0.0;
  for (double p : row) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

}  // namespace
}  // namespace sato::topic
