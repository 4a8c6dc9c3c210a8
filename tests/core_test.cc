// Tests for the core Sato model: batch assembly, the column-wise network,
// variants, training behaviour (overfit capability), and persistence.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>
#include <sstream>

#include <gtest/gtest.h>

#include "core/columnwise_model.h"
#include "core/config.h"
#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "core/trainer.h"
#include "corpus/generator.h"
#include "eval/model_eval.h"
#include "eval/permutation_importance.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace sato {
namespace {

// Small synthetic feature data (bypasses the corpus for unit-level tests).
features::ColumnFeatures MakeFeatures(util::Rng* rng, size_t char_d,
                                      size_t word_d, size_t para_d,
                                      size_t stat_d) {
  features::ColumnFeatures f;
  auto fill = [&](std::vector<double>* v, size_t d) {
    v->resize(d);
    for (double& x : *v) x = rng->Normal();
  };
  fill(&f.char_features, char_d);
  fill(&f.word_features, word_d);
  fill(&f.para_features, para_d);
  fill(&f.stat_features, stat_d);
  return f;
}

ColumnwiseModel::Dims SmallDims() {
  ColumnwiseModel::Dims dims;
  dims.char_dim = 12;
  dims.word_dim = 8;
  dims.para_dim = 6;
  dims.stat_dim = 5;
  dims.num_classes = 7;
  return dims;
}

SatoConfig SmallConfig() {
  SatoConfig config;
  config.subnet_hidden = 10;
  config.char_out = 6;
  config.word_out = 5;
  config.para_out = 4;
  config.topic_out = 4;
  config.primary_hidden = 16;
  config.dropout = 0.0;
  config.epochs = 60;
  config.batch_size = 16;
  config.learning_rate = 3e-3;
  config.num_topics = 5;
  return config;
}

TableExample MakeExample(util::Rng* rng, const ColumnwiseModel::Dims& dims,
                         size_t topic_dim, size_t columns) {
  TableExample ex;
  ex.id = "t";
  for (size_t c = 0; c < columns; ++c) {
    ex.features.push_back(MakeFeatures(rng, dims.char_dim, dims.word_dim,
                                       dims.para_dim, dims.stat_dim));
    ex.labels.push_back(static_cast<int>(c) %
                        static_cast<int>(dims.num_classes));
  }
  ex.topic.resize(topic_dim);
  for (double& x : ex.topic) x = rng->Uniform();
  return ex;
}

// -------------------------------------------------------- feature batch ----

TEST(FeatureBatchTest, AssemblesGroupMatrices) {
  util::Rng rng(1);
  auto dims = SmallDims();
  auto f1 = MakeFeatures(&rng, dims.char_dim, dims.word_dim, dims.para_dim,
                         dims.stat_dim);
  auto f2 = MakeFeatures(&rng, dims.char_dim, dims.word_dim, dims.para_dim,
                         dims.stat_dim);
  std::vector<double> topic = {0.2, 0.8};
  FeatureBatch batch = FeatureBatch::FromColumns({&f1, &f2}, {&topic, &topic});
  EXPECT_EQ(batch.batch_size(), 2u);
  EXPECT_EQ(batch.char_features.cols(), dims.char_dim);
  EXPECT_EQ(batch.topic_features.cols(), 2u);
  EXPECT_DOUBLE_EQ(batch.char_features(0, 0), f1.char_features[0]);
  EXPECT_DOUBLE_EQ(batch.topic_features(1, 1), 0.8);
}

TEST(FeatureBatchTest, RejectsEmptyAndMismatched) {
  EXPECT_THROW(FeatureBatch::FromColumns({}, {}), std::invalid_argument);
  util::Rng rng(2);
  auto dims = SmallDims();
  auto f = MakeFeatures(&rng, dims.char_dim, dims.word_dim, dims.para_dim,
                        dims.stat_dim);
  std::vector<double> topic = {1.0};
  EXPECT_THROW(FeatureBatch::FromColumns({&f, &f}, {&topic}),
               std::invalid_argument);
}

// ----------------------------------------------------- columnwise model ----

TEST(ColumnwiseModelTest, ForwardShapes) {
  util::Rng rng(3);
  auto dims = SmallDims();
  ColumnwiseModel model(dims, SmallConfig(), &rng);
  EXPECT_FALSE(model.uses_topic());

  auto f = MakeFeatures(&rng, dims.char_dim, dims.word_dim, dims.para_dim,
                        dims.stat_dim);
  FeatureBatch batch = FeatureBatch::FromColumns({&f}, {});
  nn::Matrix logits = model.Forward(batch, false);
  EXPECT_EQ(logits.rows(), 1u);
  EXPECT_EQ(logits.cols(), dims.num_classes);
}

TEST(ColumnwiseModelTest, TopicVariantRequiresTopicFeatures) {
  util::Rng rng(4);
  auto dims = SmallDims();
  dims.topic_dim = 5;
  ColumnwiseModel model(dims, SmallConfig(), &rng);
  EXPECT_TRUE(model.uses_topic());
  auto f = MakeFeatures(&rng, dims.char_dim, dims.word_dim, dims.para_dim,
                        dims.stat_dim);
  FeatureBatch no_topic = FeatureBatch::FromColumns({&f}, {});
  EXPECT_THROW(model.Forward(no_topic, false), std::invalid_argument);
}

TEST(ColumnwiseModelTest, EmbeddingHasPrimaryHiddenWidth) {
  util::Rng rng(5);
  auto dims = SmallDims();
  auto config = SmallConfig();
  ColumnwiseModel model(dims, config, &rng);
  auto f = MakeFeatures(&rng, dims.char_dim, dims.word_dim, dims.para_dim,
                        dims.stat_dim);
  FeatureBatch batch = FeatureBatch::FromColumns({&f}, {});
  nn::Matrix embedding;
  model.ForwardWithEmbedding(batch, false, &embedding);
  EXPECT_EQ(embedding.cols(), config.primary_hidden);
}

TEST(ColumnwiseModelTest, CanOverfitSmallDataset) {
  // A model that cannot drive training loss to ~0 on 32 random samples has
  // a broken backward pass somewhere.
  util::Rng rng(6);
  auto dims = SmallDims();
  auto config = SmallConfig();
  ColumnwiseModel model(dims, config, &rng);

  std::vector<features::ColumnFeatures> data;
  std::vector<int> targets;
  for (int i = 0; i < 32; ++i) {
    data.push_back(MakeFeatures(&rng, dims.char_dim, dims.word_dim,
                                dims.para_dim, dims.stat_dim));
    targets.push_back(i % static_cast<int>(dims.num_classes));
  }
  std::vector<const features::ColumnFeatures*> ptrs;
  for (const auto& f : data) ptrs.push_back(&f);
  FeatureBatch batch = FeatureBatch::FromColumns(ptrs, {});

  nn::AdamOptimizer::Options opts;
  opts.learning_rate = 5e-3;
  nn::AdamOptimizer optimizer(model.Parameters(), opts);
  nn::SoftmaxCrossEntropy loss;
  double first = 0.0, last = 0.0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    nn::Matrix logits = model.Forward(batch, true);
    double l = loss.Forward(logits, targets);
    if (epoch == 0) first = l;
    last = l;
    optimizer.ZeroGrad();
    model.Backward(loss.Backward());
    optimizer.Step();
  }
  EXPECT_LT(last, 0.1);
  EXPECT_LT(last, first / 10.0);
}

TEST(ColumnwiseModelTest, SaveLoadPreservesPredictions) {
  util::Rng rng(7);
  auto dims = SmallDims();
  auto config = SmallConfig();
  ColumnwiseModel model(dims, config, &rng);
  auto f = MakeFeatures(&rng, dims.char_dim, dims.word_dim, dims.para_dim,
                        dims.stat_dim);
  FeatureBatch batch = FeatureBatch::FromColumns({&f}, {});
  nn::Matrix before = model.Forward(batch, false);

  std::stringstream ss;
  model.Save(&ss);
  util::Rng rng2(999);
  ColumnwiseModel other(dims, config, &rng2);
  other.Load(&ss);
  nn::Matrix after = other.Forward(batch, false);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before.data()[i], after.data()[i], 1e-12);
  }
}

// ------------------------------------------------------------- variants ----

TEST(SatoModelTest, VariantFlags) {
  EXPECT_FALSE(VariantUsesTopic(SatoVariant::kBase));
  EXPECT_FALSE(VariantUsesCrf(SatoVariant::kBase));
  EXPECT_TRUE(VariantUsesTopic(SatoVariant::kNoStruct));
  EXPECT_FALSE(VariantUsesCrf(SatoVariant::kNoStruct));
  EXPECT_FALSE(VariantUsesTopic(SatoVariant::kNoTopic));
  EXPECT_TRUE(VariantUsesCrf(SatoVariant::kNoTopic));
  EXPECT_TRUE(VariantUsesTopic(SatoVariant::kFull));
  EXPECT_TRUE(VariantUsesCrf(SatoVariant::kFull));
}

TEST(SatoModelTest, VariantNames) {
  EXPECT_EQ(VariantName(SatoVariant::kBase), "Base");
  EXPECT_EQ(VariantName(SatoVariant::kFull), "Sato");
  EXPECT_EQ(VariantName(SatoVariant::kNoStruct), "Sato-NoStruct");
  EXPECT_EQ(VariantName(SatoVariant::kNoTopic), "Sato-NoTopic");
}

TEST(SatoModelTest, PredictProbsAreDistributions) {
  util::Rng rng(8);
  auto dims = SmallDims();
  SatoModel model(SatoVariant::kFull, dims, 5, SmallConfig(), &rng);
  TableExample ex = MakeExample(&rng, dims, 5, 3);
  nn::Matrix probs = model.PredictProbs(ex);
  EXPECT_EQ(probs.rows(), 3u);
  for (size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_GE(probs(r, c), 0.0);
      sum += probs(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SatoModelTest, PredictReturnsLabelPerColumn) {
  util::Rng rng(9);
  auto dims = SmallDims();
  for (auto variant : {SatoVariant::kBase, SatoVariant::kNoStruct,
                       SatoVariant::kNoTopic, SatoVariant::kFull}) {
    SatoModel model(variant, dims, 5, SmallConfig(), &rng);
    TableExample ex = MakeExample(&rng, dims, 5, 4);
    auto pred = model.Predict(ex);
    EXPECT_EQ(pred.size(), 4u);
    for (int p : pred) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, static_cast<int>(dims.num_classes));
    }
  }
}

TEST(SatoModelTest, SaveLoadRoundTripWithCrf) {
  util::Rng rng(10);
  auto dims = SmallDims();
  SatoModel model(SatoVariant::kFull, dims, 5, SmallConfig(), &rng);
  model.crf().pairwise().value(0, 1) = 3.5;
  TableExample ex = MakeExample(&rng, dims, 5, 3);
  auto before = model.Predict(ex);

  std::stringstream ss;
  model.Save(&ss);
  util::Rng rng2(11);
  SatoModel other(SatoVariant::kFull, dims, 5, SmallConfig(), &rng2);
  other.Load(&ss);
  EXPECT_EQ(other.crf().pairwise().value(0, 1), 3.5);
  EXPECT_EQ(other.Predict(ex), before);
}

// ------------------------------------------------- end-to-end training ----

class CoreIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 260;
    copts.singleton_prob = 0.2;
    copts.seed = 21;
    corpus::CorpusGenerator gen(copts);
    auto tables = corpus::FilterMultiColumn(gen.Generate());
    auto reference = gen.GenerateWith(150, 777);

    config_ = new SatoConfig();
    config_->num_topics = 16;
    config_->epochs = 20;
    util::Rng rng(5);
    context_ = new FeatureContext(
        FeatureContext::Build(reference, *config_, &rng));

    DatasetBuilder builder(context_);
    Dataset all = builder.Build(tables, &rng);
    train_ = new Dataset();
    test_ = new Dataset();
    for (size_t i = 0; i < all.tables.size(); ++i) {
      ((i % 5 == 0) ? test_ : train_)->tables.push_back(all.tables[i]);
    }
    StandardizeSplits(train_, test_);
  }

  static void TearDownTestSuite() {
    delete train_;
    delete test_;
    delete context_;
    delete config_;
  }

  static ColumnwiseModel::Dims Dims() {
    ColumnwiseModel::Dims dims;
    dims.char_dim = context_->pipeline().char_dim();
    dims.word_dim = context_->pipeline().word_dim();
    dims.para_dim = context_->pipeline().para_dim();
    dims.stat_dim = context_->pipeline().stat_dim();
    return dims;
  }

  static SatoConfig* config_;
  static FeatureContext* context_;
  static Dataset* train_;
  static Dataset* test_;
};

SatoConfig* CoreIntegrationTest::config_ = nullptr;
FeatureContext* CoreIntegrationTest::context_ = nullptr;
Dataset* CoreIntegrationTest::train_ = nullptr;
Dataset* CoreIntegrationTest::test_ = nullptr;

TEST_F(CoreIntegrationTest, DatasetBuiltAndStandardized) {
  ASSERT_GT(train_->tables.size(), 50u);
  ASSERT_GT(test_->tables.size(), 10u);
  EXPECT_GT(train_->NumColumns(), train_->tables.size());
  for (const auto& t : train_->tables) {
    EXPECT_EQ(t.topic.size(), context_->topic_dim());
    EXPECT_EQ(t.labels.size(), t.features.size());
  }
}

TEST_F(CoreIntegrationTest, TrainedBaseBeatsChanceByWideMargin) {
  util::Rng rng(31);
  SatoModel model(SatoVariant::kBase, Dims(), context_->topic_dim(), *config_,
                  &rng);
  Trainer trainer(*config_);
  auto stats = trainer.Train(&model, *train_, &rng);
  EXPECT_GT(stats.columnwise_seconds, 0.0);
  EXPECT_EQ(stats.crf_seconds, 0.0);  // Base has no CRF phase

  auto result = eval::EvaluateModel(&model, *test_);
  EXPECT_GT(result.weighted_f1, 0.5);  // chance is ~1/78
  EXPECT_GT(result.accuracy, 0.5);
}

TEST_F(CoreIntegrationTest, FullSatoImprovesOverBase) {
  util::Rng rng_base(33), rng_full(33);
  SatoModel base(SatoVariant::kBase, Dims(), context_->topic_dim(), *config_,
                 &rng_base);
  SatoModel full(SatoVariant::kFull, Dims(), context_->topic_dim(), *config_,
                 &rng_full);
  Trainer trainer(*config_);
  trainer.Train(&base, *train_, &rng_base);
  auto full_stats = trainer.Train(&full, *train_, &rng_full);
  EXPECT_GT(full_stats.crf_seconds, 0.0);

  auto base_result = eval::EvaluateModel(&base, *test_);
  auto full_result = eval::EvaluateModel(&full, *test_);
  // The paper's core claim at miniature scale.
  EXPECT_GT(full_result.macro_f1, base_result.macro_f1);
  EXPECT_GT(full_result.weighted_f1, base_result.weighted_f1);
}

TEST_F(CoreIntegrationTest, PredictorMatchesDatasetPath) {
  // SatoPredictor (raw table -> featurise -> scale -> predict) must agree
  // with predictions made through the pre-featurised dataset path.
  util::Rng rng(41);
  SatoModel model(SatoVariant::kBase, Dims(), context_->topic_dim(), *config_,
                  &rng);
  Trainer trainer(*config_);
  trainer.Train(&model, *train_, &rng);

  // Rebuild the scaler exactly as the fixture did.
  util::Rng rng2(5);
  corpus::CorpusOptions copts;
  copts.num_tables = 260;
  copts.singleton_prob = 0.2;
  copts.seed = 21;
  corpus::CorpusGenerator gen(copts);
  auto tables = corpus::FilterMultiColumn(gen.Generate());

  DatasetBuilder builder(context_);
  Dataset all = builder.Build(tables, &rng2);
  Dataset train, test;
  std::vector<const Table*> test_tables;
  for (size_t i = 0; i < all.tables.size(); ++i) {
    if (i % 5 == 0) {
      test.tables.push_back(all.tables[i]);
      test_tables.push_back(&tables[i]);
    } else {
      train.tables.push_back(all.tables[i]);
    }
  }
  auto scaler = StandardizeSplits(&train, &test);
  SatoPredictor predictor(&model, context_, scaler);

  // Topic inference is stochastic (fold-in Gibbs), so compare through the
  // non-topic Base model where featurisation is deterministic.
  for (size_t i = 0; i < std::min<size_t>(10, test.tables.size()); ++i) {
    util::Rng r(1);
    auto via_predictor = predictor.PredictTable(*test_tables[i], &r);
    auto via_dataset = model.Predict(test.tables[i]);
    EXPECT_EQ(via_predictor, via_dataset) << "table " << test.tables[i].id;
  }
}

TEST_F(CoreIntegrationTest, FeaturizeIntoMatchesFeaturizeAndReusesScratch) {
  util::Rng rng(47);
  SatoModel model(SatoVariant::kFull, Dims(), context_->topic_dim(), *config_,
                  &rng);

  corpus::CorpusOptions copts;
  copts.num_tables = 30;
  copts.seed = 57;
  corpus::CorpusGenerator gen(copts);
  auto tables = gen.Generate();

  DatasetBuilder builder(context_);
  util::Rng rng2(3);
  Dataset fit = builder.Build(tables, &rng2);
  auto scaler = StandardizeSplits(&fit, nullptr);
  SatoPredictor predictor(&model, context_, scaler);

  // Same features and topic vector through the transient path and the
  // scratch-reusing path, for every table.
  SatoPredictor::Scratch scratch;
  for (const Table& t : tables) {
    if (t.num_columns() == 0) continue;
    util::Rng r1(11), r2(11);
    TableExample transient = predictor.Featurize(t, &r1);
    const TableExample& reused = predictor.FeaturizeInto(t, &r2, &scratch);
    ASSERT_EQ(transient.features.size(), reused.features.size());
    EXPECT_EQ(transient.topic, reused.topic) << t.id();
    for (size_t c = 0; c < transient.features.size(); ++c) {
      EXPECT_EQ(transient.features[c].char_features,
                reused.features[c].char_features);
      EXPECT_EQ(transient.features[c].word_features,
                reused.features[c].word_features);
      EXPECT_EQ(transient.features[c].para_features,
                reused.features[c].para_features);
      EXPECT_EQ(transient.features[c].stat_features,
                reused.features[c].stat_features);
    }
  }

  // Steady state: a second pass over the same tables grows nothing
  // (the scratch-pool counter is the zero-allocation contract).
  size_t growth_before = scratch.growth_events();
  size_t capacity_before = scratch.CapacityBytes();
  for (const Table& t : tables) {
    if (t.num_columns() == 0) continue;
    util::Rng r(11);
    predictor.FeaturizeInto(t, &r, &scratch);
  }
  EXPECT_EQ(scratch.growth_events(), growth_before);
  EXPECT_EQ(scratch.CapacityBytes(), capacity_before);
}

TEST_F(CoreIntegrationTest, PredictorTypeNamesAreCanonical) {
  util::Rng rng(43);
  SatoConfig quick = *config_;
  quick.epochs = 2;
  SatoModel model(SatoVariant::kBase, Dims(), context_->topic_dim(), quick,
                  &rng);
  Trainer trainer(quick);
  trainer.Train(&model, *train_, &rng);

  Dataset train_copy = *train_;
  auto scaler = StandardizeSplits(&train_copy, nullptr);
  SatoPredictor predictor(&model, context_, scaler);

  Table t = Table::FromCsv("h1,h2\nWarsaw,Poland\nLondon,England\n");
  auto names = predictor.PredictTypeNames(t, &rng);
  ASSERT_EQ(names.size(), 2u);
  const auto& registry = SemanticTypeRegistry::Instance();
  for (const auto& name : names) {
    EXPECT_TRUE(registry.Id(name).has_value()) << name;
  }
}

TEST_F(CoreIntegrationTest, ParallelDatasetBuildMatchesSequential) {
  corpus::CorpusOptions copts;
  copts.num_tables = 40;
  copts.seed = 77;
  corpus::CorpusGenerator gen(copts);
  auto tables = gen.Generate();
  DatasetBuilder builder(context_);
  util::Rng r1(9), r2(9);
  Dataset sequential = builder.Build(tables, &r1, /*threads=*/1);
  Dataset parallel = builder.Build(tables, &r2, /*threads=*/4);
  ASSERT_EQ(sequential.tables.size(), parallel.tables.size());
  for (size_t i = 0; i < sequential.tables.size(); ++i) {
    EXPECT_EQ(sequential.tables[i].id, parallel.tables[i].id);
    EXPECT_EQ(sequential.tables[i].labels, parallel.tables[i].labels);
    EXPECT_EQ(sequential.tables[i].topic, parallel.tables[i].topic);
    ASSERT_EQ(sequential.tables[i].features.size(),
              parallel.tables[i].features.size());
    for (size_t c = 0; c < sequential.tables[i].features.size(); ++c) {
      EXPECT_EQ(sequential.tables[i].features[c].char_features,
                parallel.tables[i].features[c].char_features);
      EXPECT_EQ(sequential.tables[i].features[c].stat_features,
                parallel.tables[i].features[c].stat_features);
    }
  }
}

TEST_F(CoreIntegrationTest, BundleRoundTripPreservesPredictions) {
  // Train a small full model, persist the entire deployable bundle,
  // restore it, and verify identical predictions on raw tables.
  util::Rng rng(51);
  SatoConfig quick = *config_;
  quick.epochs = 4;
  SatoModel model(SatoVariant::kFull, Dims(), context_->topic_dim(), quick,
                  &rng);
  Trainer trainer(quick);
  trainer.Train(&model, *train_, &rng);
  Dataset train_copy = *train_;
  auto scaler = StandardizeSplits(&train_copy, nullptr);

  std::stringstream ss;
  SaveSatoBundle(model, *context_, scaler, &ss, "release-7");
  LoadedSato loaded = LoadSatoBundle(&ss);
  ASSERT_NE(loaded.predictor, nullptr);
  EXPECT_EQ(loaded.model->variant(), SatoVariant::kFull);

  // The manifest rode along: version tag and a non-trivial content hash.
  EXPECT_EQ(loaded.manifest.tag, "release-7");
  EXPECT_NE(loaded.manifest.content_hash, 0u);

  SatoPredictor original(&model, context_, scaler);
  corpus::CorpusOptions copts;
  copts.num_tables = 12;
  copts.seed = 123;
  corpus::CorpusGenerator gen(copts);
  const std::vector<Table> tables = gen.Generate();
  for (const Table& t : tables) {
    util::Rng ra(3), rb(3);
    EXPECT_EQ(original.PredictTable(t, &ra),
              loaded.predictor->PredictTable(t, &rb))
        << t.id();
  }

  // The loaded predictor pins the model and the context, so it keeps
  // working after the bundle's own pointers are handed on or reset.
  std::weak_ptr<const SatoModel> weak_model = loaded.model;
  loaded.model.reset();
  loaded.context.reset();
  EXPECT_FALSE(weak_model.expired());
  for (const Table& t : tables) {
    util::Rng ra(3), rb(3);
    EXPECT_EQ(original.PredictTable(t, &ra),
              loaded.predictor->PredictTable(t, &rb))
        << t.id();
  }
}

// A bundle's bytes are a function of its contents: the padding of the
// SatoConfig it writes raw is zeroed, not copied from whatever memory the
// config and the model were built in.
TEST_F(CoreIntegrationTest, BundleBytesDoNotDependOnStructPadding) {
  Dataset train_copy = *train_;
  const auto scaler = StandardizeSplits(&train_copy, nullptr);
  auto save_from_memory_filled_with = [&](unsigned char fill) {
    alignas(SatoConfig) unsigned char config_storage[sizeof(SatoConfig)];
    std::memset(config_storage, fill, sizeof(config_storage));
    const SatoConfig* config = new (config_storage) SatoConfig;
    alignas(SatoModel) unsigned char model_storage[sizeof(SatoModel)];
    std::memset(model_storage, fill, sizeof(model_storage));
    util::Rng rng(61);
    SatoModel* model = new (model_storage) SatoModel(
        SatoVariant::kFull, Dims(), context_->topic_dim(), *config, &rng);
    std::stringstream ss;
    SaveSatoBundle(*model, *context_, scaler, &ss, "padding");
    model->~SatoModel();
    return ss.str();
  };
  const std::string zeroed = save_from_memory_filled_with(0x00);
  const std::string filled = save_from_memory_filled_with(0xAB);
  ASSERT_EQ(zeroed.size(), filled.size());
  const auto diff = std::mismatch(zeroed.begin(), zeroed.end(), filled.begin());
  EXPECT_TRUE(diff.first == zeroed.end())
      << "bundles differ at byte " << (diff.first - zeroed.begin());
}

// A flipped payload byte must fail the manifest's content hash loudly
// instead of decoding into silently-wrong weights. So must a well-formed
// payload behind the pre-manifest magic, a format nothing writes any more.
TEST_F(CoreIntegrationTest, CorruptedBundleFailsTheContentHash) {
  util::Rng rng(53);
  SatoConfig quick = *config_;
  quick.epochs = 1;
  SatoModel model(SatoVariant::kBase, Dims(), context_->topic_dim(), quick,
                  &rng);
  Dataset train_copy = *train_;
  auto scaler = StandardizeSplits(&train_copy, nullptr);

  std::stringstream ss;
  SaveSatoBundle(model, *context_, scaler, &ss);
  std::string bytes = ss.str();

  // Layout: magic(8) | tag_len(8) | tag | hash(8) | payload_size(8) |
  // payload. The pre-manifest layout was legacy_magic(8) | payload.
  uint64_t tag_len = 0;
  std::memcpy(&tag_len, bytes.data() + 8, sizeof(tag_len));
  constexpr uint64_t kLegacyMagic = 0x5341544f424e444cull;  // "SATOBNDL"
  std::string legacy(reinterpret_cast<const char*>(&kLegacyMagic),
                     sizeof(kLegacyMagic));
  legacy.append(bytes, 8 + 8 + tag_len + 8 + 8, std::string::npos);
  std::stringstream legacy_stream(legacy);
  EXPECT_THROW(LoadSatoBundle(&legacy_stream), std::runtime_error);

  bytes[bytes.size() - 64] ^= 0x40;  // deep inside the payload

  std::stringstream corrupted(bytes);
  EXPECT_THROW(LoadSatoBundle(&corrupted), std::runtime_error);
}

TEST_F(CoreIntegrationTest, PermutationImportanceIsMeaningful) {
  util::Rng rng(61);
  SatoModel model(SatoVariant::kNoStruct, Dims(), context_->topic_dim(),
                  *config_, &rng);
  Trainer trainer(*config_);
  trainer.Train(&model, *train_, &rng);

  eval::PermutationImportance importance(&model, *test_);
  util::Rng shuffle_rng(7);
  auto results = importance.Compute(
      {features::FeatureGroup::kTopic, features::FeatureGroup::kWord,
       features::FeatureGroup::kChar, features::FeatureGroup::kPara,
       features::FeatureGroup::kStat},
      /*trials=*/1, &shuffle_rng);
  ASSERT_EQ(results.size(), 5u);
  double max_importance = 0.0;
  for (const auto& r : results) {
    EXPECT_TRUE(std::isfinite(r.macro_importance));
    EXPECT_TRUE(std::isfinite(r.weighted_importance));
    // Shuffling can only hurt or be neutral up to noise.
    EXPECT_GT(r.weighted_importance, -10.0);
    max_importance = std::max(max_importance, r.weighted_importance);
  }
  // At least one feature group must matter to a trained model.
  EXPECT_GT(max_importance, 1.0);
}

TEST(ModelIoTest, LoadRejectsGarbage) {
  std::stringstream ss("this is not a sato bundle at all, sorry");
  EXPECT_THROW(LoadSatoBundle(&ss), std::runtime_error);
}

// A corrupted payload-length field must fail the plausibility bound with
// runtime_error before any allocation is attempted -- not bad_alloc.
TEST(ModelIoTest, LoadRejectsImplausiblePayloadLength) {
  std::stringstream ss;
  auto put_u64 = [&ss](uint64_t v) {
    ss.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u64(0x5341544f424e4432ull);  // v2 magic ("SATOBND2")
  put_u64(0);                      // empty tag
  put_u64(0);                      // content hash (never reached)
  put_u64(1ull << 40);             // absurd payload length
  try {
    LoadSatoBundle(&ss);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos);
  }
}

TEST_F(CoreIntegrationTest, TrainingIsDeterministicGivenSeeds) {
  util::Rng a1(77), a2(77);
  SatoConfig quick = *config_;
  quick.epochs = 3;
  SatoModel m1(SatoVariant::kBase, Dims(), context_->topic_dim(), quick, &a1);
  SatoModel m2(SatoVariant::kBase, Dims(), context_->topic_dim(), quick, &a2);
  Trainer trainer(quick);
  trainer.Train(&m1, *train_, &a1);
  trainer.Train(&m2, *train_, &a2);
  auto r1 = eval::EvaluateModel(&m1, *test_);
  auto r2 = eval::EvaluateModel(&m2, *test_);
  EXPECT_DOUBLE_EQ(r1.weighted_f1, r2.weighted_f1);
  EXPECT_DOUBLE_EQ(r1.macro_f1, r2.macro_f1);
}

}  // namespace
}  // namespace sato
