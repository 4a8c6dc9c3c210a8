// Unit battery for the versioned model registry (serve::ModelRegistry /
// serve::ModelBundle): monotonic version assignment, RCU pin semantics
// (old versions live exactly as long as their last pin), per-version
// served/retired stats, the bounded correction log (the AdaTyper
// adaptation hook), and concurrent publish/pin safety.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "corpus/generator.h"
#include "serve/model_registry.h"
#include "util/rng.h"

namespace sato {
namespace {

using serve::Correction;
using serve::ModelBundle;
using serve::ModelRegistry;
using serve::RegistryStats;

// One small corpus + feature context shared across every registry test;
// models are untrained (seed-deterministic random weights), which is all
// version management needs.
class ModelRegistryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 40;
    copts.singleton_prob = 0.2;
    copts.seed = 91;
    corpus::CorpusGenerator gen(copts);
    tables_ = new std::vector<Table>(gen.Generate());
    auto reference = gen.GenerateWith(60, 5151);

    config_ = new SatoConfig();
    config_->num_topics = 8;
    util::Rng rng(29);
    context_ = std::make_shared<const FeatureContext>(
        FeatureContext::Build(reference, *config_, &rng));

    DatasetBuilder builder(context_.get());
    Dataset train = builder.Build(*tables_, &rng);
    scaler_ = new features::FeatureScaler(StandardizeSplits(&train, nullptr));
  }

  static void TearDownTestSuite() {
    delete scaler_;
    context_.reset();
    delete config_;
    delete tables_;
  }

  static std::shared_ptr<const SatoModel> MakeModel(uint64_t seed) {
    ColumnwiseModel::Dims dims;
    dims.char_dim = context_->pipeline().char_dim();
    dims.word_dim = context_->pipeline().word_dim();
    dims.para_dim = context_->pipeline().para_dim();
    dims.stat_dim = context_->pipeline().stat_dim();
    util::Rng rng(seed);
    return std::make_shared<const SatoModel>(
        SatoVariant::kFull, dims, context_->topic_dim(), *config_, &rng);
  }

  static std::vector<Table>* tables_;
  static SatoConfig* config_;
  static std::shared_ptr<const FeatureContext> context_;
  static features::FeatureScaler* scaler_;
};

std::vector<Table>* ModelRegistryTest::tables_ = nullptr;
SatoConfig* ModelRegistryTest::config_ = nullptr;
std::shared_ptr<const FeatureContext> ModelRegistryTest::context_;
features::FeatureScaler* ModelRegistryTest::scaler_ = nullptr;

// ------------------------------------------------ publish & versioning ----

TEST_F(ModelRegistryTest, CurrentIsNullBeforeTheFirstPublish) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.current_version(), 0u);
  EXPECT_EQ(registry.PinVersion(1), nullptr);
  RegistryStats stats = registry.Stats();
  EXPECT_EQ(stats.published, 0u);
  EXPECT_TRUE(stats.versions.empty());
}

TEST_F(ModelRegistryTest, PublishAssignsMonotonicVersionsAndDefaultTags) {
  ModelRegistry registry;
  auto v1 = registry.Publish(MakeModel(1), context_, *scaler_,
                             "first");
  auto v2 = registry.Publish(MakeModel(2), context_, *scaler_);
  auto v3 = registry.Publish(MakeModel(3), context_, *scaler_);

  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v3->version(), 3u);
  EXPECT_EQ(v1->tag(), "first");
  EXPECT_EQ(v2->tag(), "v2");  // default tag derives from the version
  EXPECT_EQ(v3->tag(), "v3");

  EXPECT_EQ(registry.Current(), v3);
  EXPECT_EQ(registry.current_version(), 3u);
  RegistryStats stats = registry.Stats();
  EXPECT_EQ(stats.published, 3u);
  ASSERT_EQ(stats.versions.size(), 3u);
  EXPECT_EQ(stats.versions[0].tag, "first");
  EXPECT_EQ(stats.versions[1].version, 2u);
}

TEST_F(ModelRegistryTest, PublishRejectsNullComponents) {
  ModelRegistry registry;
  EXPECT_THROW(registry.Publish(nullptr, context_, *scaler_),
               std::invalid_argument);
  EXPECT_THROW(registry.Publish(MakeModel(1), nullptr, *scaler_),
               std::invalid_argument);
}

// ----------------------------------------------------- RCU pin lifetime ----

TEST_F(ModelRegistryTest, PinVersionRevivesLiveVersionsAndRefusesRetired) {
  ModelRegistry registry;
  auto v1 = registry.Publish(MakeModel(1), context_, *scaler_);
  registry.Publish(MakeModel(2), context_, *scaler_);

  // v1 is superseded but still pinned by us: PinVersion can revive it.
  auto pinned = registry.PinVersion(1);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned, v1);

  // Unknown versions (and version 0) pin nothing.
  EXPECT_EQ(registry.PinVersion(0), nullptr);
  EXPECT_EQ(registry.PinVersion(99), nullptr);

  // Drop every pin on v1: it retires, and the registry refuses to
  // resurrect it (it holds only a weak reference).
  pinned.reset();
  v1.reset();
  EXPECT_EQ(registry.PinVersion(1), nullptr);
  EXPECT_NE(registry.PinVersion(2), nullptr);  // current stays pinnable
}

TEST_F(ModelRegistryTest, SupersededBundleIsDestroyedWhenItsLastPinDrops) {
  ModelRegistry registry;
  std::weak_ptr<const SatoModel> model_alive;
  std::weak_ptr<const ModelBundle> bundle_alive;
  {
    auto model = MakeModel(7);
    model_alive = model;
    auto v1 = registry.Publish(std::move(model), context_, *scaler_);
    bundle_alive = v1;
  }  // our pin dropped; the registry's current_ keeps v1 alive

  EXPECT_FALSE(bundle_alive.expired());
  EXPECT_FALSE(model_alive.expired());

  registry.Publish(MakeModel(8), context_, *scaler_);
  // Superseded with no remaining pins: the bundle AND the model it owned
  // are gone -- publish never leaks retired versions.
  EXPECT_TRUE(bundle_alive.expired());
  EXPECT_TRUE(model_alive.expired());

  RegistryStats stats = registry.Stats();
  ASSERT_EQ(stats.versions.size(), 2u);
  EXPECT_TRUE(stats.versions[0].retired);
  EXPECT_FALSE(stats.versions[1].retired);
}

TEST_F(ModelRegistryTest, ServedCountsSurviveRetirement) {
  ModelRegistry registry;
  {
    auto v1 = registry.Publish(MakeModel(7), context_, *scaler_);
    v1->RecordServed(5);
    EXPECT_EQ(v1->served(), 5u);
  }
  registry.Publish(MakeModel(8), context_, *scaler_);

  RegistryStats stats = registry.Stats();
  ASSERT_EQ(stats.versions.size(), 2u);
  EXPECT_EQ(stats.versions[0].served, 5u);  // outlives the bundle
  EXPECT_TRUE(stats.versions[0].retired);
  EXPECT_EQ(stats.versions[1].served, 0u);
}

// ------------------------------------------------- bundle -> prediction ----

TEST_F(ModelRegistryTest, BundlePredictorMatchesARawPredictorByteForByte) {
  ModelRegistry registry;
  const auto model = MakeModel(11);
  auto bundle = registry.Publish(model, context_, *scaler_, "ref");

  SatoPredictor raw(model.get(), context_.get(), *scaler_);
  for (size_t i = 0; i < 5 && i < tables_->size(); ++i) {
    util::Rng bundle_rng(17 + i);
    util::Rng raw_rng(17 + i);
    EXPECT_EQ(bundle->predictor().PredictTable((*tables_)[i], &bundle_rng),
              raw.PredictTable((*tables_)[i], &raw_rng))
        << "table " << i;
  }
}

// ------------------------------------------------------ correction log ----

TEST_F(ModelRegistryTest, CorrectionLogIsBoundedAndCountsDrops) {
  ModelRegistry registry;
  registry.set_max_corrections(2);
  EXPECT_EQ(registry.max_corrections(), 2u);

  EXPECT_TRUE(registry.SubmitCorrection({"name", 3, 1}));
  EXPECT_TRUE(registry.SubmitCorrection({"city", 4, 1}));
  // Third append evicts the oldest entry (visible in corrections_dropped)
  // but is still ACCEPTED -- false is reserved for "not durably recorded"
  // when a WAL is attached, so an eviction must never look like a failure.
  EXPECT_TRUE(registry.SubmitCorrection({"year", 5, 2}));

  std::vector<Correction> log = registry.Corrections();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].column_name, "city");  // oldest retained first
  EXPECT_EQ(log[1].column_name, "year");
  EXPECT_EQ(log[1].corrected_type, 5);
  EXPECT_EQ(log[1].model_version, 2u);

  RegistryStats stats = registry.Stats();
  EXPECT_EQ(stats.corrections_submitted, 3u);
  EXPECT_EQ(stats.corrections_dropped, 1u);
}

TEST_F(ModelRegistryTest, ShrinkingTheCorrectionBoundEvictsImmediately) {
  ModelRegistry registry;
  for (int i = 0; i < 4; ++i) {
    registry.SubmitCorrection({"col" + std::to_string(i), i, 1});
  }
  registry.set_max_corrections(1);
  std::vector<Correction> log = registry.Corrections();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].column_name, "col3");  // newest survives
  EXPECT_EQ(registry.Stats().corrections_dropped, 3u);
}

// --------------------------------------------------------- concurrency ----

// Publishers and pinning readers race freely: every reader must always
// observe a fully-constructed bundle with a version the registry really
// assigned, and RecordServed must never lose a count. (This is the suite
// the TSAN CI job leans on for the registry's memory ordering.)
TEST_F(ModelRegistryTest, ConcurrentPublishAndPinIsSafe) {
  constexpr int kPublishers = 2;
  constexpr int kPerPublisher = 8;
  constexpr int kReaders = 4;
  ModelRegistry registry;
  const auto model = MakeModel(13);
  registry.Publish(model, context_, *scaler_, "seed");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_iterations{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kPublishers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerPublisher; ++i) {
        registry.Publish(model, context_, *scaler_);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto bundle = registry.Current();
        ASSERT_NE(bundle, nullptr);
        ASSERT_GE(bundle->version(), 1u);
        ASSERT_LE(bundle->version(),
                  1u + kPublishers * static_cast<uint64_t>(kPerPublisher));
        bundle->RecordServed();
        auto pinned = registry.PinVersion(bundle->version());
        // The version we pin is alive by construction -- we hold it.
        ASSERT_EQ(pinned, bundle);
        reader_iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < kPublishers; ++p) threads[p].join();
  // On a single-core host the publishers can finish before any reader is
  // even scheduled; don't stop until at least one read really happened.
  while (reader_iterations.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kPublishers; t < threads.size(); ++t) threads[t].join();

  const uint64_t expected = 1u + kPublishers * kPerPublisher;
  EXPECT_EQ(registry.current_version(), expected);
  RegistryStats stats = registry.Stats();
  EXPECT_EQ(stats.published, expected);
  uint64_t served = 0;
  for (const auto& v : stats.versions) served += v.served;
  EXPECT_GE(served, 1u);  // readers recorded against real versions
}

}  // namespace
}  // namespace sato
