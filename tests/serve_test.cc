// Tests for the serving subsystem's building blocks: the ThreadPool, and
// PredictAll's guarantee that offline batch prediction through the
// PredictionService is byte-identical to a sequential SatoPredictor run
// for a fixed seed, at any worker count.

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/predictor.h"
#include "core/sato_model.h"
#include "corpus/generator.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/result_cache.h"
#include "serve/thread_pool.h"
#include "table/semantic_type.h"
#include "util/rng.h"

#include "gate_clock.h"

namespace sato {
namespace {

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPoolTest, ExecutesEveryTask) {
  serve::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter](size_t) { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  serve::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter](size_t worker) {
    EXPECT_EQ(worker, 0u);
    counter.fetch_add(1);
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WorkerIndicesAreInRange) {
  constexpr size_t kWorkers = 3;
  serve::ThreadPool pool(kWorkers);
  std::atomic<int> out_of_range{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&out_of_range](size_t worker) {
      if (worker >= kWorkers) out_of_range.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(out_of_range.load(), 0);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  serve::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter](size_t) { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 20 * (round + 1));
  }
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  serve::ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

// Regression: an exception escaping a task used to be swallowed by the
// worker and lost. The pool must capture the first escape and rethrow it
// on Wait() -- and still drain the rest of the queue.
TEST(ThreadPoolTest, WaitRethrowsAnEscapedTaskException) {
  serve::ThreadPool pool(2);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([](size_t) { throw std::runtime_error("task escape"); });
    pool.Submit([&survivors](size_t) { survivors.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(survivors.load(), 4);  // the escapes did not kill the workers
}

TEST(ThreadPoolTest, FirstEscapedExceptionWinsAndWaitClearsIt) {
  serve::ThreadPool pool(1);  // one worker: submission order = run order
  pool.Submit([](size_t) { throw std::runtime_error("first"); });
  pool.Submit([](size_t) { throw std::runtime_error("second"); });
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow the captured exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The rethrow consumed the error: the next cycle starts clean.
  std::atomic<int> counter{0};
  pool.Submit([&counter](size_t) { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

// ------------------------------------------------------------ PredictAll ----

using serve::ModelRegistry;
using serve::PredictAll;
using serve::PredictionService;
using serve::PredictionServiceOptions;

// Shares one small corpus + feature context across all offline prediction
// tests; models are untrained (random but seed-deterministic weights),
// which exercises the identical prediction path at a fraction of the cost.
class PredictAllTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 150;
    copts.singleton_prob = 0.2;
    copts.seed = 33;
    corpus::CorpusGenerator gen(copts);
    tables_ = new std::vector<Table>(gen.Generate());
    auto reference = gen.GenerateWith(120, 999);

    config_ = new SatoConfig();
    config_->num_topics = 8;
    util::Rng rng(11);
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

  static std::shared_ptr<const SatoModel> MakeModel(SatoVariant variant,
                                                    uint64_t seed) {
    ColumnwiseModel::Dims dims;
    dims.char_dim = context_->pipeline().char_dim();
    dims.word_dim = context_->pipeline().word_dim();
    dims.para_dim = context_->pipeline().para_dim();
    dims.stat_dim = context_->pipeline().stat_dim();
    util::Rng rng(seed);
    return std::make_shared<const SatoModel>(variant, dims,
                                             context_->topic_dim(), *config_,
                                             &rng);
  }

  // The sequential reference: SatoPredictor over each table in order, with
  // the same per-table seed stream PredictAll uses.
  static std::vector<std::vector<TypeId>> SequentialReference(
      const SatoModel& model, uint64_t seed) {
    SatoPredictor predictor(&model, context_.get(), *scaler_);
    std::vector<std::vector<TypeId>> out;
    out.reserve(tables_->size());
    for (size_t i = 0; i < tables_->size(); ++i) {
      util::Rng rng(util::TableSeed(seed, i));
      out.push_back(predictor.PredictTable((*tables_)[i], &rng));
    }
    return out;
  }

  static std::vector<Table>* tables_;
  static SatoConfig* config_;
  static std::shared_ptr<const FeatureContext> context_;
  static features::FeatureScaler* scaler_;
};

std::vector<Table>* PredictAllTest::tables_ = nullptr;
SatoConfig* PredictAllTest::config_ = nullptr;
std::shared_ptr<const FeatureContext> PredictAllTest::context_;
features::FeatureScaler* PredictAllTest::scaler_ = nullptr;

// Offline batch prediction: PredictAll over a PredictionService on a
// registry holding one published model must equal the sequential
// reference, at any worker count.
class BatchPredictorTest : public PredictAllTest {
 protected:
  static PredictionServiceOptions BatchOptions(size_t threads) {
    PredictionServiceOptions options;
    options.num_threads = threads;
    options.queue_capacity = tables_->size();
    return options;
  }
};

TEST_F(BatchPredictorTest, MatchesSequentialAcrossWorkerCounts) {
  constexpr uint64_t kSeed = 5;
  auto model = MakeModel(SatoVariant::kFull, 17);
  auto reference = SequentialReference(*model, kSeed);
  ASSERT_EQ(reference.size(), tables_->size());
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);

  for (size_t threads : {1u, 2u, 8u}) {
    PredictionService service(&registry, BatchOptions(threads));
    EXPECT_EQ(service.num_threads(), threads);
    EXPECT_EQ(PredictAll(&service, *tables_, kSeed), reference)
        << "thread count " << threads;
  }
}

TEST_F(BatchPredictorTest, MatchesSequentialForUnstructuredVariant) {
  constexpr uint64_t kSeed = 9;
  auto model = MakeModel(SatoVariant::kBase, 23);
  auto reference = SequentialReference(*model, kSeed);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);

  PredictionService service(&registry, BatchOptions(4));
  EXPECT_EQ(PredictAll(&service, *tables_, kSeed), reference);
}

// A second pass over the now warm workers equals the first.
TEST_F(BatchPredictorTest, RepeatedBatchesAreIdentical) {
  constexpr uint64_t kSeed = 5;
  ModelRegistry registry;
  registry.Publish(MakeModel(SatoVariant::kFull, 17), context_, *scaler_);

  PredictionService service(&registry, BatchOptions(2));
  auto first = PredictAll(&service, *tables_, kSeed);
  auto second = PredictAll(&service, *tables_, kSeed);
  EXPECT_EQ(first.size(), tables_->size());
  EXPECT_EQ(first, second);
}

TEST_F(BatchPredictorTest, EmptyBatchYieldsEmptyResult) {
  ModelRegistry registry;
  registry.Publish(MakeModel(SatoVariant::kFull, 17), context_, *scaler_);

  PredictionService service(&registry, BatchOptions(2));
  EXPECT_TRUE(PredictAll(&service, {}, 5).empty());
}

// Every table must be served: a request the admission queue rejects, or
// one whose prediction throws, fails the whole batch instead of leaving a
// gap in it.
TEST_F(PredictAllTest, ThrowsUnlessEveryTableIsServed) {
  ModelRegistry registry;
  registry.Publish(MakeModel(SatoVariant::kFull, 17), context_, *scaler_);

  {
    // queue_capacity 1, and the one slot is held by a blocker whose pickup
    // parks the only worker, so the whole batch is turned away.
    testutil::GateClock clock;
    PredictionServiceOptions options;
    options.num_threads = 1;
    options.queue_capacity = 1;
    options.clock = &clock;
    PredictionService service(&registry, options);
    serve::PredictionHandle blocker = service.Submit(
        (*tables_)[0], 1, testutil::GateClock::kHoldBudgetNanos);
    clock.AwaitHeld();
    EXPECT_THROW(PredictAll(&service, *tables_, 5), std::runtime_error);
    clock.Release();
    EXPECT_EQ(blocker.Get().status, serve::RequestStatus::kOk);
    EXPECT_EQ(service.Stats().rejected, tables_->size());
  }

  {
    serve::FaultPlan plan;
    plan.Set(serve::FaultPoint::kDispatchThrow, 1'000'000);
    serve::FaultInjector injector(/*seed=*/1, plan);
    PredictionServiceOptions options;
    options.queue_capacity = tables_->size();
    options.fault_injector = &injector;
    PredictionService service(&registry, options);
    try {
      PredictAll(&service, *tables_, 5);
      ADD_FAILURE() << "a failed prediction must fail the batch";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "injected dispatch fault");  // rethrown as is
    }
    service.Shutdown();
    EXPECT_EQ(service.Stats().failed, tables_->size());
  }
}

// Offline batches pin the version per request, so PredictAll checks that
// one version served them all: a publish that lands mid-batch throws.
TEST_F(PredictAllTest, ThrowsWhenABatchStraddlesAPublish) {
  ModelRegistry registry;
  registry.Publish(MakeModel(SatoVariant::kFull, 17), context_, *scaler_);
  serve::ResultCache cache;
  testutil::GateClock clock;
  PredictionServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = tables_->size() + 1;
  options.result_cache = &cache;
  options.clock = &clock;
  PredictionService service(&registry, options);

  // The batch's table 0 is answered from the cache on version 1. The only
  // worker is held at a blocker's pickup, so every later table is picked
  // up after version 2 is published.
  ASSERT_GT((*tables_)[0].num_columns(), 0u);
  ASSERT_EQ(service.Submit((*tables_)[0], util::TableSeed(5, 0))
                .Get()
                .model_version,
            1u);
  serve::PredictionHandle blocker = service.Submit(
      (*tables_)[1], 1, testutil::GateClock::kHoldBudgetNanos);
  clock.AwaitHeld();
  std::thread publisher([&] {
    while (service.Stats().submitted < tables_->size() + 2) {
      std::this_thread::yield();
    }
    registry.Publish(MakeModel(SatoVariant::kFull, 18), context_, *scaler_);
    clock.Release();
  });
  EXPECT_THROW(PredictAll(&service, *tables_, 5), std::runtime_error);
  publisher.join();
  EXPECT_EQ(blocker.Get().model_version, 2u);
}

// ------------------------------------------------ shared-model re-entrancy ----

// N threads call PredictProbs concurrently on ONE shared const SatoModel,
// each with its own Workspace; every output must be byte-identical to the
// single-threaded run. This is the property the whole serving design
// rests on: the Apply path writes nothing to the model.
TEST_F(PredictAllTest, ConcurrentPredictProbsOnSharedModelIsByteIdentical) {
  constexpr uint64_t kSeed = 41;
  constexpr size_t kThreads = 8;
  const auto model = MakeModel(SatoVariant::kFull, 29);
  const SatoPredictor predictor(model.get(), context_.get(), *scaler_);
  const size_t n = std::min<size_t>(64, tables_->size());

  // Sequential reference (fresh Rng per table, same seed stream).
  std::vector<nn::Matrix> reference(n);
  for (size_t i = 0; i < n; ++i) {
    util::Rng rng(util::TableSeed(kSeed, i));
    reference[i] = predictor.PredictProbs((*tables_)[i], &rng);
  }

  // Concurrent run over the same shared model: thread t owns workspace t
  // and the tables with index % kThreads == t.
  std::vector<nn::Matrix> concurrent(n);
  std::vector<nn::Workspace> workspaces(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kThreads) {
        util::Rng rng(util::TableSeed(kSeed, i));
        concurrent[i] =
            predictor.PredictProbs((*tables_)[i], &rng, &workspaces[t]);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(concurrent[i], reference[i]) << "table " << i;
  }
}

// Same property through SatoModel::Predict (CRF Viterbi decode included),
// re-running each thread's slice twice so workspace *reuse* is exercised
// under concurrency, not just first-touch.
TEST_F(PredictAllTest, ConcurrentPredictWithWorkspaceReuseMatches) {
  constexpr uint64_t kSeed = 43;
  constexpr size_t kThreads = 4;
  const auto model = MakeModel(SatoVariant::kFull, 17);
  const SatoPredictor predictor(model.get(), context_.get(), *scaler_);
  const size_t n = std::min<size_t>(40, tables_->size());

  std::vector<std::vector<TypeId>> reference(n);
  for (size_t i = 0; i < n; ++i) {
    util::Rng rng(util::TableSeed(kSeed, i));
    reference[i] = predictor.PredictTable((*tables_)[i], &rng);
  }

  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<TypeId>> concurrent(n);
    std::vector<nn::Workspace> workspaces(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < n; i += kThreads) {
          util::Rng rng(util::TableSeed(kSeed, i));
          concurrent[i] =
              predictor.PredictTable((*tables_)[i], &rng, &workspaces[t]);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(concurrent, reference) << "round " << round;
  }
}

}  // namespace
}  // namespace sato
