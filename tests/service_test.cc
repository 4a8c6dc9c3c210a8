// Concurrency battery for the online serving frontend
// (serve::PredictionService): multi-producer determinism, dispatch on
// Submit with no timer anywhere on the request path (fake clocks, no real
// sleeps anywhere in this suite), backpressure on the bounded admission
// queue, graceful shutdown semantics, counter accounting, and RCU hot swap
// under live traffic (mid-stream publishes, per-request version pinning,
// bundle retirement, context re-binding).

#include <algorithm>
#include <chrono>
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
#include "serve/clock.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/result_cache.h"
#include "table/table.h"
#include "util/rng.h"

#include "gate_clock.h"

namespace sato {
namespace {

using serve::FakeClock;
using serve::ModelBundle;
using serve::ModelRegistry;
using serve::PredictionHandle;
using serve::PredictionService;
using serve::PredictionServiceOptions;
using serve::RequestStatus;
using testutil::GateClock;

constexpr uint64_t kMillisecond = 1'000'000;  // service clocks run in nanos

// Shares one small corpus + feature context across every service test;
// models are untrained (random but seed-deterministic weights), which
// exercises the identical prediction path at a fraction of the cost.
class PredictionServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus::CorpusOptions copts;
    copts.num_tables = 80;
    copts.singleton_prob = 0.2;
    copts.seed = 71;
    corpus::CorpusGenerator gen(copts);
    tables_ = new std::vector<Table>(gen.Generate());
    auto reference = gen.GenerateWith(100, 4242);

    config_ = new SatoConfig();
    config_->num_topics = 8;
    util::Rng rng(19);
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

  /// The determinism oracle: a sequential SatoPredictor run over `table`
  /// with the request's own seed -- what every service response must be
  /// byte-identical to, regardless of scheduling or workers.
  static std::vector<TypeId> Sequential(
      const std::shared_ptr<const SatoModel>& model, const Table& table,
      uint64_t seed) {
    SatoPredictor predictor(model.get(), context_.get(), *scaler_);
    util::Rng rng(seed);
    return predictor.PredictTable(table, &rng);
  }

  /// Sequential oracle against an explicit context/scaler (the hot-swap
  /// tests serve bundles whose featurization state differs per version).
  static std::vector<TypeId> SequentialWith(
      const std::shared_ptr<const SatoModel>& model,
      const std::shared_ptr<const FeatureContext>& context,
      const features::FeatureScaler& scaler, const Table& table,
      uint64_t seed) {
    SatoPredictor predictor(model.get(), context.get(), scaler);
    util::Rng rng(seed);
    return predictor.PredictTable(table, &rng);
  }

  static PredictionServiceOptions FakeClockOptions(serve::Clock* clock) {
    PredictionServiceOptions options;
    options.num_threads = 1;
    options.clock = clock;
    return options;
  }

  static std::vector<Table>* tables_;
  static SatoConfig* config_;
  static std::shared_ptr<const FeatureContext> context_;
  static features::FeatureScaler* scaler_;
};

std::vector<Table>* PredictionServiceTest::tables_ = nullptr;
SatoConfig* PredictionServiceTest::config_ = nullptr;
std::shared_ptr<const FeatureContext> PredictionServiceTest::context_;
features::FeatureScaler* PredictionServiceTest::scaler_ = nullptr;

// ------------------------------------------- multi-producer determinism ----

// N client threads submit M requests each (random tables, per-request
// splitmix64 seed streams) against every worker count, in bursts of 1, 4
// or all M requests before the client collects its handles; every
// response must be byte-identical to the sequential oracle. The queue
// depth and the worker each request lands on differ wildly across these
// configs, the outputs may not.
TEST_F(PredictionServiceTest, StressMatchesSequentialAcrossWorkersAndBatches) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 10;
  constexpr size_t kTotal = kClients * kPerClient;
  constexpr uint64_t kBase = 77;
  const auto model = MakeModel(17);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);

  // Fixed randomized workload: request r predicts a random corpus table
  // with the seed stream TableSeed(kBase, r).
  util::Rng pick(9001);
  std::vector<size_t> table_of(kTotal);
  std::vector<std::vector<TypeId>> expected(kTotal);
  for (size_t r = 0; r < kTotal; ++r) {
    table_of[r] = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(tables_->size()) - 1));
    expected[r] = Sequential(model, (*tables_)[table_of[r]],
                             util::TableSeed(kBase, r));
  }

  for (size_t workers : {1u, 2u, 8u}) {
    for (size_t burst : {size_t{1}, size_t{4}, kPerClient}) {
      PredictionServiceOptions options;
      options.num_threads = workers;
      PredictionService service(&registry, options);

      std::vector<PredictionHandle> handles(kTotal);
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (size_t j = 0; j < kPerClient; ++j) {
            const size_t r = c * kPerClient + j;
            handles[r] =
                service.Submit((*tables_)[table_of[r]],
                               util::TableSeed(kBase, r));
            if ((j + 1) % burst == 0) {
              // End of a burst: wait for it before submitting the next.
              for (size_t k = r + 1 - burst; k <= r; ++k) handles[k].Get();
            }
          }
        });
      }
      for (auto& client : clients) client.join();

      for (size_t r = 0; r < kTotal; ++r) {
        const serve::PredictionResult& result = handles[r].Get();
        ASSERT_EQ(result.status, RequestStatus::kOk)
            << "workers " << workers << " burst " << burst << " request " << r;
        EXPECT_EQ(result.type_ids, expected[r])
            << "workers " << workers << " burst " << burst << " request " << r;
      }
      service.Shutdown();

      const serve::ServiceStats stats = service.Stats();
      EXPECT_EQ(stats.accepted, kTotal);
      EXPECT_EQ(stats.completed, kTotal);
      EXPECT_EQ(stats.rejected, 0u);
      EXPECT_EQ(stats.outstanding, 0u);
    }
  }
}

// ------------------------------------------------- dispatch on Submit ----

// A lone request completes on a FakeClock that is never advanced: nothing
// on the request path waits on a timer.
TEST_F(PredictionServiceTest, LoneRequestCompletesWithoutTheClockMoving) {
  const auto model = MakeModel(23);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);
  FakeClock clock;
  PredictionService service(&registry, FakeClockOptions(&clock));

  PredictionHandle handle = service.Submit((*tables_)[0], 5);
  const serve::PredictionResult& result = handle.Get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(result.type_ids, Sequential(model, (*tables_)[0], 5));
  EXPECT_EQ(clock.NowNanos(), 0u);
  EXPECT_EQ(service.Stats().completed, 1u);
}

// After Shutdown() nothing waits on the clock: the fake clock has no
// parked waiters, advancing time fires nothing, and new submissions are
// turned away with kShutdown.
TEST_F(PredictionServiceTest, NoTimerFiresAfterShutdown) {
  const auto model = MakeModel(23);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);
  FakeClock clock;
  PredictionService service(&registry, FakeClockOptions(&clock));

  PredictionHandle queued = service.Submit((*tables_)[1], 9);
  service.Shutdown();  // drains: the queued request completes

  EXPECT_EQ(queued.Get().status, RequestStatus::kOk);
  EXPECT_EQ(queued.Get().type_ids, Sequential(model, (*tables_)[1], 9));
  EXPECT_EQ(clock.waiter_count(), 0u);

  const serve::ServiceStats before = service.Stats();
  clock.AdvanceNanos(100 * kMillisecond);  // nothing is listening
  const serve::ServiceStats after = service.Stats();
  EXPECT_EQ(after.completed, before.completed);

  PredictionHandle late = service.Submit((*tables_)[1], 9);
  EXPECT_TRUE(late.Done());  // resolved immediately, no hang
  EXPECT_EQ(late.Get().status, RequestStatus::kShutdown);
  EXPECT_TRUE(late.Get().type_ids.empty());
  EXPECT_EQ(service.Stats().rejected_shutdown, 1u);
}

// ------------------------------------------------------- backpressure ----

// Filling the bounded admission queue rejects overflow immediately (never
// a hang or a crash), and completing the queued requests frees admission
// slots again. The single worker is held at the first request's pickup,
// so the other two wait in the pool queue.
TEST_F(PredictionServiceTest, OverflowIsRejectedAndDrainingResumesAdmission) {
  const auto model = MakeModel(31);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);
  GateClock clock;
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.queue_capacity = 3;
  PredictionService service(&registry, options);

  std::vector<PredictionHandle> admitted;
  admitted.push_back(service.Submit((*tables_)[0], util::TableSeed(11, 0),
                                    GateClock::kHoldBudgetNanos));
  clock.AwaitHeld();  // the worker is parked at request 0's pickup
  for (size_t i = 1; i < 3; ++i) {
    admitted.push_back(service.Submit(
        (*tables_)[i], util::TableSeed(11, i)));
  }

  PredictionHandle overflow = service.Submit((*tables_)[3], 1);
  EXPECT_TRUE(overflow.Done());  // resolved at Submit, no hang
  EXPECT_EQ(overflow.Get().status, RequestStatus::kRejected);
  EXPECT_TRUE(overflow.Get().type_ids.empty());

  serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.outstanding, 3u);

  // Drain: releasing the worker lets every admitted request complete
  // correctly despite the overflow in between.
  clock.Release();
  for (size_t i = 0; i < 3; ++i) {
    const serve::PredictionResult& result = admitted[i].Get();
    EXPECT_EQ(result.status, RequestStatus::kOk);
    EXPECT_EQ(result.type_ids,
              Sequential(model, (*tables_)[i],
                         util::TableSeed(11, i)));
  }

  // Admission has resumed: the next submit is served, not rejected.
  PredictionHandle resumed = service.Submit((*tables_)[4], 2);
  EXPECT_EQ(resumed.Get().status, RequestStatus::kOk);
  EXPECT_EQ(resumed.Get().type_ids, Sequential(model, (*tables_)[4], 2));
  EXPECT_EQ(service.Stats().rejected, 1u);  // the one overflow, no more
}

// Shutdown with requests still queued behind a held worker: every queued
// request completes (with the correct bytes), and submissions after
// shutdown are rejected.
TEST_F(PredictionServiceTest, ShutdownWhileQueuedCompletesQueuedRequests) {
  constexpr size_t kQueued = 6;
  const auto model = MakeModel(31);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);
  GateClock clock;
  PredictionService service(&registry, FakeClockOptions(&clock));

  std::vector<PredictionHandle> handles;
  for (size_t i = 0; i < kQueued; ++i) {
    handles.push_back(service.Submit(
        (*tables_)[i], util::TableSeed(13, i),
        i == 0 ? GateClock::kHoldBudgetNanos : 0));
    if (i == 0) clock.AwaitHeld();  // the other five wait in the pool queue
  }
  std::thread shutdown([&service] { service.Shutdown(); });
  clock.Release();
  shutdown.join();

  for (size_t i = 0; i < kQueued; ++i) {
    const serve::PredictionResult& result = handles[i].Get();
    EXPECT_EQ(result.status, RequestStatus::kOk) << "request " << i;
    EXPECT_EQ(result.type_ids,
              Sequential(model, (*tables_)[i],
                         util::TableSeed(13, i)))
        << "request " << i;
  }
  EXPECT_EQ(service.Stats().completed, kQueued);

  PredictionHandle late = service.Submit((*tables_)[0], 1);
  EXPECT_EQ(late.Get().status, RequestStatus::kShutdown);
}

// ----------------------------------------------------------- hot swap ----

// Every response names the registry version that produced it, and a
// rejected request -- which never reached a model -- reports version 0,
// which no bundle carries.
TEST_F(PredictionServiceTest, ResponsesCarryTheProducingModelVersion) {
  const auto model = MakeModel(37);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_, "only");

  FakeClock clock;
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.queue_capacity = 1;
  PredictionService service(&registry, options);

  EXPECT_EQ(registry.current_version(), 1u);
  EXPECT_EQ(registry.Current()->tag(), "only");
  EXPECT_EQ(service.registry(), &registry);

  PredictionHandle handle = service.Submit((*tables_)[0], 5);
  const serve::PredictionResult& result = handle.Get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_EQ(result.model_version, 1u);
  EXPECT_EQ(result.type_ids, Sequential(model, (*tables_)[0], 5));

  // Overflow rejection never reaches a model: version 0.
  PredictionHandle a = service.Submit((*tables_)[1], 6);
  PredictionHandle b = service.Submit((*tables_)[1], 6);
  const serve::PredictionResult& rejected =
      a.Get().status == RequestStatus::kRejected ? a.Get() : b.Get();
  if (rejected.status == RequestStatus::kRejected) {
    EXPECT_EQ(rejected.model_version, 0u);
  }
  service.Shutdown();
}

// Serving a registry with nothing published is a configuration error.
TEST_F(PredictionServiceTest, ConstructionRequiresAPublishedVersion) {
  ModelRegistry empty;
  PredictionServiceOptions options;
  EXPECT_THROW(PredictionService(&empty, options), std::invalid_argument);
  EXPECT_THROW(PredictionService(nullptr, options), std::invalid_argument);
}

// The swap battery: three versions with DIFFERENT weights roll out while
// multi-producer closed-loop clients hammer the service, at 1/2/8 workers.
// Asserts (a) every response's model_version was actually published,
// (b) every response is byte-identical to the sequential predictor on
// exactly that version, (c) no request is dropped or hangs across a
// Publish, (d) a request submitted after the last publish serves on it,
// and (e) the superseded first bundle is destroyed once drained -- its
// last pin, not the publish, is what frees it.
TEST_F(PredictionServiceTest, HotSwapUnderLoadStaysDeterministicPerVersion) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 12;
  constexpr size_t kTotal = kClients * kPerClient;
  constexpr uint64_t kBase = 101;
  const auto model_a = MakeModel(41);
  const auto model_b = MakeModel(42);
  const auto model_c = MakeModel(43);
  const std::shared_ptr<const SatoModel> models[] = {model_a, model_b,
                                                     model_c};

  util::Rng pick(2024);
  std::vector<size_t> table_of(kTotal);
  for (size_t r = 0; r < kTotal; ++r) {
    table_of[r] = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(tables_->size()) - 1));
  }

  for (size_t workers : {1u, 2u, 8u}) {
    ModelRegistry registry;
    registry.Publish(model_a, context_, *scaler_, "A");
    std::weak_ptr<const ModelBundle> v1_alive = registry.Current();

    PredictionServiceOptions options;
    options.num_threads = workers;
    PredictionService service(&registry, options);

    // The rollout is ordered by construction, so the test observes exactly
    // two swaps on any schedule. Each client submits its first third on A,
    // holds its middle third until B is published and its last third
    // until C is published. The publisher rolls out B once the first
    // thirds have completed, and C only once a worker has pinned B (a
    // swap is recorded). Without those gates B and C could both land
    // before any worker pinned B, and the dispatch path would cross a
    // single swap. Every wait is bounded, so a broken premise fails the
    // test instead of hanging it.
    auto wait_until = [](const char* what, auto&& done) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (!done()) {
        if (std::chrono::steady_clock::now() > give_up) {
          ADD_FAILURE() << "timed out waiting for " << what;
          return;
        }
        std::this_thread::yield();
      }
    };
    std::thread publisher([&] {
      wait_until("the first third to complete", [&] {
        return service.Stats().completed >= kTotal / 3;
      });
      registry.Publish(model_b, context_, *scaler_, "B");
      wait_until("a worker to pin B",
                 [&] { return service.Stats().model_swaps >= 1; });
      registry.Publish(model_c, context_, *scaler_, "C");
    });

    std::vector<PredictionHandle> handles(kTotal);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t j = 0; j < kPerClient; ++j) {
          const uint64_t version = 1 + 3 * j / kPerClient;  // A, B, C
          wait_until("a version to be published", [&] {
            return registry.current_version() >= version;
          });
          const size_t r = c * kPerClient + j;
          handles[r] =
              service.Submit((*tables_)[table_of[r]],
                             util::TableSeed(kBase, r));
          handles[r].Get();  // closed loop: next submit after completion
        }
      });
    }
    for (auto& client : clients) client.join();
    publisher.join();

    // Submitted strictly after Publish(C) returned: must serve version 3.
    PredictionHandle epilogue = service.Submit((*tables_)[0], 7);
    EXPECT_EQ(epilogue.Get().status, RequestStatus::kOk);
    EXPECT_EQ(epilogue.Get().model_version, 3u);
    EXPECT_EQ(epilogue.Get().type_ids, Sequential(model_c, (*tables_)[0], 7));

    size_t on_first = 0, on_later = 0;
    for (size_t r = 0; r < kTotal; ++r) {
      const serve::PredictionResult& result = handles[r].Get();
      ASSERT_EQ(result.status, RequestStatus::kOk)
          << "workers " << workers << " request " << r;
      ASSERT_GE(result.model_version, 1u) << "request " << r;
      ASSERT_LE(result.model_version, 3u) << "request " << r;
      (result.model_version == 1 ? on_first : on_later) += 1;
      EXPECT_EQ(result.type_ids,
                Sequential(models[result.model_version - 1],
                           (*tables_)[table_of[r]],
                           util::TableSeed(kBase, r)))
          << "workers " << workers << " request " << r << " version "
          << result.model_version;
    }
    // The first thirds were all served before B was published, hence on
    // A; the last thirds were all submitted after C was published.
    EXPECT_GE(on_first, 1u) << "workers " << workers;
    EXPECT_GE(on_later, 1u) << "workers " << workers;

    service.Shutdown();
    const serve::ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.completed, kTotal + 1);  // nothing dropped, nothing hung
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.model_swaps, 2u);  // each publish counted exactly once

    // Superseded and fully drained: the first bundle's last pin has
    // dropped, so it is gone -- and the registry refuses to revive it.
    EXPECT_TRUE(v1_alive.expired()) << "workers " << workers;
    EXPECT_EQ(registry.PinVersion(1), nullptr);
    serve::RegistryStats rstats = registry.Stats();
    ASSERT_EQ(rstats.versions.size(), 3u);
    EXPECT_TRUE(rstats.versions[0].retired);
    EXPECT_FALSE(rstats.versions[2].retired);
    // Every ok response was recorded against some version.
    uint64_t served = 0;
    for (const auto& v : rstats.versions) served += v.served;
    EXPECT_EQ(served, kTotal + 1);
  }
}

// A swap that replaces the FEATURE CONTEXT (not just the weights): worker
// token dictionaries are keyed to the old context, so the service must
// re-bind scratches on the next request -- and back again when the old
// context returns. Responses around both swaps stay byte-identical to
// sequential predictors built on the matching context.
TEST_F(PredictionServiceTest, ContextSwapRebindsWorkerScratches) {
  const auto model_a = MakeModel(51);

  // An independently built featurization state: different reference
  // corpus, so different vocabulary, TF-IDF and LDA parameters.
  corpus::CorpusOptions copts;
  copts.num_tables = 40;
  copts.seed = 333;
  corpus::CorpusGenerator gen(copts);
  auto reference_b = gen.GenerateWith(60, 777);
  util::Rng rng_b(57);
  auto context_b = std::make_shared<const FeatureContext>(
      FeatureContext::Build(reference_b, *config_, &rng_b));
  DatasetBuilder builder(context_b.get());
  auto corpus_b = gen.Generate();
  Dataset train_b = builder.Build(corpus_b, &rng_b);
  features::FeatureScaler scaler_b = StandardizeSplits(&train_b, nullptr);
  ColumnwiseModel::Dims dims_b;
  dims_b.char_dim = context_b->pipeline().char_dim();
  dims_b.word_dim = context_b->pipeline().word_dim();
  dims_b.para_dim = context_b->pipeline().para_dim();
  dims_b.stat_dim = context_b->pipeline().stat_dim();
  util::Rng mrng(58);
  auto model_b = std::make_shared<const SatoModel>(
      SatoVariant::kFull, dims_b, context_b->topic_dim(), *config_, &mrng);

  ModelRegistry registry;
  registry.Publish(model_a, context_, *scaler_, "ctx-a");

  PredictionServiceOptions options;
  options.num_threads = 2;
  PredictionService service(&registry, options);

  auto roundtrip = [&](size_t i, uint64_t seed) -> serve::PredictionResult {
    return service.Submit((*tables_)[i], seed).Get();
  };

  // Warm the worker dictionaries on context A.
  for (size_t i = 0; i < 6; ++i) {
    serve::PredictionResult r = roundtrip(i, 60 + i);
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.model_version, 1u);
    EXPECT_EQ(r.type_ids,
              SequentialWith(model_a, context_, *scaler_, (*tables_)[i],
                             60 + i));
  }

  // Swap to context B: every worker must re-key its token dictionary.
  registry.Publish(model_b, context_b, scaler_b, "ctx-b");
  for (size_t i = 0; i < 6; ++i) {
    serve::PredictionResult r = roundtrip(i, 70 + i);
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.model_version, 2u);
    EXPECT_EQ(r.type_ids,
              SequentialWith(model_b, context_b, scaler_b, (*tables_)[i],
                             70 + i));
  }

  // And back to context A (a fresh version): re-binding is symmetric, no
  // stale dictionary state survives the round trip.
  registry.Publish(model_a, context_, *scaler_, "ctx-a-again");
  for (size_t i = 0; i < 6; ++i) {
    serve::PredictionResult r = roundtrip(i, 80 + i);
    EXPECT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.model_version, 3u);
    EXPECT_EQ(r.type_ids,
              SequentialWith(model_a, context_, *scaler_, (*tables_)[i],
                             80 + i));
  }
  service.Shutdown();
  EXPECT_EQ(service.Stats().model_swaps, 2u);
}

// The version is pinned per request, at pickup: a Publish between two
// Submits gives each response its own version, and each response is
// byte-identical to the sequential predictor on exactly that version.
TEST_F(PredictionServiceTest, PublishBetweenSubmitsPinsEachRequestToItsVersion) {
  const auto model_a = MakeModel(61);
  const auto model_b = MakeModel(62);
  ModelRegistry registry;
  registry.Publish(model_a, context_, *scaler_, "A");
  FakeClock clock;
  PredictionService service(&registry, FakeClockOptions(&clock));

  const serve::PredictionResult first = service.Submit((*tables_)[2], 3).Get();
  registry.Publish(model_b, context_, *scaler_, "B");
  const serve::PredictionResult second =
      service.Submit((*tables_)[2], 3).Get();

  ASSERT_EQ(first.status, RequestStatus::kOk);
  ASSERT_EQ(second.status, RequestStatus::kOk);
  EXPECT_EQ(first.model_version, 1u);
  EXPECT_EQ(second.model_version, 2u);
  EXPECT_EQ(first.type_ids, Sequential(model_a, (*tables_)[2], 3));
  EXPECT_EQ(second.type_ids, Sequential(model_b, (*tables_)[2], 3));
  EXPECT_EQ(service.Stats().model_swaps, 1u);
}

// Every Submit ends in exactly one counter: completed (served, failed,
// shed, or a cache hit), rejected, or rejected_shutdown. Exercised with
// all of them at once: cache hits, misses, overflow behind a held worker,
// and submissions after Shutdown.
TEST_F(PredictionServiceTest, CountersAddUpAcrossEveryOutcome) {
  const auto model = MakeModel(67);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);
  serve::ResultCache cache;
  GateClock clock;
  PredictionServiceOptions options = FakeClockOptions(&clock);
  options.queue_capacity = 2;
  options.result_cache = &cache;
  PredictionService service(&registry, options);

  std::vector<PredictionHandle> handles;
  handles.push_back(
      service.Submit((*tables_)[0], 1, GateClock::kHoldBudgetNanos));
  clock.AwaitHeld();
  handles.push_back(service.Submit((*tables_)[1], 2));
  handles.push_back(service.Submit((*tables_)[2], 3));  // over capacity
  handles.push_back(service.Submit((*tables_)[3], 4));  // over capacity
  clock.Release();
  for (const PredictionHandle& h : handles) h.Get();
  handles.push_back(service.Submit((*tables_)[0], 1));  // cache hit
  handles.push_back(service.Submit(Table(), 5));        // empty table
  service.Shutdown();
  handles.push_back(service.Submit((*tables_)[4], 6));  // after shutdown

  size_t ok = 0, rejected = 0, shutdown = 0;
  for (const PredictionHandle& h : handles) {
    switch (h.Get().status) {
      case RequestStatus::kOk: ++ok; break;
      case RequestStatus::kRejected: ++rejected; break;
      case RequestStatus::kShutdown: ++shutdown; break;
      default: ADD_FAILURE() << serve::RequestStatusName(h.Get().status);
    }
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(shutdown, 1u);

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, handles.size());
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.rejected_shutdown);
  EXPECT_EQ(stats.accepted, stats.completed);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.rejected_shutdown, shutdown);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

// --------------------------------------------------------- small edges ----

TEST_F(PredictionServiceTest, EmptyTableResolvesOkWithNoTypes) {
  const auto model = MakeModel(23);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);
  FakeClock clock;
  PredictionService service(&registry, FakeClockOptions(&clock));

  PredictionHandle handle = service.Submit(Table(), 7);
  const serve::PredictionResult& result = handle.Get();
  EXPECT_EQ(result.status, RequestStatus::kOk);
  EXPECT_TRUE(result.type_ids.empty());
}

TEST_F(PredictionServiceTest, DestructorDrainsAdmittedRequests) {
  const auto model = MakeModel(23);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);
  std::vector<PredictionHandle> handles;
  {
    PredictionServiceOptions options;  // real SteadyClock
    options.num_threads = 2;
    PredictionService service(&registry, options);
    for (size_t i = 0; i < 6; ++i) {
      handles.push_back(service.Submit(
          (*tables_)[i], util::TableSeed(29, i)));
    }
    // No Shutdown() call: the destructor must drain.
  }
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(handles[i].Done());
    EXPECT_EQ(handles[i].Get().status, RequestStatus::kOk);
    EXPECT_EQ(handles[i].Get().type_ids,
              Sequential(model, (*tables_)[i],
                         util::TableSeed(29, i)));
  }
}

TEST_F(PredictionServiceTest, ShutdownIsIdempotent) {
  const auto model = MakeModel(23);
  ModelRegistry registry;
  registry.Publish(model, context_, *scaler_);
  PredictionServiceOptions options;
  PredictionService service(&registry, options);
  service.Shutdown();
  service.Shutdown();  // must not hang or crash
  SUCCEED();
}

TEST(PredictionHandleTest, EmptyHandleThrows) {
  PredictionHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_THROW(handle.Get(), std::logic_error);
  EXPECT_THROW(handle.Done(), std::logic_error);
}

TEST(RequestStatusTest, NamesAreStable) {
  EXPECT_STREQ(serve::RequestStatusName(RequestStatus::kOk), "ok");
  EXPECT_STREQ(serve::RequestStatusName(RequestStatus::kRejected), "rejected");
  EXPECT_STREQ(serve::RequestStatusName(RequestStatus::kShutdown), "shutdown");
  EXPECT_STREQ(serve::RequestStatusName(RequestStatus::kFailed), "failed");
}

// --------------------------------------------------- fake clock basics ----

TEST(FakeClockTest, AdvanceMovesTimeMonotonically) {
  FakeClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.AdvanceNanos(5);
  clock.AdvanceNanos(7);
  EXPECT_EQ(clock.NowNanos(), 12u);
  EXPECT_EQ(clock.waiter_count(), 0u);
}

}  // namespace
}  // namespace sato
