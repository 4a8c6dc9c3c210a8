// Throughput benchmark for the serving subsystem: offline batch
// prediction (serve::PredictAll) over synthetic corpus tables at
// increasing worker counts (tables/s, columns/s, speedup over the
// single-thread run), plus an online mode that drives the
// PredictionService with closed-loop simulated clients and reports
// request latency percentiles and the rejected-request count.
//
// The model is architecture-complete but untrained (training changes the
// weights, not the FLOPs), so the numbers isolate the featurise +
// forward + Viterbi serving path the PredictionService parallelises.
// Every worker shares the one model through the const Apply() path. The
// whole result table goes to BENCH_serve.json so the serving perf
// trajectory is machine-readable across commits.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/predictor.h"
#include "features/config.h"
#include "nn/gemm.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sato::bench {
namespace {

/// Command-line knobs (see main): the Zipfian replay shape and whether to
/// skip the offline sweep.
struct BenchFlags {
  double zipf_s = 1.0;       ///< --zipf-s: replay skew (1.0 = classic Zipf)
  size_t replay = 0;         ///< --replay: request count (0 = 8x tables)
  size_t cache_entries = 4096;  ///< --cache-entries: result cache capacity
  bool online_only = false;  ///< --online: skip the offline batch sweep
};

/// The benchmarked model, owned so that every phase can publish it into
/// a registry of its own.
struct ServedModel {
  std::shared_ptr<const SatoModel> model;
  std::shared_ptr<const FeatureContext> context;
  features::FeatureScaler scaler;
};

struct ServeResult {
  size_t threads;
  double seconds;
  double tables_per_sec;
  double columns_per_sec;
};

/// Wall time of each serving phase over one full batch at a given worker
/// count: featurization (tokenize-once fast path), the column-wise network
/// forward pass, and CRF decoding (Viterbi minus the shared forward).
/// Workers split the tables round-robin with per-worker predictor state,
/// mirroring the PredictionService's table-parallel design.
struct PhaseBreakdown {
  size_t threads;
  double featurize_sec;
  double nn_sec;
  double crf_sec;
};

PhaseBreakdown MeasurePhases(const ServedModel& served,
                             const std::vector<Table>& tables, size_t threads,
                             int trials) {
  const SatoModel& model = *served.model;
  struct Worker {
    SatoPredictor predictor;
    SatoPredictor::Scratch scratch;
    nn::Workspace ws;
    std::vector<TableExample> examples;  // this worker's featurised share
    explicit Worker(const ServedModel& s)
        : predictor(s.model.get(), s.context.get(), s.scaler) {}
  };
  std::vector<std::unique_ptr<Worker>> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.push_back(std::make_unique<Worker>(served));
  }

  // Each phase runs for every worker concurrently; the measured time is
  // the wall-clock of the slowest worker (barrier semantics, like one
  // PredictAll pass).
  auto run_parallel = [&](const std::function<void(size_t)>& fn) {
    if (threads == 1) {
      fn(0);
      return;
    }
    std::vector<std::thread> ts;
    ts.reserve(threads);
    for (size_t w = 0; w < threads; ++w) ts.emplace_back(fn, w);
    for (auto& t : ts) t.join();
  };

  // Featurised batch for the network/decoder phases, split round-robin.
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].num_columns() == 0) continue;
    Worker& w = *workers[i % threads];
    util::Rng rng(util::TableSeed(1, i));
    w.examples.push_back(w.predictor.Featurize(tables[i], &rng));
  }

  auto featurize_pass = [&](size_t wi) {
    Worker& w = *workers[wi];
    for (size_t i = wi; i < tables.size(); i += threads) {
      if (tables[i].num_columns() == 0) continue;
      util::Rng rng(util::TableSeed(1, i));
      w.predictor.FeaturizeInto(tables[i], &rng, &w.scratch);
    }
  };
  auto probs_pass = [&](size_t wi) {
    Worker& w = *workers[wi];
    for (const TableExample& e : w.examples) model.PredictProbs(e, &w.ws);
  };
  auto predict_pass = [&](size_t wi) {
    Worker& w = *workers[wi];
    for (const TableExample& e : w.examples) model.Predict(e, &w.ws);
  };

  // Warm-up (scratch/workspace high-water, page faults).
  run_parallel(featurize_pass);
  run_parallel(predict_pass);

  util::Timer timer;
  for (int t = 0; t < trials; ++t) run_parallel(featurize_pass);
  double featurize = timer.ElapsedSeconds() / trials;

  timer.Reset();
  for (int t = 0; t < trials; ++t) run_parallel(probs_pass);
  double nn = timer.ElapsedSeconds() / trials;

  timer.Reset();
  for (int t = 0; t < trials; ++t) run_parallel(predict_pass);
  double predict = timer.ElapsedSeconds() / trials;

  return PhaseBreakdown{threads, featurize, nn, std::max(0.0, predict - nn)};
}

/// One online measurement: closed-loop clients against the
/// PredictionService (each client submits its next table only after its
/// previous response arrived), so offered concurrency == `clients`.
struct OnlineResult {
  size_t clients;
  size_t workers;
  size_t requests;
  double seconds;
  double tables_per_sec;
  serve::ServiceStats stats;  // latency percentiles, rejects
};

OnlineResult MeasureOnline(const ServedModel& served,
                           const std::vector<Table>& tables, size_t clients,
                           size_t workers, int trials) {
  serve::ModelRegistry registry;
  registry.Publish(served.model, served.context, served.scaler, "online");
  serve::PredictionServiceOptions options;
  options.num_threads = workers;
  options.queue_capacity = 1024;
  serve::PredictionService service(&registry, options);

  auto run_closed_loop = [&] {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < tables.size(); i += clients) {
          service.Submit(tables[i], util::TableSeed(1, i))
              .Get();
        }
      });
    }
    for (auto& t : threads) t.join();
  };

  run_closed_loop();        // warm-up (first-touch, scratch high-water)
  service.ResetStats();     // keep warm-up samples out of the percentiles

  util::Timer timer;
  for (int t = 0; t < trials; ++t) run_closed_loop();
  double seconds = timer.ElapsedSeconds();

  OnlineResult result;
  result.clients = clients;
  result.workers = workers;
  result.requests = tables.size() * static_cast<size_t>(trials);
  result.seconds = seconds;
  result.tables_per_sec = static_cast<double>(result.requests) / seconds;
  service.Shutdown();
  result.stats = service.Stats();
  return result;
}

/// Hot-swap measurement: the same closed loop as MeasureOnline, but every
/// `swap_every`-th submission publishes a new registry version (the same
/// model again -- swaps isolate the registry/pinning overhead, not model
/// quality). Reports publish latency, how many responses straddled a swap
/// (came back on a different version than was current at submit time),
/// and the latency percentiles under swapping, to compare against the
/// swap-free online run.
struct SwapResult {
  size_t clients;
  size_t workers;
  size_t swap_every;
  size_t requests;
  double seconds;
  double tables_per_sec;
  uint64_t versions_published;
  uint64_t swaps_observed;     // requests that first pinned a new version
  uint64_t straddled;          // responses on a version != submit-time one
  double publish_p50_us;
  double publish_max_us;
  serve::ServiceStats stats;
};

SwapResult MeasureSwap(const ServedModel& served,
                       const std::vector<Table>& tables, size_t clients,
                       size_t workers, size_t swap_every, int trials) {
  serve::ModelRegistry registry;
  registry.Publish(served.model, served.context, served.scaler, "bench-v1");

  serve::PredictionServiceOptions options;
  options.num_threads = workers;
  options.queue_capacity = 1024;
  serve::PredictionService service(&registry, options);

  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> straddled{0};
  std::mutex publish_mutex;
  std::vector<double> publish_us;

  auto run_closed_loop = [&](bool measure) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < tables.size(); i += clients) {
          if (++submitted % swap_every == 0) {
            util::Timer publish_timer;
            registry.Publish(served.model, served.context, served.scaler);
            if (measure) {
              double us = publish_timer.ElapsedSeconds() * 1e6;
              std::lock_guard<std::mutex> lock(publish_mutex);
              publish_us.push_back(us);
            }
          }
          uint64_t at_submit = registry.current_version();
          serve::PredictionResult r =
              service.Submit(tables[i], util::TableSeed(1, i))
                  .Get();
          if (measure && r.status == serve::RequestStatus::kOk &&
              r.model_version != at_submit) {
            straddled.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  };

  run_closed_loop(false);  // warm-up
  service.ResetStats();

  util::Timer timer;
  for (int t = 0; t < trials; ++t) run_closed_loop(true);
  double seconds = timer.ElapsedSeconds();
  service.Shutdown();

  std::sort(publish_us.begin(), publish_us.end());
  SwapResult result;
  result.clients = clients;
  result.workers = workers;
  result.swap_every = swap_every;
  result.requests = tables.size() * static_cast<size_t>(trials);
  result.seconds = seconds;
  result.tables_per_sec = static_cast<double>(result.requests) / seconds;
  result.versions_published = registry.current_version();
  result.stats = service.Stats();
  result.swaps_observed = result.stats.model_swaps;
  result.straddled = straddled.load();
  result.publish_p50_us =
      publish_us.empty() ? 0.0 : publish_us[publish_us.size() / 2];
  result.publish_max_us = publish_us.empty() ? 0.0 : publish_us.back();
  return result;
}

/// Zipfian replay through the content-addressed result cache: the same
/// request trace (skewed table popularity, per-table deterministic seeds)
/// is served twice by closed-loop clients -- once cold (no cache), once
/// with the cache in front -- and every response of the cached run must be
/// byte-identical to its cold twin. Effective speedup is the whole point
/// of the cache, so it is the headline number.
struct CacheReplayResult {
  double zipf_s;
  size_t replay_requests;
  size_t distinct_tables;
  size_t clients;
  size_t workers;
  double cold_seconds;
  double cached_seconds;
  double cold_tables_per_sec;
  double cached_tables_per_sec;
  double speedup;
  bool parity_ok;
  uint64_t hits;
  uint64_t misses;
  serve::ResultCacheStats cache_stats;
};

CacheReplayResult MeasureCacheReplay(const ServedModel& served,
                                     const std::vector<Table>& tables,
                                     double zipf_s, size_t replay_requests,
                                     size_t cache_entries, size_t clients,
                                     size_t workers) {
  // One trace, generated up front, so cold and cached runs serve the
  // exact same sequence. Zipf rank r maps to table r: table 0 is the
  // most popular, matching the skew real table catalogs show.
  util::Rng trace_rng(99);
  std::vector<size_t> trace(replay_requests);
  for (size_t& t : trace) t = trace_rng.Zipf(tables.size(), zipf_s);

  serve::ServiceStats service_stats;
  auto run = [&](serve::ResultCache* cache,
                 std::vector<std::vector<TypeId>>* responses) {
    serve::ModelRegistry registry;
    registry.Publish(served.model, served.context, served.scaler, "replay");
    serve::PredictionServiceOptions options;
    options.num_threads = workers;
    options.queue_capacity = 1024;
    options.result_cache = cache;
    serve::PredictionService service(&registry, options);

    responses->assign(trace.size(), {});
    util::Timer timer;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t r = c; r < trace.size(); r += clients) {
          size_t i = trace[r];
          serve::PredictionResult result =
              service.Submit(tables[i], util::TableSeed(1, i))
                  .Get();
          (*responses)[r] = std::move(result.type_ids);  // disjoint slots
        }
      });
    }
    for (auto& t : threads) t.join();
    double seconds = timer.ElapsedSeconds();
    service.Shutdown();
    service_stats = service.Stats();
    return seconds;
  };

  std::vector<std::vector<TypeId>> cold_responses;
  std::vector<std::vector<TypeId>> cached_responses;
  double cold_seconds = run(nullptr, &cold_responses);

  serve::ResultCacheOptions cache_options;
  cache_options.capacity_entries = cache_entries;
  serve::ResultCache cache(cache_options);
  double cached_seconds = run(&cache, &cached_responses);

  CacheReplayResult result;
  result.zipf_s = zipf_s;
  result.replay_requests = replay_requests;
  result.distinct_tables = tables.size();
  result.clients = clients;
  result.workers = workers;
  result.cold_seconds = cold_seconds;
  result.cached_seconds = cached_seconds;
  result.cold_tables_per_sec =
      static_cast<double>(replay_requests) / cold_seconds;
  result.cached_tables_per_sec =
      static_cast<double>(replay_requests) / cached_seconds;
  result.speedup = result.cached_tables_per_sec / result.cold_tables_per_sec;
  result.parity_ok = cold_responses == cached_responses;
  result.hits = service_stats.cache_hits;
  result.misses = service_stats.cache_misses;
  result.cache_stats = cache.Stats();
  return result;
}

/// The same replay through the real network front door: framed requests
/// over loopback TCP against a live Server, so the datapoint includes
/// codec + socket + per-connection thread costs, not just the service.
struct DaemonResult {
  size_t clients;
  size_t requests;
  double seconds;
  double requests_per_sec;
  double mean_request_ms;  // server-side parse -> response-written wall time
  uint64_t cache_hits;
  uint64_t responses_ok;
};

DaemonResult MeasureDaemon(const ServedModel& served,
                           const std::vector<Table>& tables, double zipf_s,
                           size_t requests, size_t cache_entries,
                           size_t clients, size_t workers) {
  util::Rng trace_rng(99);
  std::vector<size_t> trace(requests);
  for (size_t& t : trace) t = trace_rng.Zipf(tables.size(), zipf_s);

  serve::ModelRegistry registry;
  registry.Publish(served.model, served.context, served.scaler, "daemon");
  serve::ResultCacheOptions cache_options;
  cache_options.capacity_entries = cache_entries;
  serve::ResultCache cache(cache_options);
  serve::PredictionServiceOptions options;
  options.num_threads = workers;
  options.result_cache = &cache;
  serve::PredictionService service(&registry, options);
  serve::Server server(&service, serve::ServerOptions{});

  std::atomic<uint64_t> ok{0};
  util::Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::wire::Client client;
      if (!client.Connect(server.host(), server.port())) return;
      for (size_t r = c; r < trace.size(); r += clients) {
        size_t i = trace[r];
        serve::wire::ClientResponse response = client.Predict(
            tables[i], util::TableSeed(1, i));
        if (response.transport_ok &&
            response.body.status == serve::wire::WireStatus::kOk) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  double seconds = timer.ElapsedSeconds();
  serve::ServerStats stats = server.Stats();
  server.Shutdown();
  service.Shutdown();

  DaemonResult result;
  result.clients = clients;
  result.requests = requests;
  result.seconds = seconds;
  result.requests_per_sec = static_cast<double>(requests) / seconds;
  result.mean_request_ms =
      stats.requests_measured == 0
          ? 0.0
          : static_cast<double>(stats.request_nanos_total) /
                static_cast<double>(stats.requests_measured) / 1e6;
  result.cache_hits = stats.cache_hits;
  result.responses_ok = ok.load();
  return result;
}

/// Resilience datapoint: the daemon loopback replay run twice with
/// retrying, deadline-bounded clients -- once fault-free, once under a
/// seeded ~1% injected-fault schedule across every fault point -- so the
/// JSON records what faults cost in tail latency and how many requests
/// the retry/shed machinery saved vs surrendered.
struct ResilienceResult {
  size_t clients;
  size_t requests;
  uint64_t fault_ppm;           // per-point injection rate of the faulty run
  uint64_t injected_faults;     // total injections actually fired
  uint64_t retries;             // client retries (faulty run)
  uint64_t deadline_exceeded;   // requests shed by the service (faulty run)
  uint64_t typed_errors;        // non-kOk typed responses (faulty run)
  uint64_t transport_failures;  // retry budget exhausted (faulty run)
  uint64_t responses_ok;        // kOk responses (faulty run)
  double p50_ms_fault_free;
  double p99_ms_fault_free;
  double p50_ms_faulty;
  double p99_ms_faulty;
};

ResilienceResult MeasureResilience(const ServedModel& served,
                                   const std::vector<Table>& tables,
                                   size_t requests, size_t clients,
                                   size_t workers) {
  constexpr uint64_t kFaultPpm = 10'000;  // 1% at every fault point

  struct PassResult {
    std::vector<uint64_t> latencies_nanos;  // client-side, per request
    uint64_t ok = 0;
    uint64_t typed_errors = 0;
    uint64_t transport_failures = 0;
    uint64_t retries = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t injected = 0;
  };

  auto run_pass = [&](serve::FaultInjector* injector) {
    serve::ModelRegistry registry;
    registry.Publish(served.model, served.context, served.scaler, "resilience");
    serve::ResultCacheOptions cache_options;
    cache_options.capacity_entries = 1024;
    cache_options.fault_injector = injector;
    serve::ResultCache cache(cache_options);
    serve::PredictionServiceOptions options;
    options.num_threads = workers;
    options.result_cache = &cache;
    options.fault_injector = injector;
    serve::PredictionService service(&registry, options);
    serve::ServerOptions server_options;
    server_options.fault_injector = injector;
    serve::Server server(&service, server_options);

    PassResult pass;
    std::mutex mutex;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::wire::Client client;
        client.set_fault_injector(injector);
        serve::wire::RetryPolicy policy;
        policy.max_attempts = 3;
        policy.initial_backoff_nanos = 200'000;
        policy.max_backoff_nanos = 5'000'000;
        policy.jitter_fraction = 0.2;
        policy.jitter_seed = 7 + c;
        policy.request_deadline_nanos = 50'000'000;  // 50 ms end to end
        client.set_retry_policy(policy);
        if (!client.Connect(server.host(), server.port())) return;
        std::vector<uint64_t> latencies;
        uint64_t ok = 0, typed = 0, transport = 0;
        for (size_t r = c; r < requests; r += clients) {
          size_t i = r % tables.size();
          util::Timer timer;
          serve::wire::ClientResponse response = client.Predict(
              tables[i], util::TableSeed(2, r));
          latencies.push_back(
              static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9));
          if (response.transport_ok &&
              response.body.status == serve::wire::WireStatus::kOk) {
            ++ok;
          } else if (response.transport_ok) {
            ++typed;
          } else {
            ++transport;
          }
        }
        std::lock_guard<std::mutex> lock(mutex);
        pass.latencies_nanos.insert(pass.latencies_nanos.end(),
                                    latencies.begin(), latencies.end());
        pass.ok += ok;
        pass.typed_errors += typed;
        pass.transport_failures += transport;
        pass.retries += client.total_retries();
      });
    }
    for (auto& t : threads) t.join();
    server.Shutdown();
    service.Shutdown();
    pass.deadline_exceeded = service.Stats().deadline_exceeded;
    if (injector != nullptr) {
      pass.injected = injector->Stats().total_injected();
    }
    std::sort(pass.latencies_nanos.begin(), pass.latencies_nanos.end());
    return pass;
  };

  auto percentile_ms = [](const std::vector<uint64_t>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
    index = std::min(index, sorted.size() - 1);
    return static_cast<double>(sorted[index]) / 1e6;
  };

  PassResult clean = run_pass(nullptr);
  serve::FaultPlan plan;
  plan.SetAll(kFaultPpm);
  plan.stall_nanos = 1'000'000;  // 1 ms injected stalls
  serve::FaultInjector injector(/*seed=*/2026, plan);
  PassResult faulty = run_pass(&injector);

  ResilienceResult result;
  result.clients = clients;
  result.requests = requests;
  result.fault_ppm = kFaultPpm;
  result.injected_faults = faulty.injected;
  result.retries = faulty.retries;
  result.deadline_exceeded = faulty.deadline_exceeded;
  result.typed_errors = faulty.typed_errors;
  result.transport_failures = faulty.transport_failures;
  result.responses_ok = faulty.ok;
  result.p50_ms_fault_free = percentile_ms(clean.latencies_nanos, 0.50);
  result.p99_ms_fault_free = percentile_ms(clean.latencies_nanos, 0.99);
  result.p50_ms_faulty = percentile_ms(faulty.latencies_nanos, 0.50);
  result.p99_ms_faulty = percentile_ms(faulty.latencies_nanos, 0.99);
  return result;
}

ServeResult MeasureThroughput(const ServedModel& served,
                              const std::vector<Table>& tables,
                              size_t num_columns, size_t threads,
                              int trials) {
  serve::ModelRegistry registry;
  registry.Publish(served.model, served.context, served.scaler, "throughput");
  serve::PredictionServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity = tables.size();
  serve::PredictionService service(&registry, options);

  // Warm-up pass (first-touch, page faults).
  serve::PredictAll(&service, tables, /*base_seed=*/1);

  util::Timer timer;
  for (int t = 0; t < trials; ++t) {
    serve::PredictAll(&service, tables, /*base_seed=*/1);
  }
  double seconds = timer.ElapsedSeconds() / trials;
  double tables_per_sec = static_cast<double>(tables.size()) / seconds;
  double columns_per_sec = static_cast<double>(num_columns) / seconds;
  return ServeResult{threads, seconds, tables_per_sec, columns_per_sec};
}

void WritePhaseEntry(std::FILE* f, const PhaseBreakdown& p, bool last) {
  double total = p.featurize_sec + p.nn_sec + p.crf_sec;
  std::fprintf(f,
               "    {\"threads\": %zu, \"featurize_sec\": %.6f, "
               "\"nn_sec\": %.6f, \"crf_sec\": %.6f, "
               "\"featurize_frac\": %.3f}%s\n",
               p.threads, p.featurize_sec, p.nn_sec, p.crf_sec,
               total > 0.0 ? p.featurize_sec / total : 0.0, last ? "" : ",");
}

void WriteJson(const char* path, const BenchEnv& env,
               const std::vector<ServeResult>& results,
               const std::vector<PhaseBreakdown>& phases,
               const OnlineResult& online,
               const SwapResult& swap, const CacheReplayResult& replay,
               const DaemonResult& daemon, const ResilienceResult& resilience,
               size_t model_bytes, size_t num_tables, size_t num_columns) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"serve\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", env.scale.name.c_str());
  std::fprintf(f, "  \"tables\": %zu,\n", num_tables);
  std::fprintf(f, "  \"columns\": %zu,\n", num_columns);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"model_bytes\": %zu,\n", model_bytes);
  std::fprintf(f, "  \"per_call_model_copies\": 0,\n");
  // Which kernels the runtime dispatch selected on this host -- the
  // datapoints below are meaningless without them.
  std::fprintf(f, "  \"featurize_kernel\": \"%s\",\n",
               features::KernelName().c_str());
  std::fprintf(f, "  \"gemm_kernel\": \"%s\",\n",
               nn::gemm::KernelName().c_str());
  std::fprintf(f, "  \"phase_breakdown\": [\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    WritePhaseEntry(f, phases[i], i + 1 == phases.size());
  }
  std::fprintf(f, "  ],\n");
  // Online serving datapoint: latency percentiles (ms) and the
  // rejected-request count from the closed-loop client run.
  std::fprintf(f,
               "  \"online\": {\"clients\": %zu, \"worker_threads\": %zu, "
               "\"requests\": %zu, \"rejected\": %llu,\n",
               online.clients, online.workers, online.requests,
               static_cast<unsigned long long>(online.stats.rejected));
  std::fprintf(f,
               "    \"latency_ms\": {\"p50\": %.4f, \"p95\": %.4f, "
               "\"p99\": %.4f},\n",
               static_cast<double>(online.stats.latency_p50_nanos) / 1e6,
               static_cast<double>(online.stats.latency_p95_nanos) / 1e6,
               static_cast<double>(online.stats.latency_p99_nanos) / 1e6);
  std::fprintf(f, "    \"tables_per_sec\": %.2f},\n", online.tables_per_sec);
  // Hot-swap datapoint: registry publish latency, responses that straddled
  // a swap (in flight across a Publish), and the p99 delta against the
  // swap-free online run above -- the cost of zero-downtime rollout.
  std::fprintf(f,
               "  \"swap\": {\"clients\": %zu, \"worker_threads\": %zu, "
               "\"swap_every\": %zu, \"requests\": %zu, "
               "\"versions_published\": %llu, \"swaps_observed\": %llu, "
               "\"straddled_requests\": %llu,\n",
               swap.clients, swap.workers, swap.swap_every, swap.requests,
               static_cast<unsigned long long>(swap.versions_published),
               static_cast<unsigned long long>(swap.swaps_observed),
               static_cast<unsigned long long>(swap.straddled));
  std::fprintf(f,
               "    \"publish_latency_us\": {\"p50\": %.2f, \"max\": %.2f},\n",
               swap.publish_p50_us, swap.publish_max_us);
  std::fprintf(f,
               "    \"latency_ms\": {\"p50\": %.4f, \"p95\": %.4f, "
               "\"p99\": %.4f},\n",
               static_cast<double>(swap.stats.latency_p50_nanos) / 1e6,
               static_cast<double>(swap.stats.latency_p95_nanos) / 1e6,
               static_cast<double>(swap.stats.latency_p99_nanos) / 1e6);
  std::fprintf(f, "    \"p99_delta_ms_vs_no_swap\": %.4f,\n",
               (static_cast<double>(swap.stats.latency_p99_nanos) -
                static_cast<double>(online.stats.latency_p99_nanos)) /
                   1e6);
  std::fprintf(f, "    \"tables_per_sec\": %.2f},\n", swap.tables_per_sec);
  // Content-addressed result cache under Zipfian replay: the same trace
  // served cold and cached; parity_ok asserts every cached response was
  // byte-identical to its cold twin.
  std::fprintf(f,
               "  \"cache\": {\"zipf_s\": %.2f, \"replay_requests\": %zu, "
               "\"distinct_tables\": %zu, \"clients\": %zu, "
               "\"worker_threads\": %zu, \"capacity_entries\": %zu, "
               "\"shards\": %zu,\n",
               replay.zipf_s, replay.replay_requests, replay.distinct_tables,
               replay.clients, replay.workers,
               replay.cache_stats.capacity_entries, replay.cache_stats.shards);
  std::fprintf(f,
               "    \"hit_rate\": %.4f, \"hits\": %llu, \"misses\": %llu, "
               "\"evictions\": %llu, \"bytes\": %llu,\n",
               replay.cache_stats.hit_rate,
               static_cast<unsigned long long>(replay.hits),
               static_cast<unsigned long long>(replay.misses),
               static_cast<unsigned long long>(replay.cache_stats.evictions),
               static_cast<unsigned long long>(replay.cache_stats.bytes));
  std::fprintf(f,
               "    \"cold_tables_per_sec\": %.2f, "
               "\"cached_tables_per_sec\": %.2f, \"speedup_vs_cold\": %.2f, "
               "\"parity_ok\": %s},\n",
               replay.cold_tables_per_sec, replay.cached_tables_per_sec,
               replay.speedup, replay.parity_ok ? "true" : "false");
  // The same replay through the network daemon (loopback TCP + framing).
  std::fprintf(f,
               "  \"daemon\": {\"clients\": %zu, \"requests\": %zu, "
               "\"responses_ok\": %llu, \"requests_per_sec\": %.2f, "
               "\"mean_request_ms\": %.4f, \"cache_hits\": %llu},\n",
               daemon.clients, daemon.requests,
               static_cast<unsigned long long>(daemon.responses_ok),
               daemon.requests_per_sec, daemon.mean_request_ms,
               static_cast<unsigned long long>(daemon.cache_hits));
  // Daemon under a seeded ~1% injected-fault schedule vs fault-free, with
  // retrying deadline-bounded clients: what faults cost in tail latency
  // and how the shed/retry counters split the losses.
  std::fprintf(f,
               "  \"resilience\": {\"clients\": %zu, \"requests\": %zu, "
               "\"fault_ppm\": %llu, \"injected_faults\": %llu, "
               "\"retries\": %llu, \"deadline_exceeded\": %llu, "
               "\"typed_errors\": %llu, \"transport_failures\": %llu, "
               "\"responses_ok\": %llu,\n",
               resilience.clients, resilience.requests,
               static_cast<unsigned long long>(resilience.fault_ppm),
               static_cast<unsigned long long>(resilience.injected_faults),
               static_cast<unsigned long long>(resilience.retries),
               static_cast<unsigned long long>(resilience.deadline_exceeded),
               static_cast<unsigned long long>(resilience.typed_errors),
               static_cast<unsigned long long>(resilience.transport_failures),
               static_cast<unsigned long long>(resilience.responses_ok));
  std::fprintf(f,
               "    \"latency_ms_fault_free\": {\"p50\": %.4f, "
               "\"p99\": %.4f},\n",
               resilience.p50_ms_fault_free, resilience.p99_ms_fault_free);
  std::fprintf(f,
               "    \"latency_ms_faulty\": {\"p50\": %.4f, "
               "\"p99\": %.4f}},\n",
               resilience.p50_ms_faulty, resilience.p99_ms_faulty);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ServeResult& r = results[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"sec_per_batch\": %.6f, "
                 "\"tables_per_sec\": %.2f, \"columns_per_sec\": %.2f}%s\n",
                 r.threads, r.seconds, r.tables_per_sec, r.columns_per_sec,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_serve: wrote %s\n", path);
}

int Run(const BenchFlags& flags) {
  BenchEnv env = BuildEnv(/*seed=*/7);

  // Standardise a copy of D to fit the serving scaler (prediction-time
  // tables must be scaled like the training split).
  Dataset train = env.dataset_d;
  util::Rng rng(13);
  ServedModel served;
  served.scaler = StandardizeSplits(&train, nullptr);
  served.model = std::make_shared<const SatoModel>(
      SatoVariant::kFull, env.dims, env.context.topic_dim(), env.config, &rng);
  served.context = std::make_shared<const FeatureContext>(
      std::move(env.context));

  const std::vector<Table>& tables = env.tables_dmult;
  size_t num_columns = 0;
  for (const Table& t : tables) num_columns += t.num_columns();
  size_t model_bytes = served.model->ParameterBytes();
  std::printf("bench_serve: %zu multi-column tables (%zu columns), "
              "hardware threads = %u, shared model = %.2f MiB\n",
              tables.size(), num_columns,
              std::thread::hardware_concurrency(),
              static_cast<double>(model_bytes) / (1024.0 * 1024.0));

  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  int trials = std::max(1, env.scale.trials);

  std::vector<ServeResult> results;
  std::vector<PhaseBreakdown> phases;
  if (!flags.online_only) {
    std::printf("%8s  %10s  %12s  %13s  %8s\n", "threads", "sec/batch",
                "tables/sec", "columns/sec", "speedup");
    PrintRule(60);
    double base_throughput = 0.0;
    for (size_t threads : thread_counts) {
      ServeResult r =
          MeasureThroughput(served, tables, num_columns, threads, trials);
      if (threads == 1) base_throughput = r.tables_per_sec;
      std::printf("%8zu  %10.3f  %12.1f  %13.1f  %7.2fx\n", r.threads,
                  r.seconds, r.tables_per_sec, r.columns_per_sec,
                  r.tables_per_sec / base_throughput);
      results.push_back(r);
    }

    for (size_t threads : thread_counts) {
      phases.push_back(MeasurePhases(served, tables, threads, trials));
      const PhaseBreakdown& p = phases.back();
      double phase_total = p.featurize_sec + p.nn_sec + p.crf_sec;
      std::printf("phase breakdown (%zu thread%s): featurize %.3fs (%.0f%%), "
                  "nn %.3fs, crf %.3fs\n",
                  p.threads, p.threads == 1 ? "" : "s", p.featurize_sec,
                  phase_total > 0.0 ? 100.0 * p.featurize_sec / phase_total
                                    : 0.0,
                  p.nn_sec, p.crf_sec);
    }
  }

  // Online mode: the PredictionService under closed-loop load, workers
  // matched to the hardware.
  size_t online_workers =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  OnlineResult online = MeasureOnline(served, tables, /*clients=*/4,
                                      online_workers, trials);
  std::printf("online (%zu clients, %zu workers): %.1f tables/sec, p50 "
              "%.3fms p95 %.3fms p99 %.3fms, %llu rejected\n",
              online.clients, online.workers, online.tables_per_sec,
              static_cast<double>(online.stats.latency_p50_nanos) / 1e6,
              static_cast<double>(online.stats.latency_p95_nanos) / 1e6,
              static_cast<double>(online.stats.latency_p99_nanos) / 1e6,
              static_cast<unsigned long long>(online.stats.rejected));

  // Hot-swap mode: same closed loop, publishing a new version roughly
  // eight times per pass over the corpus.
  size_t swap_every = std::max<size_t>(1, tables.size() / 8);
  SwapResult swap = MeasureSwap(served, tables, /*clients=*/4, online_workers,
                                swap_every, trials);
  std::printf("swap (every %zu submits): %llu versions published, %llu swaps "
              "observed, %llu straddling responses, publish p50 %.1fus max "
              "%.1fus, p99 %.3fms (vs %.3fms without swaps)\n",
              swap.swap_every,
              static_cast<unsigned long long>(swap.versions_published),
              static_cast<unsigned long long>(swap.swaps_observed),
              static_cast<unsigned long long>(swap.straddled),
              swap.publish_p50_us, swap.publish_max_us,
              static_cast<double>(swap.stats.latency_p99_nanos) / 1e6,
              static_cast<double>(online.stats.latency_p99_nanos) / 1e6);

  // Zipfian replay through the result cache: cold vs cached on the exact
  // same request trace, parity-checked response by response.
  size_t replay_requests =
      flags.replay ? flags.replay : tables.size() * 8;
  CacheReplayResult replay = MeasureCacheReplay(
      served, tables, flags.zipf_s, replay_requests, flags.cache_entries,
      /*clients=*/4, online_workers);
  std::printf("cache replay (zipf s=%.2f, %zu requests over %zu tables, "
              "%zu entries): hit rate %.3f (%llu/%llu), cold %.1f "
              "tables/sec, cached %.1f tables/sec -> %.2fx, parity %s\n",
              replay.zipf_s, replay.replay_requests, replay.distinct_tables,
              flags.cache_entries, replay.cache_stats.hit_rate,
              static_cast<unsigned long long>(replay.hits),
              static_cast<unsigned long long>(replay.hits + replay.misses),
              replay.cold_tables_per_sec, replay.cached_tables_per_sec,
              replay.speedup, replay.parity_ok ? "OK" : "MISMATCH");

  // And the same trace through the daemon's network front door.
  size_t daemon_requests =
      std::min(replay_requests, tables.size() * 2);
  DaemonResult daemon = MeasureDaemon(served, tables, flags.zipf_s,
                                      daemon_requests, flags.cache_entries,
                                      /*clients=*/2, online_workers);
  std::printf("daemon (loopback, %zu clients, %zu framed requests): %.1f "
              "requests/sec, mean server-side %.3fms, %llu ok, %llu cache "
              "hits\n",
              daemon.clients, daemon.requests, daemon.requests_per_sec,
              daemon.mean_request_ms,
              static_cast<unsigned long long>(daemon.responses_ok),
              static_cast<unsigned long long>(daemon.cache_hits));

  // Resilience: the same loopback daemon under a seeded injected-fault
  // schedule vs fault-free, retrying clients with 50 ms deadlines.
  ResilienceResult resilience =
      MeasureResilience(served, tables, daemon_requests, /*clients=*/2,
                        online_workers);
  std::printf("resilience (%llu ppm faults, %zu requests): fault-free p50 "
              "%.3fms p99 %.3fms -> faulty p50 %.3fms p99 %.3fms; %llu "
              "injected, %llu retries, %llu shed, %llu ok / %llu typed / "
              "%llu transport-failed\n",
              static_cast<unsigned long long>(resilience.fault_ppm),
              resilience.requests, resilience.p50_ms_fault_free,
              resilience.p99_ms_fault_free, resilience.p50_ms_faulty,
              resilience.p99_ms_faulty,
              static_cast<unsigned long long>(resilience.injected_faults),
              static_cast<unsigned long long>(resilience.retries),
              static_cast<unsigned long long>(resilience.deadline_exceeded),
              static_cast<unsigned long long>(resilience.responses_ok),
              static_cast<unsigned long long>(resilience.typed_errors),
              static_cast<unsigned long long>(resilience.transport_failures));

  WriteJson("BENCH_serve.json", env, results, phases, online, swap, replay,
            daemon, resilience, model_bytes, tables.size(), num_columns);
  if (!replay.parity_ok) {
    std::fprintf(stderr,
                 "bench_serve: FATAL: cached responses diverged from cold\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sato::bench

int main(int argc, char** argv) {
  sato::bench::BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_serve: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--online") {
      flags.online_only = true;
    } else if (arg == "--zipf-s") {
      flags.zipf_s = std::atof(value());
    } else if (arg == "--replay") {
      flags.replay = static_cast<size_t>(std::atoll(value()));
    } else if (arg == "--cache-entries") {
      flags.cache_entries = static_cast<size_t>(std::atoll(value()));
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--online] [--zipf-s S] [--replay N] "
                   "[--cache-entries N]\n");
      return 2;
    }
  }
  return sato::bench::Run(flags);
}
