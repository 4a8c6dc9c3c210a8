// sato_serverd: the network serving daemon. Binds a TCP listener speaking
// the length-prefixed wire protocol (serve/wire.h), serves predictions
// from a hot-swappable ModelRegistry through the shared PredictionService
// (each request dispatched to a worker as soon as it is admitted), and
// fronts inference with the content-addressed result cache so repeated
// tables answer without touching a model.
//
//   sato_serverd --demo [--port 7807]        # synthetic bundle, serve
//   sato_serverd path/to/bundle.sato         # serve a trained bundle
//   sato_serverd --self-test                 # loopback E2E smoke, exit 0/1
//
// SIGTERM / SIGINT trigger a graceful drain: in-flight requests finish,
// new connections are refused, then the process exits with a stats line.
// SIGHUP reloads the bundle from disk and republishes it through the
// registry (hot swap: in-flight requests finish on the version they
// pinned). --wal PATH makes corrections crash-safe: the log is replayed
// into the registry on startup (a torn tail is truncated loudly, never
// fatally) and every acknowledged correction is appended before its ack.

#include <poll.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/model_io.h"
#include "core/sato_model.h"
#include "corpus/generator.h"
#include "serve/correction_wal.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "table/table.h"
#include "util/rng.h"

namespace sato {
namespace {

struct Flags {
  std::string bundle_path;
  bool demo = false;
  bool self_test = false;
  std::string host = "127.0.0.1";
  uint16_t port = 7807;
  size_t max_connections = 64;
  uint64_t tenant_quota = 0;   // 0 = unlimited
  size_t cache_entries = 4096;  // 0 disables the result cache
  size_t cache_shards = 8;
  size_t workers = 2;
  uint64_t seed = 71;
  std::string wal_path;  // empty = corrections stay in memory only
  bool wal_fsync = true;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] (--demo | --self-test | <bundle.sato>)\n"
      "  --port N             listen port (default 7807; 0 = ephemeral)\n"
      "  --host H             bind address (default 127.0.0.1)\n"
      "  --max-connections N  concurrent connection bound (default 64)\n"
      "  --quota N            per-tenant predict quota, 0 = unlimited\n"
      "  --cache-entries N    result cache capacity, 0 disables (4096)\n"
      "  --cache-shards N     result cache shards (default 8)\n"
      "  --workers N          prediction worker threads (default 2)\n"
      "  --batch N            ignored; accepted so existing launch scripts\n"
      "                       still start\n"
      "  --seed N             corpus/model seed for --demo (default 71)\n"
      "  --wal PATH           correction write-ahead log (replayed on boot)\n"
      "  --wal-no-fsync       skip fsync per WAL append (best effort)\n"
      "  --demo               serve a synthetic untrained bundle\n"
      "  --self-test          loopback end-to-end smoke test, exit 0/1\n",
      argv0);
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](uint64_t* out) {
      if (i + 1 >= argc) return false;
      *out = std::strtoull(argv[++i], nullptr, 10);
      return true;
    };
    uint64_t v = 0;
    if (arg == "--demo") {
      flags->demo = true;
    } else if (arg == "--self-test") {
      flags->self_test = true;
      flags->demo = true;  // self-test serves the synthetic bundle
    } else if (arg == "--port" && next(&v)) {
      flags->port = static_cast<uint16_t>(v);
    } else if (arg == "--host" && i + 1 < argc) {
      flags->host = argv[++i];
    } else if (arg == "--max-connections" && next(&v)) {
      flags->max_connections = v;
    } else if (arg == "--quota" && next(&v)) {
      flags->tenant_quota = v;
    } else if (arg == "--cache-entries" && next(&v)) {
      flags->cache_entries = v;
    } else if (arg == "--cache-shards" && next(&v)) {
      flags->cache_shards = v;
    } else if (arg == "--workers" && next(&v)) {
      flags->workers = v;
    } else if (arg == "--batch" && next(&v)) {
      // Ignored: requests dispatch on Submit, there is no batch to size.
    } else if (arg == "--seed" && next(&v)) {
      flags->seed = v;
    } else if (arg == "--wal" && i + 1 < argc) {
      flags->wal_path = argv[++i];
    } else if (arg == "--wal-no-fsync") {
      flags->wal_fsync = false;
    } else if (!arg.empty() && arg[0] != '-') {
      flags->bundle_path = arg;
    } else {
      return false;
    }
  }
  return flags->demo || !flags->bundle_path.empty();
}

// Publishes a small synthetic bundle (untrained: random but
// seed-deterministic weights -- the full serving path at a fraction of the
// cost) and returns the generated tables so the self-test has real inputs.
std::vector<Table> PublishDemoBundle(serve::ModelRegistry* registry,
                                     uint64_t seed) {
  corpus::CorpusOptions copts;
  copts.num_tables = 60;
  copts.seed = seed;
  corpus::CorpusGenerator generator(copts);
  std::vector<Table> tables = generator.Generate();
  auto reference = generator.GenerateWith(80, seed + 1000003);

  SatoConfig config;
  config.num_topics = 4;
  config.seed = seed;
  util::Rng rng(seed);
  auto context = std::make_shared<FeatureContext>(
      FeatureContext::Build(reference, config, &rng));

  DatasetBuilder builder(context.get());
  Dataset train = builder.Build(tables, &rng);
  features::FeatureScaler scaler = StandardizeSplits(&train, nullptr);

  ColumnwiseModel::Dims dims;
  dims.char_dim = context->pipeline().char_dim();
  dims.word_dim = context->pipeline().word_dim();
  dims.para_dim = context->pipeline().para_dim();
  dims.stat_dim = context->pipeline().stat_dim();
  auto model = std::make_shared<SatoModel>(SatoVariant::kFull, dims,
                                           context->topic_dim(), config, &rng);
  registry->Publish(std::move(model), std::move(context), std::move(scaler),
                    "demo-seed" + std::to_string(seed));
  return tables;
}

bool PublishFromBundle(serve::ModelRegistry* registry,
                       const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "sato_serverd: cannot open bundle %s\n",
                 path.c_str());
    return false;
  }
  LoadedSato sato;
  try {
    sato = LoadSatoBundle(&in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sato_serverd: bad bundle %s: %s\n", path.c_str(),
                 e.what());
    return false;
  }
  registry->Publish(std::move(sato.model), std::move(sato.context),
                    std::move(sato.scaler), sato.manifest.tag);
  return true;
}

// ---- signal plumbing ------------------------------------------------------

int g_signal_pipe[2] = {-1, -1};

void OnTermSignal(int) {
  char byte = 'T';
  // write() is async-signal-safe; the result is deliberately ignored (a
  // full pipe means a signal is already pending).
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

void OnHupSignal(int) {
  char byte = 'H';
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

// ---- self test ------------------------------------------------------------

#define SELFTEST_CHECK(cond)                                             \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "self-test FAILED at %s:%d: %s\n", __FILE__,  \
                   __LINE__, #cond);                                     \
      return 1;                                                          \
    }                                                                    \
  } while (0)

// kOk answers, read from the service that owns request outcomes.
uint64_t PredictionsOk(const serve::ServiceStats& stats) {
  return stats.completed - stats.failed - stats.deadline_exceeded;
}

// Loopback end-to-end battery: framed requests against the live daemon,
// including one malformed frame, then a graceful drain. This is the CI
// smoke path ("start daemon -> 3 framed requests incl. one malformed ->
// assert responses + clean shutdown") in-process so it needs no harness.
// Each count is read from the layer that owns it: frames from the server,
// outcomes from the service, hits from the cache (null when disabled),
// acked corrections from the registry.
int RunSelfTest(serve::Server* server,
                const serve::PredictionService* service,
                const serve::ResultCache* cache,
                const std::vector<Table>& tables) {
  const Table* table = nullptr;
  for (const Table& t : tables) {
    if (t.num_columns() >= 2) {
      table = &t;
      break;
    }
  }
  SELFTEST_CHECK(table != nullptr);

  serve::wire::Client client;
  SELFTEST_CHECK(client.Connect(server->host(), server->port()));

  // 1. Liveness.
  serve::wire::ClientResponse pong = client.Ping();
  SELFTEST_CHECK(pong.transport_ok);
  SELFTEST_CHECK(pong.body.status == serve::wire::WireStatus::kOk);

  // 2. A real prediction.
  serve::wire::ClientResponse first = client.Predict(*table, /*seed=*/1);
  SELFTEST_CHECK(first.transport_ok);
  SELFTEST_CHECK(first.body.status == serve::wire::WireStatus::kOk);
  SELFTEST_CHECK(first.body.type_ids.size() == table->num_columns());
  SELFTEST_CHECK(first.body.model_version == 1);

  // 3. Same request again: the result cache must answer byte-identically.
  serve::wire::ClientResponse again = client.Predict(*table, /*seed=*/1);
  SELFTEST_CHECK(again.transport_ok);
  SELFTEST_CHECK(again.body.status == serve::wire::WireStatus::kOk);
  SELFTEST_CHECK(again.body.cache_hit);
  if (again.body.type_ids != first.body.type_ids) {
    std::fprintf(stderr, "first (%zu):", first.body.type_ids.size());
    for (TypeId id : first.body.type_ids) std::fprintf(stderr, " %d", id);
    std::fprintf(stderr, "\nagain (%zu):", again.body.type_ids.size());
    for (TypeId id : again.body.type_ids) std::fprintf(stderr, " %d", id);
    std::fprintf(stderr, "\n");
  }
  SELFTEST_CHECK(again.body.type_ids == first.body.type_ids);

  // 4. A malformed frame on a second connection fails loudly (typed
  //    error, connection closed) without disturbing the first connection.
  {
    serve::wire::Client hostile;
    SELFTEST_CHECK(hostile.Connect(server->host(), server->port()));
    SELFTEST_CHECK(hostile.SendRaw("GARBAGE-NOT-A-FRAME-AT-ALL"));
    serve::wire::ClientResponse err = hostile.ReadResponse();
    SELFTEST_CHECK(err.transport_ok);
    SELFTEST_CHECK(err.body.status == serve::wire::WireStatus::kMalformed);
    serve::wire::ClientResponse eof = hostile.ReadResponse();
    SELFTEST_CHECK(!eof.transport_ok);  // server closed after framing broke
  }
  serve::wire::ClientResponse healthy = client.Predict(*table, /*seed=*/2);
  SELFTEST_CHECK(healthy.transport_ok);
  SELFTEST_CHECK(healthy.body.status == serve::wire::WireStatus::kOk);

  // 5. A correction lands in the registry's correction log.
  serve::wire::ClientResponse corr =
      client.Correct(table->columns()[0].header, /*type=*/3,
                     first.body.model_version);
  SELFTEST_CHECK(corr.transport_ok);
  SELFTEST_CHECK(corr.body.status == serve::wire::WireStatus::kOk);

  // 6. Graceful drain: new connections are refused, the old socket sees
  //    EOF, and shutdown is clean.
  server->RequestDrain();
  server->Shutdown();
  serve::wire::ClientResponse after = client.ReadResponse();
  SELFTEST_CHECK(!after.transport_ok);

  serve::ServerStats stats = server->Stats();
  const uint64_t predictions_ok = PredictionsOk(service->Stats());
  const uint64_t cache_hits = cache != nullptr ? cache->Stats().hits : 0;
  SELFTEST_CHECK(stats.pings == 1);
  SELFTEST_CHECK(predictions_ok == 3);
  SELFTEST_CHECK(cache_hits == 1);
  const serve::RegistryStats registry_stats = service->registry()->Stats();
  SELFTEST_CHECK(registry_stats.corrections_submitted -
                     registry_stats.corrections_wal_failed ==
                 1);
  SELFTEST_CHECK(stats.malformed_frames == 1);
  SELFTEST_CHECK(server->draining());

  std::printf("self-test passed: %llu frames, %llu responses, "
              "%llu predictions (%llu cached), %llu malformed rejected\n",
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.responses_sent),
              static_cast<unsigned long long>(predictions_ok),
              static_cast<unsigned long long>(cache_hits),
              static_cast<unsigned long long>(stats.malformed_frames));
  return 0;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage(argv[0]);
  if (flags.self_test) flags.port = 0;  // never collide in CI

  // Declared before the registry: the registry borrows a raw pointer to
  // the WAL, so the appender must outlive it.
  std::unique_ptr<serve::CorrectionWal> wal;
  serve::ModelRegistry registry;
  std::vector<Table> demo_tables;
  if (flags.demo) {
    std::fprintf(stderr, "sato_serverd: building demo bundle (seed %llu)\n",
                 static_cast<unsigned long long>(flags.seed));
    demo_tables = PublishDemoBundle(&registry, flags.seed);
  } else if (!PublishFromBundle(&registry, flags.bundle_path)) {
    return 1;
  }

  if (!flags.wal_path.empty()) {
    // Documented startup order: replay first (heals any torn tail in
    // place), feed the surviving corrections into the registry, THEN
    // attach a fresh appender -- replayed records must not be re-appended.
    serve::WalReplayResult replay =
        serve::CorrectionWal::Replay(flags.wal_path);
    for (serve::Correction& c : replay.corrections) {
      registry.SubmitCorrection(std::move(c));
    }
    std::fprintf(stderr,
                 "sato_serverd: wal %s: replayed %zu correction(s)%s\n",
                 flags.wal_path.c_str(), replay.records,
                 replay.truncated ? " (torn tail truncated)" : "");
    serve::CorrectionWalOptions wopts;
    wopts.fsync =
        flags.wal_fsync ? serve::WalFsync::kAlways : serve::WalFsync::kNone;
    try {
      wal = std::make_unique<serve::CorrectionWal>(flags.wal_path, wopts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sato_serverd: %s\n", e.what());
      return 1;
    }
    registry.AttachCorrectionWal(wal.get());
  }

  std::unique_ptr<serve::ResultCache> cache;
  if (flags.cache_entries > 0) {
    serve::ResultCacheOptions copts;
    copts.capacity_entries = flags.cache_entries;
    copts.num_shards = flags.cache_shards;
    cache = std::make_unique<serve::ResultCache>(copts);
  }

  serve::PredictionServiceOptions sopts;
  sopts.num_threads = flags.workers;
  sopts.result_cache = cache.get();
  serve::PredictionService service(&registry, sopts);

  serve::ServerOptions opts;
  opts.host = flags.host;
  opts.port = flags.port;
  opts.max_connections = flags.max_connections;
  opts.tenant_request_quota = flags.tenant_quota;
  std::unique_ptr<serve::Server> server;
  try {
    server = std::make_unique<serve::Server>(&service, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sato_serverd: %s\n", e.what());
    return 1;
  }

  if (flags.self_test) {
    int rc = RunSelfTest(server.get(), &service, cache.get(), demo_tables);
    server->Shutdown();
    service.Shutdown();
    return rc;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "sato_serverd: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = OnTermSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  struct sigaction hup {};
  hup.sa_handler = OnHupSignal;
  ::sigaction(SIGHUP, &hup, nullptr);

  std::fprintf(stderr,
               "sato_serverd: listening on %s:%u (model v%llu, %zu workers, "
               "cache %zu entries)\n",
               server->host().c_str(), server->port(),
               static_cast<unsigned long long>(registry.current_version()),
               flags.workers, flags.cache_entries);

  // Park until SIGTERM/SIGINT; SIGHUP hot-reloads the bundle in between.
  for (;;) {
    char byte = 0;
    ssize_t r = ::read(g_signal_pipe[0], &byte, 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0 || byte != 'H') break;  // 'T' (or pipe error): drain
    if (flags.bundle_path.empty()) {
      std::fprintf(stderr,
                   "sato_serverd: SIGHUP ignored (no bundle path to "
                   "reload; --demo bundles are synthetic)\n");
      continue;
    }
    const uint64_t old_version = registry.current_version();
    if (!PublishFromBundle(&registry, flags.bundle_path)) {
      std::fprintf(stderr,
                   "sato_serverd: SIGHUP reload failed; still serving "
                   "model v%llu\n",
                   static_cast<unsigned long long>(old_version));
      continue;
    }
    std::fprintf(stderr,
                 "sato_serverd: SIGHUP reloaded %s: model v%llu -> v%llu\n",
                 flags.bundle_path.c_str(),
                 static_cast<unsigned long long>(old_version),
                 static_cast<unsigned long long>(registry.current_version()));
  }

  std::fprintf(stderr, "sato_serverd: draining...\n");
  server->Shutdown();
  service.Shutdown();

  serve::ServerStats stats = server->Stats();
  serve::ResultCacheStats cstats;  // all zero when the cache is disabled
  if (cache != nullptr) cstats = cache->Stats();
  std::fprintf(
      stderr,
      "sato_serverd: served %llu frames, %llu predictions ok "
      "(%llu cache hits / %llu misses), %llu malformed rejected, "
      "%llu connections\n",
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(PredictionsOk(service.Stats())),
      static_cast<unsigned long long>(cstats.hits),
      static_cast<unsigned long long>(cstats.misses),
      static_cast<unsigned long long>(stats.malformed_frames +
                                      stats.malformed_payloads),
      static_cast<unsigned long long>(stats.connections_accepted));
  return 0;
}

}  // namespace
}  // namespace sato

int main(int argc, char** argv) { return sato::Main(argc, argv); }
