// sato_cli: command-line interface over the library, covering the full
// train -> persist -> annotate lifecycle a practitioner needs.
//
//   sato_cli train <bundle>                 train on the synthetic corpus and
//                                           save a deployable bundle
//   sato_cli predict <bundle> <csv>...      annotate CSV tables (headers are
//                                           ignored for prediction)
//   sato_cli eval <bundle>                  evaluate the bundle on a freshly
//                                           generated held-out corpus
//   sato_cli types                          list the supported types
//
// Options for `train`: --tables N, --topics K, --epochs E, --variant
// base|notopic|nostruct|full, --seed S.
//
// `predict` and `eval` accept --jobs N to decode tables on N worker
// threads of a PredictionService; output is identical for any N.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/feature_context.h"
#include "core/model_io.h"
#include "core/sato_model.h"
#include "core/trainer.h"
#include "corpus/generator.h"
#include "eval/metrics.h"
#include "serve/model_registry.h"
#include "serve/prediction_service.h"
#include "util/timer.h"

using namespace sato;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sato_cli train <bundle> [--tables N] [--topics K] [--epochs E]\n"
               "                 [--variant base|notopic|nostruct|full] [--seed S]\n"
               "  sato_cli predict <bundle> [--jobs N] <table.csv>...\n"
               "  sato_cli eval <bundle> [--tables N] [--seed S] [--jobs N]\n"
               "  sato_cli types\n");
  return 2;
}

struct Flags {
  size_t tables = 1200;
  int topics = 32;
  int epochs = 25;
  uint64_t seed = 7;
  int jobs = 1;
  SatoVariant variant = SatoVariant::kFull;
};

// Parses --flag arguments starting at argv[start]. When `positional` is
// non-null, non-flag arguments are collected there (e.g. the CSV paths of
// `predict`); otherwise they are rejected.
bool ParseFlags(int argc, char** argv, int start, Flags* flags,
                std::vector<std::string>* positional = nullptr) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tables") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->tables = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--topics") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->topics = std::atoi(v);
    } else if (arg == "--epochs") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->epochs = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->jobs = std::atoi(v);
      if (flags->jobs < 1) return false;
    } else if (arg == "--variant") {
      const char* v = next();
      if (v == nullptr) return false;
      std::string name = v;
      if (name == "base") flags->variant = SatoVariant::kBase;
      else if (name == "notopic") flags->variant = SatoVariant::kNoTopic;
      else if (name == "nostruct") flags->variant = SatoVariant::kNoStruct;
      else if (name == "full") flags->variant = SatoVariant::kFull;
      else return false;
    } else if (positional != nullptr && arg.rfind("--", 0) != 0) {
      positional->push_back(std::move(arg));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int CmdTypes() {
  const auto& registry = SemanticTypeRegistry::Instance();
  for (TypeId id = 0; id < registry.size(); ++id) {
    std::printf("%2d  %s\n", id, registry.Name(id).c_str());
  }
  return 0;
}

int CmdTrain(const std::string& bundle_path, const Flags& flags) {
  util::Timer timer;
  corpus::CorpusOptions copts;
  copts.num_tables = flags.tables;
  copts.seed = flags.seed;
  corpus::CorpusGenerator generator(copts);
  auto corpus_tables = generator.Generate();
  auto reference =
      generator.GenerateWith(std::max<size_t>(flags.tables / 3, 200),
                             flags.seed + 1000003);
  std::fprintf(stderr, "[%.1fs] corpus: %zu tables\n", timer.ElapsedSeconds(),
               corpus_tables.size());

  SatoConfig config;
  config.num_topics = flags.topics;
  config.epochs = flags.epochs;
  config.seed = flags.seed;
  util::Rng rng(flags.seed);
  FeatureContext context = FeatureContext::Build(reference, config, &rng);
  std::fprintf(stderr, "[%.1fs] context built (vocab=%zu, topics=%zu)\n",
               timer.ElapsedSeconds(), context.embeddings().vocab_size(),
               context.topic_dim());

  DatasetBuilder builder(&context);
  Dataset train = builder.Build(corpus_tables, &rng);
  features::FeatureScaler scaler = StandardizeSplits(&train, nullptr);
  std::fprintf(stderr, "[%.1fs] featurised %zu columns\n",
               timer.ElapsedSeconds(), train.NumColumns());

  ColumnwiseModel::Dims dims;
  dims.char_dim = context.pipeline().char_dim();
  dims.word_dim = context.pipeline().word_dim();
  dims.para_dim = context.pipeline().para_dim();
  dims.stat_dim = context.pipeline().stat_dim();
  SatoModel model(flags.variant, dims, context.topic_dim(), config, &rng);
  Trainer trainer(config);
  auto stats = trainer.Train(&model, train, &rng);
  std::fprintf(stderr, "[%.1fs] trained %s (loss %.3f, crf %.1fs)\n",
               timer.ElapsedSeconds(), VariantName(flags.variant).c_str(),
               stats.final_loss, stats.crf_seconds);

  std::ofstream out(bundle_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", bundle_path.c_str());
    return 1;
  }
  const std::string tag =
      VariantName(flags.variant) + "-seed" + std::to_string(flags.seed);
  SaveSatoBundle(model, context, scaler, &out, tag);
  std::fprintf(stderr, "[%.1fs] bundle saved to %s (tag %s)\n",
               timer.ElapsedSeconds(), bundle_path.c_str(), tag.c_str());
  return 0;
}

LoadedSato LoadBundleOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open bundle %s\n", path.c_str());
    std::exit(1);
  }
  try {
    return LoadSatoBundle(&in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad bundle %s: %s\n", path.c_str(), e.what());
    std::exit(1);
  }
}

// Serves every table of `tables` through one PredictionService with `jobs`
// workers over a registry that owns the loaded bundle as version 1. Table i
// decodes with the Rng stream util::TableSeed(seed, i), so the output is
// identical for any --jobs value.
std::vector<std::vector<TypeId>> PredictLoaded(const LoadedSato& sato,
                                               const std::vector<Table>& tables,
                                               int jobs, uint64_t seed) {
  serve::ModelRegistry registry;
  registry.Publish(sato.model, sato.context, sato.scaler, sato.manifest.tag);
  serve::PredictionServiceOptions options;
  options.num_threads = static_cast<size_t>(jobs);
  options.queue_capacity = tables.size();
  serve::PredictionService service(&registry, options);
  return serve::PredictAll(&service, tables, seed);
}

int CmdPredict(const std::string& bundle_path,
               const std::vector<std::string>& csv_paths, const Flags& flags) {
  LoadedSato sato = LoadBundleOrDie(bundle_path);

  bool any_failed = false;
  std::vector<std::string> loaded_paths;
  std::vector<Table> tables;
  for (const std::string& path : csv_paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      any_failed = true;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Table table = Table::FromCsv(buffer.str(), path);
    if (table.num_columns() == 0) {
      std::fprintf(stderr, "%s: empty table\n", path.c_str());
      continue;
    }
    loaded_paths.push_back(path);
    tables.push_back(std::move(table));
  }

  constexpr uint64_t kPredictSeed = 1;
  const std::vector<std::vector<TypeId>> predictions =
      PredictLoaded(sato, tables, flags.jobs, kPredictSeed);

  for (size_t i = 0; i < tables.size(); ++i) {
    const Table& table = tables[i];
    std::printf("%s:\n", loaded_paths[i].c_str());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const char* sample =
          table.column(c).values.empty() ? "" : table.column(c).values[0].c_str();
      std::printf("  %-20s -> %-16s (e.g. \"%s\")\n",
                  table.column(c).header.c_str(),
                  TypeName(predictions[i][c]).c_str(), sample);
    }
  }
  return any_failed ? 1 : 0;
}

int CmdEval(const std::string& bundle_path, const Flags& flags) {
  LoadedSato sato = LoadBundleOrDie(bundle_path);
  corpus::CorpusOptions copts;
  copts.num_tables = std::max<size_t>(flags.tables / 4, 100);
  copts.seed = flags.seed + 424242;  // disjoint from any training seed
  corpus::CorpusGenerator generator(copts);
  auto tables = corpus::FilterMultiColumn(generator.Generate());

  constexpr uint64_t kEvalSeed = 3;
  const std::vector<std::vector<TypeId>> predictions =
      PredictLoaded(sato, tables, flags.jobs, kEvalSeed);
  std::vector<int> gold, predicted;
  for (size_t i = 0; i < tables.size(); ++i) {
    auto truth = tables[i].TypeSequence();
    gold.insert(gold.end(), truth.begin(), truth.end());
    predicted.insert(predicted.end(), predictions[i].begin(),
                     predictions[i].end());
  }
  const eval::EvaluationResult result =
      eval::Evaluate(gold, predicted, kNumSemanticTypes);
  std::printf("evaluated %zu tables (%zu columns)\n", tables.size(),
              gold.size());
  std::printf("macro F1:    %.3f\n", result.macro_f1);
  std::printf("weighted F1: %.3f\n", result.weighted_f1);
  std::printf("accuracy:    %.3f\n", result.accuracy);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "types") return CmdTypes();
  if (command == "train") {
    if (argc < 3) return Usage();
    Flags flags;
    if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
    return CmdTrain(argv[2], flags);
  }
  if (command == "predict") {
    if (argc < 4) return Usage();
    Flags flags;
    std::vector<std::string> paths;
    if (!ParseFlags(argc, argv, 3, &flags, &paths)) return Usage();
    if (paths.empty()) return Usage();
    return CmdPredict(argv[2], paths, flags);
  }
  if (command == "eval") {
    if (argc < 3) return Usage();
    Flags flags;
    if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
    return CmdEval(argv[2], flags);
  }
  return Usage();
}
