// Featurization benchmark: the tokenize-once fast path (TokenCache +
// id-based extractor kernels + flat-phi LDA fold-in) against the preserved
// Reference* extractors, over the synthetic corpus at the configured
// SATO_BENCH_SCALE.
//
// Reports per-group extractor ns/column, LDA fold-in ns/table, and the
// end-to-end featurization cost (four groups + topic vector) both ways,
// then writes the whole table to BENCH_features.json (schema in
// docs/BENCHMARKS.md) -- the featurization counterpart of BENCH_gemm.json.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "embedding/token_cache.h"
#include "features/char_features.h"
#include "features/config.h"
#include "features/feature_scratch.h"
#include "features/para_features.h"
#include "features/pipeline.h"
#include "features/stat_features.h"
#include "features/word_features.h"
#include "topic/table_document.h"
#include "util/timer.h"

namespace sato::bench {
namespace {

struct StageResult {
  const char* stage;
  const char* unit;       // "column" or "table"
  double ref_sec;         // whole-corpus seconds, reference path (0 = n/a)
  double fast_sec;        // whole-corpus seconds, fast path
};

double PerUnitNs(double sec, size_t units) {
  return units == 0 ? 0.0 : sec * 1e9 / static_cast<double>(units);
}

void WriteJson(const char* path, const BenchEnv& env, size_t num_tables,
               size_t num_columns, const std::vector<StageResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_features: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"features\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", env.scale.name.c_str());
  std::fprintf(f, "  \"tables\": %zu,\n", num_tables);
  std::fprintf(f, "  \"columns\": %zu,\n", num_columns);
  std::fprintf(f, "  \"embedding_dim\": %zu,\n",
               env.context.embeddings().dim());
  std::fprintf(f, "  \"topics\": %zu,\n", env.context.topic_dim());
  // Which featurization kernel the runtime dispatch selected on this host
  // ("avx2" or "scalar") -- the fast-path numbers below depend on it.
  std::fprintf(f, "  \"featurize_kernel\": \"%s\",\n",
               features::KernelName(features::DefaultConfig()).c_str());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const StageResult& r = results[i];
    size_t units = r.unit[0] == 'c' ? num_columns : num_tables;
    if (r.ref_sec > 0.0) {
      std::fprintf(f,
                   "    {\"stage\": \"%s\", \"unit\": \"%s\", "
                   "\"reference_ns\": %.1f, \"fast_ns\": %.1f, "
                   "\"speedup\": %.2f}%s\n",
                   r.stage, r.unit, PerUnitNs(r.ref_sec, units),
                   PerUnitNs(r.fast_sec, units), r.ref_sec / r.fast_sec,
                   i + 1 < results.size() ? "," : "");
    } else {
      std::fprintf(f,
                   "    {\"stage\": \"%s\", \"unit\": \"%s\", "
                   "\"fast_ns\": %.1f}%s\n",
                   r.stage, r.unit, PerUnitNs(r.fast_sec, units),
                   i + 1 < results.size() ? "," : "");
    }
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_features: wrote %s\n", path);
}

int Run() {
  BenchEnv env = BuildEnv(/*seed=*/7);
  const std::vector<Table>& tables = env.tables_d;
  size_t num_columns = 0;
  for (const Table& t : tables) num_columns += t.num_columns();
  int trials = std::max(1, env.scale.trials);

  const embedding::WordEmbeddings& emb = env.context.embeddings();
  const embedding::TfIdf& tfidf = env.context.tfidf();
  const topic::LdaModel& lda = env.context.lda();
  const features::FeaturePipeline& pipeline = env.context.pipeline();

  features::CharFeatureExtractor char_ex;
  features::WordFeatureExtractor word_ex(&emb);
  features::ParagraphFeatureExtractor para_ex(&emb, &tfidf);
  features::StatFeatureExtractor stat_ex;

  std::printf("bench_features: %zu tables (%zu columns), dim=%zu, "
              "topics=%zu, %d trials, kernel=%s\n",
              tables.size(), num_columns, emb.dim(), env.context.topic_dim(),
              trials, features::KernelName(features::DefaultConfig()).c_str());

  // Prebuilt caches, one per table, so per-group kernels can be timed
  // without re-tokenising (cache construction is its own row below).
  std::vector<embedding::TokenCache> caches(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    caches[i].Build(tables[i], &emb, &tfidf, &lda.vocab());
  }

  features::FeatureScratch scratch;
  std::vector<double> buf;
  util::Timer timer;

  // -- tokenize + cache build (fast path only; the reference tokenises
  // inside each extractor, so its share shows up in the group rows).
  double cache_sec = 0.0;
  {
    embedding::TokenCache cache;
    for (const Table& t : tables) {  // warm
      cache.Build(t, &emb, &tfidf, &lda.vocab());
    }
    timer.Reset();
    for (int r = 0; r < trials; ++r) {
      for (const Table& t : tables) {
        cache.Build(t, &emb, &tfidf, &lda.vocab());
      }
    }
    cache_sec = timer.ElapsedSeconds() / trials;
  }

  // -- per-group kernels.
  auto time_fast = [&](auto&& extract) {
    // warm
    for (size_t i = 0; i < tables.size(); ++i) {
      for (size_t c = 0; c < caches[i].num_columns(); ++c) extract(i, c);
    }
    timer.Reset();
    for (int r = 0; r < trials; ++r) {
      for (size_t i = 0; i < tables.size(); ++i) {
        for (size_t c = 0; c < caches[i].num_columns(); ++c) extract(i, c);
      }
    }
    return timer.ElapsedSeconds() / trials;
  };
  auto time_ref = [&](auto&& extract) {
    timer.Reset();
    for (int r = 0; r < trials; ++r) {
      for (const Table& t : tables) {
        for (const Column& c : t.columns()) extract(c);
      }
    }
    return timer.ElapsedSeconds() / trials;
  };

  std::vector<StageResult> results;
  results.push_back({"tokenize_cache", "table", 0.0, cache_sec});
  results.push_back(
      {"char", "column",
       time_ref([&](const Column& c) { buf = char_ex.ReferenceExtract(c); }),
       time_fast([&](size_t i, size_t c) {
         char_ex.ExtractInto(caches[i], c, &scratch, &buf);
       })});
  results.push_back(
      {"word", "column",
       time_ref([&](const Column& c) { buf = word_ex.ReferenceExtract(c); }),
       time_fast([&](size_t i, size_t c) {
         word_ex.ExtractInto(caches[i], c, &scratch, &buf);
       })});
  results.push_back(
      {"para", "column",
       time_ref([&](const Column& c) { buf = para_ex.ReferenceExtract(c); }),
       time_fast([&](size_t i, size_t c) {
         para_ex.ExtractInto(caches[i], c, &scratch, &buf);
       })});
  results.push_back(
      {"stat", "column",
       time_ref([&](const Column& c) { buf = stat_ex.ReferenceExtract(c); }),
       time_fast([&](size_t i, size_t c) {
         stat_ex.ExtractInto(caches[i], c, &scratch, &buf);
       })});

  // -- extractors end to end: raw table -> four feature groups, including
  // each path's own tokenization (the cache build on the fast side, the
  // per-extractor re-tokenisation on the reference side). This is the
  // headline "featurization speedup vs the reference extractors".
  {
    std::vector<features::ColumnFeatures> fast_features;
    for (const Table& t : tables) {  // warm
      scratch.cache.Build(t, &emb, &tfidf, &lda.vocab());
      pipeline.ExtractCached(&scratch, &fast_features);
    }
    timer.Reset();
    for (int r = 0; r < trials; ++r) {
      for (const Table& t : tables) {
        scratch.cache.Build(t, &emb, &tfidf, &lda.vocab());
        pipeline.ExtractCached(&scratch, &fast_features);
      }
    }
    double fast_sec = timer.ElapsedSeconds() / trials;
    timer.Reset();
    for (int r = 0; r < trials; ++r) {
      for (const Table& t : tables) {
        for (const Column& c : t.columns()) {
          features::ColumnFeatures f = pipeline.ExtractReference(c);
          (void)f;
        }
      }
    }
    double ref_sec = timer.ElapsedSeconds() / trials;
    results.push_back({"extractors_total", "column", ref_sec, fast_sec});
  }

  // -- LDA fold-in per table: raw table -> topic vector, both ways (the
  // reference re-tokenises via TableToDocument; the fast path reads the
  // prebuilt cache's ids).
  {
    util::Rng rng(3);
    std::vector<double> theta;
    for (size_t i = 0; i < tables.size(); ++i) {  // warm
      scratch.lda.ids.clear();
      caches[i].CollectLdaIds(lda.options().max_doc_tokens, &scratch.lda.ids);
      lda.InferTopicsInto(&rng, &scratch.lda, &theta);
    }
    timer.Reset();
    for (int r = 0; r < trials; ++r) {
      for (size_t i = 0; i < tables.size(); ++i) {
        scratch.lda.ids.clear();
        caches[i].CollectLdaIds(lda.options().max_doc_tokens,
                                &scratch.lda.ids);
        lda.InferTopicsInto(&rng, &scratch.lda, &theta);
      }
    }
    double fast_sec = timer.ElapsedSeconds() / trials;
    timer.Reset();
    for (int r = 0; r < trials; ++r) {
      for (const Table& t : tables) {
        theta = lda.ReferenceInferTopics(topic::TableToDocument(t), &rng);
      }
    }
    double ref_sec = timer.ElapsedSeconds() / trials;
    results.push_back({"lda_fold_in", "table", ref_sec, fast_sec});
  }

  // -- end-to-end featurization (four groups + topic vector per table).
  {
    util::Rng rng(5);
    std::vector<features::ColumnFeatures> fast_features;
    std::vector<double> topic;
    for (const Table& t : tables) {  // warm
      env.context.FeaturizeTable(t, &rng, &scratch, &fast_features, &topic);
    }
    timer.Reset();
    for (int r = 0; r < trials; ++r) {
      for (const Table& t : tables) {
        env.context.FeaturizeTable(t, &rng, &scratch, &fast_features, &topic);
      }
    }
    double fast_sec = timer.ElapsedSeconds() / trials;
    timer.Reset();
    for (int r = 0; r < trials; ++r) {
      for (const Table& t : tables) {
        for (const Column& c : t.columns()) {
          features::ColumnFeatures f = pipeline.ExtractReference(c);
          (void)f;
        }
        topic = lda.ReferenceInferTopics(topic::TableToDocument(t), &rng);
      }
    }
    double ref_sec = timer.ElapsedSeconds() / trials;
    results.push_back({"featurize_total", "column", ref_sec, fast_sec});
  }

  std::printf("%16s  %6s  %14s  %14s  %8s\n", "stage", "unit", "reference ns",
              "fast ns", "speedup");
  PrintRule(68);
  for (const StageResult& r : results) {
    size_t units = r.unit[0] == 'c' ? num_columns : tables.size();
    if (r.ref_sec > 0.0) {
      std::printf("%16s  %6s  %14.0f  %14.0f  %7.2fx\n", r.stage, r.unit,
                  PerUnitNs(r.ref_sec, units), PerUnitNs(r.fast_sec, units),
                  r.ref_sec / r.fast_sec);
    } else {
      std::printf("%16s  %6s  %14s  %14.0f  %8s\n", r.stage, r.unit, "-",
                  PerUnitNs(r.fast_sec, units), "-");
    }
  }

  WriteJson("BENCH_features.json", env, tables.size(), num_columns, results);
  return 0;
}

}  // namespace
}  // namespace sato::bench

int main() { return sato::bench::Run(); }
