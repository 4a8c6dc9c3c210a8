#include "eval/model_eval.h"

#include <stdexcept>

#include "serve/batch_predictor.h"

namespace sato::eval {

void PredictDataset(const SatoModel* model, const Dataset& data,
                    std::vector<int>* gold, std::vector<int>* predicted) {
  nn::Workspace ws;
  for (const TableExample& table : data.tables) {
    std::vector<int> pred = model->Predict(table, &ws);
    gold->insert(gold->end(), table.labels.begin(), table.labels.end());
    predicted->insert(predicted->end(), pred.begin(), pred.end());
  }
}

EvaluationResult EvaluateModel(const SatoModel* model, const Dataset& data) {
  std::vector<int> gold, predicted;
  PredictDataset(model, data, &gold, &predicted);
  return Evaluate(gold, predicted, kNumSemanticTypes);
}

void PredictTablesWithBundle(const serve::ModelBundle& bundle,
                             const std::vector<Table>& tables, uint64_t seed,
                             std::vector<int>* gold,
                             std::vector<int>* predicted) {
  nn::Workspace ws;
  SatoPredictor::Scratch scratch;
  for (size_t i = 0; i < tables.size(); ++i) {
    util::Rng rng(serve::BatchPredictor::TableSeed(seed, i));
    std::vector<TypeId> pred =
        bundle.predictor().PredictTable(tables[i], &rng, &ws, &scratch);
    auto truth = tables[i].TypeSequence();
    gold->insert(gold->end(), truth.begin(), truth.end());
    predicted->insert(predicted->end(), pred.begin(), pred.end());
  }
  bundle.RecordServed(tables.size());
}

EvaluationResult EvaluateBundleOnTables(
    const std::shared_ptr<const serve::ModelBundle>& bundle,
    const std::vector<Table>& tables, uint64_t seed) {
  if (bundle == nullptr) {
    throw std::invalid_argument("EvaluateBundleOnTables: null bundle");
  }
  std::vector<int> gold, predicted;
  PredictTablesWithBundle(*bundle, tables, seed, &gold, &predicted);
  return Evaluate(gold, predicted, kNumSemanticTypes);
}

}  // namespace sato::eval
