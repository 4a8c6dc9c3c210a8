#include "eval/model_eval.h"

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

}  // namespace sato::eval
