#ifndef SATO_EVAL_MODEL_EVAL_H_
#define SATO_EVAL_MODEL_EVAL_H_

#include <vector>

#include "core/dataset.h"
#include "core/sato_model.h"
#include "eval/metrics.h"

namespace sato::eval {

/// Runs a model over every table of a dataset; appends flattened gold and
/// predicted labels (column order preserved within each table). Uses the
/// const inference path with one reused workspace across tables.
void PredictDataset(const SatoModel* model, const Dataset& data,
                    std::vector<int>* gold, std::vector<int>* predicted);

/// Convenience: predict + evaluate in one call.
EvaluationResult EvaluateModel(const SatoModel* model, const Dataset& data);

}  // namespace sato::eval

#endif  // SATO_EVAL_MODEL_EVAL_H_
