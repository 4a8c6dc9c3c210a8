#include "nn/linear.h"

namespace sato::nn {

Linear::Linear(size_t in_features, size_t out_features, util::Rng* rng)
    : weight_("weight", Matrix::KaimingHe(in_features, out_features, rng)),
      bias_("bias", Matrix::Zeros(1, out_features)) {}

Matrix Linear::Forward(const Matrix& input, bool /*train*/) {
  input_cache_ = input;
  Matrix out = MatMul(input, weight_.value);
  out.AddRowVectorInPlace(bias_.value);
  return out;
}

const Matrix& Linear::Apply(const Matrix& input, Workspace* ws) const {
  Matrix& out = ws->ScratchUninit(input.rows(), weight_.value.cols());
  MatMulInto(input, weight_.value, &out);
  out.AddRowVectorInPlace(bias_.value);
  return out;
}

Matrix Linear::Backward(const Matrix& grad_output) {
  weight_.grad += MatMulTransposeA(input_cache_, grad_output);
  bias_.grad += grad_output.ColumnSums();
  return MatMulTransposeB(grad_output, weight_.value);
}

}  // namespace sato::nn
