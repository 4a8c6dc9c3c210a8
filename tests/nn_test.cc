// Unit tests for sato::nn: matrix ops, layer forward/backward correctness
// (numerical gradient checks), loss, optimisers, serialization.

#include <cmath>
#include <functional>
#include <sstream>

#include <gtest/gtest.h>

#include "encoder/attention.h"
#include "nn/activations.h"
#include "nn/batch_norm.h"
#include "nn/dropout.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "nn/workspace.h"

namespace sato::nn {
namespace {

constexpr double kEps = 1e-5;
constexpr double kTol = 1e-6;

// Numerical gradient of a scalar function w.r.t. one matrix entry.
double NumericalGradient(const std::function<double()>& f, double* x) {
  double orig = *x;
  *x = orig + kEps;
  double plus = f();
  *x = orig - kEps;
  double minus = f();
  *x = orig;
  return (plus - minus) / (2.0 * kEps);
}

// Scalar loss used to drive gradient checks: sum of elements.
double SumAll(const Matrix& m) {
  double s = 0.0;
  for (size_t i = 0; i < m.size(); ++i) s += m.data()[i];
  return s;
}

// ------------------------------------------------------------- matrix ----

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::FromRows({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, MatMulMatchesHandComputed) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatMulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(MatMul(a, b), std::invalid_argument);
}

TEST(MatrixTest, TransposedMultipliesAgree) {
  util::Rng rng(3);
  Matrix a = Matrix::Gaussian(4, 3, 1.0, &rng);
  Matrix b = Matrix::Gaussian(5, 3, 1.0, &rng);
  // a * b^T via MatMulTransposeB must equal manual transpose.
  Matrix bt(3, 5);
  for (size_t i = 0; i < 5; ++i)
    for (size_t j = 0; j < 3; ++j) bt(j, i) = b(i, j);
  Matrix direct = MatMul(a, bt);
  Matrix fused = MatMulTransposeB(a, b);
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.data()[i], fused.data()[i], 1e-12);
  }
}

TEST(MatrixTest, MatMulTransposeAAgree) {
  util::Rng rng(4);
  Matrix a = Matrix::Gaussian(4, 3, 1.0, &rng);
  Matrix b = Matrix::Gaussian(4, 2, 1.0, &rng);
  Matrix at(3, 4);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 3; ++j) at(j, i) = a(i, j);
  Matrix direct = MatMul(at, b);
  Matrix fused = MatMulTransposeA(a, b);
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.data()[i], fused.data()[i], 1e-12);
  }
}

TEST(MatrixTest, RowVectorOps) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix row = Matrix::FromRow({10, 20});
  m.AddRowVectorInPlace(row);
  EXPECT_DOUBLE_EQ(m(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 24.0);
  Matrix sums = m.ColumnSums();
  EXPECT_DOUBLE_EQ(sums(0, 0), 24.0);
  EXPECT_DOUBLE_EQ(sums(0, 1), 46.0);
  Matrix means = m.ColumnMeans();
  EXPECT_DOUBLE_EQ(means(0, 0), 12.0);
}

TEST(MatrixTest, ConcatColumns) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5}, {6}});
  Matrix c = ConcatColumns(a, b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_DOUBLE_EQ(c(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 3.0);
}

TEST(MatrixTest, KaimingHeScaleApproximatelyCorrect) {
  util::Rng rng(5);
  Matrix w = Matrix::KaimingHe(200, 100, &rng);
  double sum_sq = 0.0;
  for (size_t i = 0; i < w.size(); ++i) sum_sq += w.data()[i] * w.data()[i];
  double observed_var = sum_sq / static_cast<double>(w.size());
  EXPECT_NEAR(observed_var, 2.0 / 200.0, 2e-3);
}

// -------------------------------------------------------------- linear ----

TEST(LinearTest, ForwardMatchesManual) {
  util::Rng rng(1);
  Linear layer(2, 2, &rng);
  layer.weight().value = Matrix::FromRows({{1, 2}, {3, 4}});
  layer.bias().value = Matrix::FromRow({0.5, -0.5});
  Matrix x = Matrix::FromRows({{1, 1}});
  Matrix y = layer.Forward(x, true);
  EXPECT_DOUBLE_EQ(y(0, 0), 4.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 5.5);
}

TEST(LinearTest, GradientCheckWeightsBiasInput) {
  util::Rng rng(2);
  Linear layer(3, 2, &rng);
  Matrix x = Matrix::Gaussian(4, 3, 1.0, &rng);

  auto loss = [&] { return SumAll(layer.Forward(x, true)); };
  layer.Forward(x, true);
  Matrix ones(4, 2, 1.0);
  for (auto* p : layer.Parameters()) p->ZeroGrad();
  Matrix grad_input = layer.Backward(ones);

  for (auto* p : layer.Parameters()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      double numeric = NumericalGradient(loss, &p->value.data()[i]);
      EXPECT_NEAR(p->grad.data()[i], numeric, kTol) << p->name << "[" << i << "]";
    }
  }
  for (size_t i = 0; i < x.size(); ++i) {
    double numeric = NumericalGradient(loss, &x.data()[i]);
    EXPECT_NEAR(grad_input.data()[i], numeric, kTol) << "input[" << i << "]";
  }
}

TEST(ReLUTest, ForwardClampsNegatives) {
  ReLU relu;
  Matrix x = Matrix::FromRows({{-1.0, 0.0, 2.0}});
  Matrix y = relu.Forward(x, true);
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 2.0);
}

TEST(ReLUTest, GradientCheck) {
  util::Rng rng(3);
  ReLU relu;
  Matrix x = Matrix::Gaussian(3, 4, 1.0, &rng);
  auto loss = [&] { return SumAll(relu.Forward(x, true)); };
  relu.Forward(x, true);
  Matrix grad = relu.Backward(Matrix(3, 4, 1.0));
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x.data()[i]) < 1e-3) continue;  // kink
    double numeric = NumericalGradient(loss, &x.data()[i]);
    EXPECT_NEAR(grad.data()[i], numeric, kTol);
  }
}

TEST(GELUTest, KnownValues) {
  GELU gelu;
  Matrix x = Matrix::FromRows({{0.0, 100.0, -100.0}});
  Matrix y = gelu.Forward(x, true);
  EXPECT_NEAR(y(0, 0), 0.0, 1e-9);
  EXPECT_NEAR(y(0, 1), 100.0, 1e-6);
  EXPECT_NEAR(y(0, 2), 0.0, 1e-6);
}

TEST(GELUTest, GradientCheck) {
  util::Rng rng(4);
  GELU gelu;
  Matrix x = Matrix::Gaussian(3, 4, 1.0, &rng);
  auto loss = [&] { return SumAll(gelu.Forward(x, true)); };
  gelu.Forward(x, true);
  Matrix grad = gelu.Backward(Matrix(3, 4, 1.0));
  for (size_t i = 0; i < x.size(); ++i) {
    double numeric = NumericalGradient(loss, &x.data()[i]);
    EXPECT_NEAR(grad.data()[i], numeric, 1e-5);
  }
}

// ------------------------------------------------------------ dropout ----

TEST(DropoutTest, EvalModeIsIdentity) {
  util::Rng rng(5);
  Dropout dropout(0.5, &rng);
  Matrix x = Matrix::Gaussian(4, 4, 1.0, &rng);
  Matrix y = dropout.Forward(x, false);
  EXPECT_EQ(x, y);
}

TEST(DropoutTest, TrainModeZeroesAndRescales) {
  util::Rng rng(6);
  Dropout dropout(0.5, &rng);
  Matrix x(1, 10000, 1.0);
  Matrix y = dropout.Forward(x, true);
  size_t zeros = 0;
  double sum = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    if (y.data()[i] == 0.0) ++zeros;
    else EXPECT_DOUBLE_EQ(y.data()[i], 2.0);  // 1/(1-0.5)
    sum += y.data()[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);  // expectation preserved
}

TEST(DropoutTest, BackwardUsesSameMask) {
  util::Rng rng(7);
  Dropout dropout(0.3, &rng);
  Matrix x(1, 100, 1.0);
  Matrix y = dropout.Forward(x, true);
  Matrix grad = dropout.Backward(Matrix(1, 100, 1.0));
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(grad.data()[i], y.data()[i]);  // same mask & scale
  }
}

TEST(DropoutTest, RejectsInvalidRate) {
  util::Rng rng(8);
  EXPECT_THROW(Dropout(1.0, &rng), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1, &rng), std::invalid_argument);
}

// ---------------------------------------------------------- batchnorm ----

TEST(BatchNormTest, NormalizesBatchInTrainMode) {
  BatchNorm1d bn(2);
  Matrix x = Matrix::FromRows({{1, 10}, {3, 20}, {5, 30}});
  Matrix y = bn.Forward(x, true);
  // Each column should have ~zero mean, ~unit variance.
  for (size_t c = 0; c < 2; ++c) {
    double mean = (y(0, c) + y(1, c) + y(2, c)) / 3.0;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    double var = 0.0;
    for (size_t r = 0; r < 3; ++r) var += y(r, c) * y(r, c);
    EXPECT_NEAR(var / 3.0, 1.0, 1e-3);
  }
}

TEST(BatchNormTest, RunningStatsConvergeToDataMoments) {
  util::Rng rng(9);
  BatchNorm1d bn(1, /*momentum=*/0.5);
  for (int i = 0; i < 200; ++i) {
    Matrix x(64, 1);
    for (size_t r = 0; r < 64; ++r) x(r, 0) = rng.Normal(5.0, 2.0);
    bn.Forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean()(0, 0), 5.0, 0.3);
  EXPECT_NEAR(std::sqrt(bn.running_var()(0, 0)), 2.0, 0.3);
}

TEST(BatchNormTest, EvalModeUsesRunningStats) {
  BatchNorm1d bn(1);
  *bn.mutable_running_mean() = Matrix::FromRow({10.0});
  *bn.mutable_running_var() = Matrix::FromRow({4.0});
  Matrix x = Matrix::FromRows({{12.0}});
  Matrix y = bn.Forward(x, false);
  EXPECT_NEAR(y(0, 0), 1.0, 1e-3);  // (12-10)/2
}

TEST(BatchNormTest, GradientCheckTrainMode) {
  util::Rng rng(10);
  BatchNorm1d bn(3);
  Matrix x = Matrix::Gaussian(5, 3, 2.0, &rng);
  // Use a fixed random projection as loss to exercise off-diagonal terms.
  Matrix w = Matrix::Gaussian(5, 3, 1.0, &rng);
  // Fresh BN per evaluation so running stats do not drift during the check.
  auto loss = [&] {
    BatchNorm1d fresh(3);
    fresh.Forward(x, true);
    Matrix y = fresh.Forward(x, true);
    double s = 0.0;
    for (size_t i = 0; i < y.size(); ++i) s += y.data()[i] * w.data()[i];
    return s;
  };
  BatchNorm1d bn2(3);
  bn2.Forward(x, true);
  bn2.Forward(x, true);
  Matrix grad = bn2.Backward(w);
  for (size_t i = 0; i < x.size(); ++i) {
    double numeric = NumericalGradient(loss, &x.data()[i]);
    EXPECT_NEAR(grad.data()[i], numeric, 1e-4);
  }
}

// ---------------------------------------------------------------- loss ----

TEST(LossTest, SoftmaxRowsSumToOne) {
  Matrix logits = Matrix::FromRows({{1, 2, 3}, {-1, 0, 1}});
  Matrix p = SoftmaxRows(logits);
  for (size_t r = 0; r < 2; ++r) {
    double sum = p(r, 0) + p(r, 1) + p(r, 2);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(LossTest, LogSoftmaxMatchesLogOfSoftmax) {
  Matrix logits = Matrix::FromRows({{1.0, -2.0, 0.5}});
  Matrix p = SoftmaxRows(logits);
  Matrix lp = LogSoftmaxRows(logits);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(lp(0, c), std::log(p(0, c)), 1e-12);
  }
}

TEST(LossTest, CrossEntropyKnownValue) {
  SoftmaxCrossEntropy loss;
  Matrix logits = Matrix::FromRows({{0.0, 0.0}});
  double l = loss.Forward(logits, {0});
  EXPECT_NEAR(l, std::log(2.0), 1e-12);
}

TEST(LossTest, GradientCheckAgainstNumeric) {
  util::Rng rng(11);
  Matrix logits = Matrix::Gaussian(3, 5, 1.0, &rng);
  std::vector<int> targets = {1, 4, 0};
  SoftmaxCrossEntropy loss;
  auto f = [&] { return loss.Forward(logits, targets); };
  f();
  Matrix grad = loss.Backward();
  for (size_t i = 0; i < logits.size(); ++i) {
    double numeric = NumericalGradient(f, &logits.data()[i]);
    EXPECT_NEAR(grad.data()[i], numeric, 1e-6);
  }
}

TEST(LossTest, RejectsBadTargets) {
  SoftmaxCrossEntropy loss;
  Matrix logits(2, 3);
  EXPECT_THROW(loss.Forward(logits, {0}), std::invalid_argument);
  EXPECT_THROW(loss.Forward(logits, {0, 3}), std::invalid_argument);
}

// ---------------------------------------------------------- sequential ----

TEST(SequentialTest, GradientCheckThroughStack) {
  util::Rng rng(12);
  Sequential net;
  net.Emplace<Linear>(4, 6, &rng);
  net.Emplace<ReLU>();
  net.Emplace<Linear>(6, 3, &rng);
  Matrix x = Matrix::Gaussian(2, 4, 1.0, &rng);
  auto loss = [&] { return SumAll(net.Forward(x, true)); };
  net.Forward(x, true);
  for (auto* p : net.Parameters()) p->ZeroGrad();
  Matrix grad_in = net.Backward(Matrix(2, 3, 1.0));
  for (auto* p : net.Parameters()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      double numeric = NumericalGradient(loss, &p->value.data()[i]);
      EXPECT_NEAR(p->grad.data()[i], numeric, 1e-5);
    }
  }
  for (size_t i = 0; i < x.size(); ++i) {
    double numeric = NumericalGradient(loss, &x.data()[i]);
    EXPECT_NEAR(grad_in.data()[i], numeric, 1e-5);
  }
}

TEST(SequentialTest, PenultimateExposesLastLayerInput) {
  util::Rng rng(13);
  Sequential net;
  net.Emplace<Linear>(3, 4, &rng);
  net.Emplace<ReLU>();
  net.Emplace<Linear>(4, 2, &rng);
  Matrix x = Matrix::Gaussian(2, 3, 1.0, &rng);
  Matrix penultimate;
  net.ForwardWithPenultimate(x, false, &penultimate);
  EXPECT_EQ(penultimate.rows(), 2u);
  EXPECT_EQ(penultimate.cols(), 4u);
  for (size_t i = 0; i < penultimate.size(); ++i) {
    EXPECT_GE(penultimate.data()[i], 0.0);  // post-ReLU
  }
}

// ----------------------------------------------------------- optimizer ----

TEST(OptimizerTest, SgdStepMovesAgainstGradient) {
  Parameter p("w", Matrix::FromRow({1.0, -1.0}));
  p.grad = Matrix::FromRow({0.5, -0.5});
  SgdOptimizer opt({&p}, 0.1);
  opt.Step();
  EXPECT_NEAR(p.value(0, 0), 0.95, 1e-12);
  EXPECT_NEAR(p.value(0, 1), -0.95, 1e-12);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // minimise f(w) = ||w - target||^2
  Parameter p("w", Matrix::FromRow({5.0, -3.0, 8.0}));
  Matrix target = Matrix::FromRow({1.0, 2.0, -1.0});
  AdamOptimizer::Options opts;
  opts.learning_rate = 0.1;
  AdamOptimizer adam({&p}, opts);
  for (int i = 0; i < 500; ++i) {
    adam.ZeroGrad();
    for (size_t j = 0; j < 3; ++j) {
      p.grad(0, j) = 2.0 * (p.value(0, j) - target(0, j));
    }
    adam.Step();
  }
  for (size_t j = 0; j < 3; ++j) EXPECT_NEAR(p.value(0, j), target(0, j), 1e-3);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Parameter p("w", Matrix::FromRow({1.0}));
  AdamOptimizer::Options opts;
  opts.learning_rate = 0.01;
  opts.weight_decay = 1.0;
  AdamOptimizer adam({&p}, opts);
  for (int i = 0; i < 200; ++i) {
    adam.ZeroGrad();  // zero loss gradient; only decay acts
    adam.Step();
  }
  EXPECT_LT(std::abs(p.value(0, 0)), 0.5);
}

TEST(OptimizerTest, ZeroGradClears) {
  Parameter p("w", Matrix::FromRow({1.0}));
  p.grad(0, 0) = 42.0;
  AdamOptimizer adam({&p}, {});
  adam.ZeroGrad();
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 0.0);
}

// ----------------------------------------------------------- serialize ----

TEST(SerializeTest, MatrixRoundTrip) {
  util::Rng rng(14);
  Matrix m = Matrix::Gaussian(3, 5, 1.0, &rng);
  std::stringstream ss;
  SaveMatrix(m, &ss);
  Matrix back = LoadMatrix(&ss);
  EXPECT_EQ(m, back);
}

TEST(SerializeTest, ParameterRoundTrip) {
  util::Rng rng(15);
  Sequential net;
  net.Emplace<Linear>(4, 3, &rng);
  net.Emplace<Linear>(3, 2, &rng);
  std::stringstream ss;
  SaveParameters(net.Parameters(), &ss);

  util::Rng rng2(999);
  Sequential net2;
  net2.Emplace<Linear>(4, 3, &rng2);
  net2.Emplace<Linear>(3, 2, &rng2);
  LoadParameters(net2.Parameters(), &ss);

  auto p1 = net.Parameters();
  auto p2 = net2.Parameters();
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i]->value, p2[i]->value);
}

TEST(SerializeTest, ShapeMismatchThrows) {
  util::Rng rng(16);
  Sequential net;
  net.Emplace<Linear>(4, 3, &rng);
  std::stringstream ss;
  SaveParameters(net.Parameters(), &ss);
  Sequential other;
  other.Emplace<Linear>(5, 3, &rng);
  EXPECT_THROW(LoadParameters(other.Parameters(), &ss), std::runtime_error);
}

TEST(SerializeTest, BadMagicThrows) {
  std::stringstream ss("garbage bytes here, definitely not a model");
  util::Rng rng(17);
  Sequential net;
  net.Emplace<Linear>(2, 2, &rng);
  EXPECT_THROW(LoadParameters(net.Parameters(), &ss), std::runtime_error);
}

// ---------------------------------------------------------- workspace ----

TEST(WorkspaceTest, ScratchHasRequestedShapeAndIsZeroFilled) {
  Workspace ws;
  Matrix& a = ws.Scratch(3, 4);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 4u);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.data()[i], 0.0);
  a.Fill(7.0);  // poison, must not leak into the next round
  ws.Reset();
  Matrix& b = ws.Scratch(2, 2);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b.data()[i], 0.0);
}

TEST(WorkspaceTest, PoolStabilisesAtHighWaterMark) {
  Workspace ws;
  for (int round = 0; round < 5; ++round) {
    ws.Reset();
    ws.Scratch(4, 8);
    ws.Scratch(4, 8);
    ws.Scratch(1, 8);
    EXPECT_EQ(ws.pooled(), 3u) << "round " << round;
  }
  EXPECT_GT(ws.PooledBytes(), 0u);
}

TEST(WorkspaceTest, ScratchAddressesStableUntilReset) {
  Workspace ws;
  Matrix& a = ws.Scratch(2, 2);
  double* a_data = a.data();
  for (int i = 0; i < 100; ++i) ws.Scratch(3, 3);  // force pool growth
  EXPECT_EQ(a.data(), a_data);  // earlier slot untouched by growth
}

// ------------------------------------------ Apply / Forward(eval) parity ----

// The serving path's contract: for every layer type, the const re-entrant
// Apply() is byte-identical to the training object's Forward in eval mode.
void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

TEST(ApplyParityTest, Linear) {
  util::Rng rng(21);
  Linear layer(4, 3, &rng);
  Matrix x = Matrix::Gaussian(5, 4, 1.0, &rng);
  Workspace ws;
  ExpectBitIdentical(layer.Apply(x, &ws), layer.Forward(x, false));
}

TEST(ApplyParityTest, ReLU) {
  util::Rng rng(22);
  ReLU relu;
  Matrix x = Matrix::Gaussian(4, 6, 1.0, &rng);
  Workspace ws;
  ExpectBitIdentical(relu.Apply(x, &ws), relu.Forward(x, false));
}

TEST(ApplyParityTest, GELU) {
  util::Rng rng(23);
  GELU gelu;
  Matrix x = Matrix::Gaussian(4, 6, 1.0, &rng);
  Workspace ws;
  ExpectBitIdentical(gelu.Apply(x, &ws), gelu.Forward(x, false));
}

TEST(ApplyParityTest, DropoutIsIdentityAtInference) {
  util::Rng rng(24);
  Dropout dropout(0.5, &rng);
  Matrix x = Matrix::Gaussian(4, 6, 1.0, &rng);
  Workspace ws;
  const Matrix& y = dropout.Apply(x, &ws);
  ExpectBitIdentical(y, dropout.Forward(x, false));
  EXPECT_EQ(&y, &x);  // true identity: no copy, no workspace use
}

TEST(ApplyParityTest, BatchNormUsesRunningStats) {
  util::Rng rng(25);
  BatchNorm1d bn(5);
  // Push several training batches through so the running statistics are
  // far from their (0, 1) initialisation.
  for (int i = 0; i < 10; ++i) {
    Matrix batch = Matrix::Gaussian(16, 5, 2.0, &rng);
    batch += Matrix(16, 5, 3.0);
    bn.Forward(batch, true);
  }
  Matrix x = Matrix::Gaussian(7, 5, 1.0, &rng);
  Workspace ws;
  ExpectBitIdentical(bn.Apply(x, &ws), bn.Forward(x, false));
}

TEST(ApplyParityTest, LayerNorm) {
  util::Rng rng(26);
  LayerNorm ln(6);
  Matrix x = Matrix::Gaussian(4, 6, 1.5, &rng);
  Workspace ws;
  ExpectBitIdentical(ln.Apply(x, &ws), ln.Forward(x, false));
}

TEST(ApplyParityTest, MultiHeadSelfAttention) {
  util::Rng rng(27);
  encoder::MultiHeadSelfAttention attn(8, 2, &rng);
  Matrix x = Matrix::Gaussian(5, 8, 1.0, &rng);
  Workspace ws;
  ExpectBitIdentical(attn.Apply(x, &ws), attn.Forward(x, false));
}

TEST(ApplyParityTest, SequentialPrimaryNetworkShape) {
  // The shape of the paper's primary network: FC + BN + ReLU + Dropout
  // blocks and a linear head, exercised end to end through Apply.
  util::Rng rng(28);
  Sequential net;
  net.Emplace<Linear>(10, 8, &rng);
  net.Emplace<BatchNorm1d>(8);
  net.Emplace<ReLU>();
  net.Emplace<Dropout>(0.3, &rng);
  net.Emplace<Linear>(8, 4, &rng);
  Matrix x = Matrix::Gaussian(6, 10, 1.0, &rng);
  Workspace ws;
  ExpectBitIdentical(net.Apply(x, &ws), net.Forward(x, false));
}

TEST(ApplyParityTest, SequentialApplyWithPenultimate) {
  util::Rng rng(29);
  Sequential net;
  net.Emplace<Linear>(5, 4, &rng);
  net.Emplace<ReLU>();
  net.Emplace<Linear>(4, 3, &rng);
  Matrix x = Matrix::Gaussian(3, 5, 1.0, &rng);
  Matrix pen_fwd, pen_apply;
  Matrix fwd = net.ForwardWithPenultimate(x, false, &pen_fwd);
  Workspace ws;
  const Matrix& apply = net.ApplyWithPenultimate(x, &ws, &pen_apply);
  ExpectBitIdentical(apply, fwd);
  ExpectBitIdentical(pen_apply, pen_fwd);
}

TEST(ApplyParityTest, RepeatedApplyWithReusedWorkspaceIsStable) {
  // Workspace reuse across rounds must not change results: scratch is
  // zero-filled on acquisition, so round 2 cannot see round 1's data.
  util::Rng rng(30);
  Sequential net;
  net.Emplace<Linear>(6, 6, &rng);
  net.Emplace<ReLU>();
  net.Emplace<Linear>(6, 2, &rng);
  Matrix x1 = Matrix::Gaussian(4, 6, 1.0, &rng);
  Matrix x2 = Matrix::Gaussian(4, 6, 1.0, &rng);
  Workspace ws;
  ws.Reset();
  Matrix first = net.Apply(x1, &ws);  // copy out before reuse
  ws.Reset();
  net.Apply(x2, &ws);  // interleave different input
  ws.Reset();
  ExpectBitIdentical(net.Apply(x1, &ws), first);
  size_t pooled = ws.pooled();
  ws.Reset();
  net.Apply(x1, &ws);
  EXPECT_EQ(ws.pooled(), pooled);  // steady state: no new slots
}

}  // namespace
}  // namespace sato::nn
