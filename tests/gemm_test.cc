// Tests for the blocked GEMM kernel (nn/gemm.h): blocked-vs-reference
// parity on all four MatMul routings, edge shapes (1xN, Nx1, empty,
// non-multiple-of-block dims), the reference escape hatch, and the
// dispatch switch.

#include "nn/gemm.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "nn/matrix.h"
#include "util/rng.h"

namespace sato::nn {
namespace {

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a.data()[i] - b.data()[i]));
  }
  return max_diff;
}

struct Shape {
  size_t m, k, n;
};

// Non-multiples of the micro tile (4x8) and of the default cache blocks,
// plus tile-aligned sizes and shapes crossing the mc/kc/nc boundaries.
const std::vector<Shape> kParityShapes = {
    {1, 1, 1},  {1, 7, 1},   {3, 5, 2},    {17, 23, 29},
    {4, 8, 8},  {64, 64, 64}, {65, 63, 66}, {128, 100, 77},
};

TEST(GemmTest, BlockedMatchesReferencePlain) {
  util::Rng rng(11);
  for (const Shape& s : kParityShapes) {
    Matrix a = Matrix::Gaussian(s.m, s.k, 1.0, &rng);
    Matrix b = Matrix::Gaussian(s.k, s.n, 1.0, &rng);
    Matrix blocked, reference;
    gemm::Gemm(a, b, &blocked);
    gemm::ReferenceGemm(a, b, &reference);
    EXPECT_LT(MaxAbsDiff(blocked, reference), 1e-12)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmTest, BlockedMatchesReferenceTransposeA) {
  util::Rng rng(12);
  for (const Shape& s : kParityShapes) {
    Matrix a = Matrix::Gaussian(s.k, s.m, 1.0, &rng);  // stored [k, m]
    Matrix b = Matrix::Gaussian(s.k, s.n, 1.0, &rng);
    Matrix blocked, reference;
    gemm::GemmTransposeA(a, b, &blocked);
    gemm::ReferenceGemmTransposeA(a, b, &reference);
    EXPECT_LT(MaxAbsDiff(blocked, reference), 1e-12)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmTest, BlockedMatchesReferenceTransposeB) {
  util::Rng rng(13);
  for (const Shape& s : kParityShapes) {
    Matrix a = Matrix::Gaussian(s.m, s.k, 1.0, &rng);
    Matrix b = Matrix::Gaussian(s.n, s.k, 1.0, &rng);  // stored [n, k]
    Matrix blocked, reference;
    gemm::GemmTransposeB(a, b, &blocked);
    gemm::ReferenceGemmTransposeB(a, b, &reference);
    EXPECT_LT(MaxAbsDiff(blocked, reference), 1e-12)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmTest, PublicMatMulRoutingsMatchReference) {
  util::Rng rng(14);
  Matrix a = Matrix::Gaussian(33, 45, 1.0, &rng);
  Matrix b = Matrix::Gaussian(45, 27, 1.0, &rng);
  Matrix reference;
  gemm::ReferenceGemm(a, b, &reference);
  EXPECT_LT(MaxAbsDiff(MatMul(a, b), reference), 1e-12);

  Matrix into(33, 27, /*fill=*/123.0);  // stale contents must be overwritten
  MatMulInto(a, b, &into);
  EXPECT_EQ(into, MatMul(a, b));  // bit-identical, full overwrite

  Matrix at = Matrix::Gaussian(45, 33, 1.0, &rng);
  Matrix ta_ref;
  gemm::ReferenceGemmTransposeA(at, b, &ta_ref);
  EXPECT_LT(MaxAbsDiff(MatMulTransposeA(at, b), ta_ref), 1e-12);

  Matrix bt = Matrix::Gaussian(27, 45, 1.0, &rng);
  Matrix tb_ref;
  gemm::ReferenceGemmTransposeB(a, bt, &tb_ref);
  EXPECT_LT(MaxAbsDiff(MatMulTransposeB(a, bt), tb_ref), 1e-12);
}

TEST(GemmTest, TinyBlockConfigCrossesEveryBlockBoundary) {
  // Blocks far smaller than the matrix force multi-slab jc/pc/ic loops and
  // partial edge tiles in every dimension at once.
  gemm::Config tiny;
  tiny.mc = 8;
  tiny.kc = 8;
  tiny.nc = 16;
  util::Rng rng(15);
  Matrix a = Matrix::Gaussian(17, 23, 1.0, &rng);
  Matrix b = Matrix::Gaussian(23, 29, 1.0, &rng);
  Matrix blocked, reference;
  gemm::Gemm(a, b, &blocked, tiny);
  gemm::ReferenceGemm(a, b, &reference);
  EXPECT_LT(MaxAbsDiff(blocked, reference), 1e-12);
}

TEST(GemmTest, EdgeShapesRowAndColumnVectors) {
  util::Rng rng(16);
  // 1xN: a single-row batch (the per-column inference path).
  Matrix a1 = Matrix::Gaussian(1, 64, 1.0, &rng);
  Matrix b1 = Matrix::Gaussian(64, 32, 1.0, &rng);
  Matrix c1, r1;
  gemm::Gemm(a1, b1, &c1);
  gemm::ReferenceGemm(a1, b1, &r1);
  EXPECT_LT(MaxAbsDiff(c1, r1), 1e-12);

  // Nx1 output column.
  Matrix b2 = Matrix::Gaussian(64, 1, 1.0, &rng);
  Matrix a2 = Matrix::Gaussian(32, 64, 1.0, &rng);
  Matrix c2, r2;
  gemm::Gemm(a2, b2, &c2);
  gemm::ReferenceGemm(a2, b2, &r2);
  EXPECT_LT(MaxAbsDiff(c2, r2), 1e-12);

  // Inner dimension 1 (outer product).
  Matrix a3 = Matrix::Gaussian(5, 1, 1.0, &rng);
  Matrix b3 = Matrix::Gaussian(1, 7, 1.0, &rng);
  Matrix c3, r3;
  gemm::Gemm(a3, b3, &c3);
  gemm::ReferenceGemm(a3, b3, &r3);
  EXPECT_LT(MaxAbsDiff(c3, r3), 1e-12);
}

TEST(GemmTest, EmptyShapesAreWellDefined) {
  // M == 0 and N == 0 yield empty results of the right shape.
  Matrix c;
  gemm::Gemm(Matrix(0, 4), Matrix(4, 5), &c);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 5u);
  gemm::Gemm(Matrix(4, 5), Matrix(5, 0), &c);
  EXPECT_EQ(c.rows(), 4u);
  EXPECT_EQ(c.cols(), 0u);
  // K == 0 is an empty sum: the output exists and is all zeros.
  gemm::Gemm(Matrix(4, 0), Matrix(0, 5), &c);
  ASSERT_EQ(c.rows(), 4u);
  ASSERT_EQ(c.cols(), 5u);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0.0);
}

TEST(GemmTest, ShapeMismatchThrowsOnEveryVariant) {
  Matrix a(2, 3), b(2, 3);
  Matrix c;
  EXPECT_THROW(gemm::Gemm(a, b, &c), std::invalid_argument);
  Matrix ta(3, 2), tb(2, 4);  // A^T*B needs a.rows == b.rows
  EXPECT_THROW(gemm::GemmTransposeA(ta, tb, &c), std::invalid_argument);
  Matrix ba(2, 3), bb(4, 2);  // A*B^T needs a.cols == b.cols
  EXPECT_THROW(gemm::GemmTransposeB(ba, bb, &c), std::invalid_argument);
  Matrix bad_out(5, 5);
  Matrix ga(2, 3), gb(3, 4);
  EXPECT_THROW(MatMulInto(ga, gb, &bad_out), std::invalid_argument);
}

TEST(GemmTest, ReferenceEscapeHatchIsBitwiseReference) {
  gemm::Config ref;
  ref.use_reference = true;
  EXPECT_EQ(gemm::KernelName(ref), "reference");
  util::Rng rng(17);
  Matrix a = Matrix::Gaussian(19, 31, 1.0, &rng);
  Matrix b = Matrix::Gaussian(31, 21, 1.0, &rng);
  Matrix via_config, direct;
  gemm::Gemm(a, b, &via_config, ref);
  gemm::ReferenceGemm(a, b, &direct);
  EXPECT_EQ(via_config, direct);  // same code path: bitwise equal
}

TEST(GemmTest, CpuDispatchDisabledStaysWithinTolerance) {
  gemm::Config generic;
  generic.enable_cpu_dispatch = false;
  EXPECT_EQ(gemm::KernelName(generic), "blocked-generic");
  util::Rng rng(18);
  Matrix a = Matrix::Gaussian(40, 52, 1.0, &rng);
  Matrix b = Matrix::Gaussian(52, 36, 1.0, &rng);
  Matrix dispatched, portable;
  gemm::Gemm(a, b, &dispatched);  // DefaultConfig: dispatch enabled
  gemm::Gemm(a, b, &portable, generic);
  EXPECT_LT(MaxAbsDiff(dispatched, portable), 1e-12);
}

TEST(GemmTest, KernelNameReflectsConfig) {
  // DefaultConfig honours SATO_DISABLE_CPU_DISPATCH, so only pin the name
  // set here and the explicit dispatch-off spelling.
  std::string name = gemm::KernelName(gemm::DefaultConfig());
  EXPECT_TRUE(name == "blocked-avx2fma" || name == "blocked-generic") << name;

  gemm::Config scalar;
  scalar.enable_cpu_dispatch = false;
  EXPECT_EQ(gemm::KernelName(scalar), "blocked-generic");

  gemm::Config reference = gemm::DefaultConfig();
  reference.use_reference = true;  // the escape hatch wins over dispatch
  EXPECT_EQ(gemm::KernelName(reference), "reference");
}

}  // namespace
}  // namespace sato::nn
