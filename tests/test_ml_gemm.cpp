// Tests for the blocked/dispatched GEMM kernel family: equivalence with a
// straightforward reference across awkward shapes, accumulate semantics,
// and the bit-identical serial-vs-parallel determinism contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "qif/exec/thread_pool.hpp"
#include "qif/ml/gemm.hpp"
#include "qif/sim/rng.hpp"

namespace qif::ml {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m(r, c);
  sim::Rng rng(seed);
  for (auto& v : m.data()) v = rng.normal(0, 1);
  return m;
}

// Reference implementations: textbook triple loops, no blocking.
Matrix ref_nn(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a.at(i, k) * b.at(k, j);
      c.at(i, j) = s;
    }
  }
  return c;
}

Matrix ref_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) s += a.at(k, i) * b.at(k, j);
      c.at(i, j) = s;
    }
  }
  return c;
}

Matrix ref_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a.at(i, k) * b.at(j, k);
      c.at(i, j) = s;
    }
  }
  return c;
}

// The kernels may contract multiply-adds into FMAs and the reference may
// not, so equivalence is near-equality scaled to the reduction length.
void expect_near(const Matrix& got, const Matrix& want, std::size_t k_extent) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  const double tol = 1e-12 * static_cast<double>(k_extent + 1);
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      EXPECT_NEAR(got.at(i, j), want.at(i, j), tol) << "at (" << i << "," << j << ")";
    }
  }
}

// Shapes chosen to exercise every kernel path: single element, tall/skinny
// (row-tile tails), short/wide (column-tile tails), sizes straddling the
// 32/8-wide column tiles, and the 4-wide row tile.  The last five are the
// trainer's dX = dY·Wᵀ shapes at batch 64 (m x k times (n x k)ᵀ: the
// kernel's 64->32 and 32->1 layers over 7 servers, the 7->32 head layer)
// and widths that are no multiple of 8 or 32.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},     {4, 1, 4},    {1, 7, 1},     {3, 5, 2},     {100, 3, 2},   {3, 100, 5},
    {7, 13, 9},    {8, 8, 8},    {33, 17, 33},  {40, 37, 64},  {64, 64, 32},  {31, 2, 65},
    {5, 40, 24},   {448, 32, 64}, {64, 32, 7},  {448, 1, 32},  {13, 29, 37},  {6, 3, 45},
};

// Row-major transpose, for the NT-equals-NN-on-Bᵀ identity.
Matrix transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) t.at(j, i) = m.at(i, j);
  }
  return t;
}

void expect_bit_identical(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t t = 0; t < got.data().size(); ++t) {
    ASSERT_EQ(got.data()[t], want.data()[t]) << what << " idx=" << t;
  }
}

TEST(Gemm, MatchesReferenceAcrossShapes) {
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, 1000 + s.m);
    const Matrix b = random_matrix(s.k, s.n, 2000 + s.n);
    const Matrix bt = random_matrix(s.n, s.k, 3000 + s.n);  // for NT
    const Matrix at = random_matrix(s.k, s.m, 4000 + s.m);  // for TN
    Matrix c;
    gemm_nn(a, b, c);
    expect_near(c, ref_nn(a, b), s.k);
    gemm_tn(at, b, c);
    expect_near(c, ref_tn(at, b), s.k);
    gemm_nt(a, bt, c);
    expect_near(c, ref_nt(a, bt), s.k);
  }
}

TEST(Gemm, MatmulWrappersStillAgreeWithEachOther) {
  // Matrix::matmul* route through the new kernels; cross-check the three
  // variants against each other the same way the legacy tests did.
  const Matrix a = random_matrix(9, 14, 5);
  const Matrix b = random_matrix(14, 11, 6);
  const Matrix nn = Matrix::matmul(a, b);
  expect_near(nn, ref_nn(a, b), 14);
}

TEST(Gemm, EmptyOperandsYieldEmptyOrZeroOutputs) {
  Matrix c;
  const Matrix a0(0, 5);
  const Matrix b0(5, 0);
  gemm_nn(a0, random_matrix(5, 3, 1), c);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 3u);
  gemm_nn(random_matrix(3, 5, 2), b0, c);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 0u);
  // k == 0: output is well-shaped and zero-filled.
  const Matrix ak(4, 0);
  const Matrix bk(0, 6);
  gemm_nn(ak, bk, c);
  ASSERT_EQ(c.rows(), 4u);
  ASSERT_EQ(c.cols(), 6u);
  for (const double v : c.data()) EXPECT_EQ(v, 0.0);
}

TEST(Gemm, AccumulateAddsOntoExistingOutput) {
  const Matrix a = random_matrix(10, 6, 7);
  const Matrix b = random_matrix(6, 9, 8);
  Matrix base = random_matrix(10, 9, 9);
  Matrix c = base;
  gemm_nn(a, b, c, /*accumulate=*/true);
  const Matrix prod = ref_nn(a, b);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c.at(i, j), base.at(i, j) + prod.at(i, j), 1e-11);
    }
  }
}

TEST(Gemm, NtAccumulateAddsOntoExistingOutput) {
  const Matrix a = random_matrix(10, 6, 17);
  const Matrix b = random_matrix(9, 6, 18);  // C = A·Bᵀ is 10 x 9
  const Matrix base = random_matrix(10, 9, 19);
  Matrix c = base;
  gemm_nt(a, b, c, /*accumulate=*/true);
  const Matrix prod = ref_nt(a, b);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c.at(i, j), base.at(i, j) + prod.at(i, j), 1e-11);
    }
  }
  // Bitwise, accumulating NT is accumulating NN on Bᵀ.
  Matrix nn = base;
  gemm_nn(a, transposed(b), nn, /*accumulate=*/true);
  expect_bit_identical(c, nn, "nt accumulate");
}

TEST(Gemm, NtIsBitIdenticalToNnOnTransposedB) {
  // NT transposes B and runs the NN kernel, so the two share one
  // reduction order: gemm_nt(a, b) == gemm_nn(a, bᵀ) bit for bit, serial
  // and pooled.
  exec::ThreadPool pool(3);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, 5000 + s.m);
    const Matrix b = random_matrix(s.n, s.k, 6000 + s.n);
    Matrix nt, nn;
    gemm_nt(a, b, nt);
    gemm_nn(a, transposed(b), nn);
    expect_bit_identical(nt, nn, "nt vs nn");
    gemm_nt(a, b, nt, false, &pool);
    expect_bit_identical(nt, nn, "pooled nt vs nn");
  }
}

TEST(Gemm, AccumulateRejectsWrongShape) {
  const Matrix a = random_matrix(4, 3, 1);
  const Matrix b = random_matrix(3, 5, 2);
  Matrix c(2, 2);
  EXPECT_THROW(gemm_nn(a, b, c, /*accumulate=*/true), std::invalid_argument);
}

TEST(Gemm, ShapeMismatchThrows) {
  const Matrix a = random_matrix(4, 3, 1);
  const Matrix b = random_matrix(4, 5, 2);
  Matrix c;
  EXPECT_THROW(gemm_nn(a, b, c), std::invalid_argument);
  const Matrix b2 = random_matrix(5, 4, 3);
  EXPECT_THROW(gemm_tn(a, b2, c), std::invalid_argument);
  EXPECT_THROW(gemm_nt(a, b2, c), std::invalid_argument);
}

TEST(Gemm, OutputAliasingAnInputThrows) {
  Matrix a = random_matrix(8, 8, 4);
  const Matrix b = random_matrix(8, 8, 5);
  EXPECT_THROW(gemm_nn(a, b, a), std::invalid_argument);
  // Also when the resize would change shape (and could reallocate).
  Matrix a2 = random_matrix(8, 4, 6);
  const Matrix b2 = random_matrix(4, 32, 7);
  EXPECT_THROW(gemm_nn(a2, b2, a2), std::invalid_argument);
}

TEST(Gemm, ReshapedViewComputesOnSameMemory) {
  // (2, 6) and (4, 3) views of the same buffer feed the same reduction.
  const Matrix a = random_matrix(2, 6, 11);
  const Matrix b = random_matrix(3, 5, 12);
  Matrix c;
  gemm_nn(MatView(a).reshaped(4, 3), b, c);
  Matrix flat(4, 3);
  flat.data() = a.data();
  expect_near(c, ref_nn(flat, b), 3);
}

TEST(Gemm, ParallelIsBitIdenticalToSerial) {
  // Big enough to clear the parallel threshold (96*40*40 = 153.6k madds).
  const Matrix a = random_matrix(96, 40, 21);
  const Matrix b = random_matrix(40, 40, 22);
  const Matrix at = random_matrix(40, 96, 23);  // TN: output rows = a.cols
  Matrix serial_nn, serial_tn, serial_nt;
  gemm_nn(a, b, serial_nn);
  gemm_tn(at, b, serial_tn);
  gemm_nt(a, b, serial_nt);
  for (const int jobs : {2, 3, 4, 7}) {
    exec::ThreadPool pool(jobs);
    Matrix par;
    gemm_nn(a, b, par, false, &pool);
    ASSERT_EQ(par.data().size(), serial_nn.data().size());
    for (std::size_t t = 0; t < par.data().size(); ++t) {
      ASSERT_EQ(par.data()[t], serial_nn.data()[t]) << "nn jobs=" << jobs << " idx=" << t;
    }
    gemm_tn(at, b, par, false, &pool);
    for (std::size_t t = 0; t < par.data().size(); ++t) {
      ASSERT_EQ(par.data()[t], serial_tn.data()[t]) << "tn jobs=" << jobs << " idx=" << t;
    }
    gemm_nt(a, b, par, false, &pool);
    for (std::size_t t = 0; t < par.data().size(); ++t) {
      ASSERT_EQ(par.data()[t], serial_nt.data()[t]) << "nt jobs=" << jobs << " idx=" << t;
    }
  }
}

TEST(Gemm, ParallelHandlesRowCountsAroundBlockBoundaries) {
  // Row counts that don't divide evenly across workers or the 4-row tile.
  exec::ThreadPool pool(3);
  for (const std::size_t m : {9u, 61u, 97u, 128u}) {
    const Matrix a = random_matrix(m, 48, 31 + m);
    const Matrix b = random_matrix(48, 40, 32);
    Matrix serial, par;
    gemm_nn(a, b, serial);
    gemm_nn(a, b, par, false, &pool);
    ASSERT_EQ(par.data().size(), serial.data().size());
    for (std::size_t t = 0; t < par.data().size(); ++t) {
      ASSERT_EQ(par.data()[t], serial.data()[t]) << "m=" << m << " idx=" << t;
    }
  }
}

TEST(Gemm, RowResultsAreIndependentOfRowCount) {
  // The serving contract: a row's output bits must not depend on how many
  // other rows share the call.  Regression for the padded-tail rework —
  // the old separate single-row remainder loop FMA-contracted differently
  // from the 4-row micro-kernel, so the same row produced different last
  // bits at m=1 than inside a larger batch.  Shapes cover the serving head
  // layers, the kernel stage, and tile-tail row counts.
  for (const Shape s : {Shape{4, 7, 32}, Shape{4, 32, 2}, Shape{28, 37, 64},
                        Shape{7, 37, 64}, Shape{5, 7, 32}, Shape{3, 13, 9}}) {
    const Matrix a = random_matrix(s.m, s.k, 500 + s.m);
    const Matrix b = random_matrix(s.k, s.n, 600 + s.n);
    const Matrix bt = random_matrix(s.n, s.k, 700 + s.n);
    Matrix full_nn, full_nt;
    gemm_nn(a, b, full_nn);
    gemm_nt(a, bt, full_nt);
    for (std::size_t i = 0; i < s.m; ++i) {
      const MatView row(a.row(i), 1, s.k);
      Matrix one;
      gemm_nn(row, b, one);
      for (std::size_t j = 0; j < s.n; ++j) {
        ASSERT_EQ(one.at(0, j), full_nn.at(i, j))
            << "nn m=" << s.m << " row " << i << " col " << j;
      }
      gemm_nt(row, bt, one);
      for (std::size_t j = 0; j < s.n; ++j) {
        ASSERT_EQ(one.at(0, j), full_nt.at(i, j))
            << "nt m=" << s.m << " row " << i << " col " << j;
      }
    }
  }
}

TEST(MatrixResize, ShrinkReusesAllocation) {
  Matrix m(10, 10);
  for (auto& v : m.data()) v = 3.5;
  const double* before = m.data().data();
  m.resize(5, 4);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.data().data(), before);  // shrink must not reallocate
  m.resize(10, 10);  // grow back within capacity: still no reallocation
  EXPECT_EQ(m.data().data(), before);
}

}  // namespace
}  // namespace qif::ml
