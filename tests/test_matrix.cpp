#include "dense/matrix.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <vector>

#include "par/pool.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix a(3, 4);
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 3; ++i) EXPECT_EQ(a(i, j), 0.0);
}

TEST(Matrix, IdentityDiagonal) {
  const Matrix i = Matrix::identity(5);
  for (Index r = 0; r < 5; ++r)
    for (Index c = 0; c < 5; ++c) EXPECT_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix a(3, 2);
  a(2, 1) = 7.0;
  EXPECT_EQ(a.data()[2 + 1 * 3], 7.0);
  EXPECT_EQ(a.col(1)[2], 7.0);
}

TEST(Matrix, GaussianReproducible) {
  const Matrix a = Matrix::gaussian(10, 10, 5, 1);
  const Matrix b = Matrix::gaussian(10, 10, 5, 1);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  const Matrix c = Matrix::gaussian(10, 10, 5, 2);
  EXPECT_GT(max_abs_diff(a, c), 0.0);
}

// The pool fills pair-aligned chunks of the counter stream; the result must
// be the one-thread CounterRng loop bit for bit, at every pool width and
// inside a ScopedSerial scope, for element counts around the fork threshold,
// odd counts (a half-used last pair) and single columns.
TEST(Matrix, GaussianMatchesSerialStream) {
  const int saved = ThreadPool::global().num_threads();
  const Index t = Matrix::kGaussianForkElems;
  const Index shapes[][2] = {{1, 1},          {7, 3},        {t - 1, 1},
                             {t / 4, 4},      {t + 1, 1},    {2 * t + 3, 1},
                             {257, 33},       {t / 2 + 1, 9}, {9 * t + 7, 1},
                             {2450, 32}};
  for (const auto& s : shapes) {
    const Index rows = s[0], cols = s[1];
    std::vector<double> want(static_cast<std::size_t>(rows * cols));
    CounterRng rng(17, 5);
    for (double& v : want) v = rng.gaussian();
    const auto same = [&](const Matrix& a) {
      return a.rows() == rows && a.cols() == cols &&
             std::memcmp(a.data(), want.data(),
                         want.size() * sizeof(double)) == 0;
    };
    for (int w : {1, 2, 8}) {
      ThreadPool::global().set_num_threads(w);
      EXPECT_TRUE(same(Matrix::gaussian(rows, cols, 17, 5)))
          << rows << " x " << cols << " width " << w;
      ThreadPool::ScopedSerial serial;
      EXPECT_TRUE(same(Matrix::gaussian(rows, cols, 17, 5)))
          << rows << " x " << cols << " width " << w << " serial scope";
    }
  }
  ThreadPool::global().set_num_threads(saved);
}

TEST(Matrix, BlockExtractAndSet) {
  Matrix a = testing::random_matrix(6, 7, 1);
  const Matrix b = a.block(1, 2, 3, 4);
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 3; ++i) EXPECT_EQ(b(i, j), a(1 + i, 2 + j));
  Matrix c(6, 7);
  c.set_block(1, 2, b);
  EXPECT_EQ(c(1, 2), a(1, 2));
  EXPECT_EQ(c(3, 5), a(3, 5));
  EXPECT_EQ(c(0, 0), 0.0);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a = testing::random_matrix(5, 8, 2);
  testing::expect_near_matrix(a.transposed().transposed(), a, 0.0);
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 8);
  EXPECT_EQ(t.cols(), 5);
  EXPECT_EQ(t(3, 2), a(2, 3));
}

TEST(Matrix, AppendColsAndRows) {
  Matrix a = testing::random_matrix(4, 2, 3);
  const Matrix b = testing::random_matrix(4, 3, 4);
  Matrix ab = a;
  ab.append_cols(b);
  EXPECT_EQ(ab.cols(), 5);
  EXPECT_EQ(ab(2, 1), a(2, 1));
  EXPECT_EQ(ab(2, 3), b(2, 1));

  Matrix r = a;
  const Matrix c = testing::random_matrix(2, 2, 5);
  r.append_rows(c);
  EXPECT_EQ(r.rows(), 6);
  EXPECT_EQ(r(5, 1), c(1, 1));
}

TEST(Matrix, AppendToEmpty) {
  Matrix e;
  const Matrix b = testing::random_matrix(4, 3, 6);
  e.append_cols(b);
  testing::expect_near_matrix(e, b, 0.0);
  Matrix e2;
  e2.append_rows(b);
  testing::expect_near_matrix(e2, b, 0.0);
}

TEST(Matrix, FrobeniusNormMatchesManualSum) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.frobenius_norm_sq(), 25.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
}

TEST(Matrix, Scale) {
  Matrix a = Matrix::identity(3);
  a.scale(2.5);
  EXPECT_EQ(a(1, 1), 2.5);
  EXPECT_EQ(a(0, 1), 0.0);
}

TEST(Matrix, EmptyShapes) {
  Matrix a(0, 5);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.frobenius_norm(), 0.0);
  Matrix b(5, 0);
  EXPECT_TRUE(b.empty());
}

// append_rows grows its storage in place and spreads the old columns
// through it; every append must leave exactly what set_block would assemble.
// The blocks start from an empty matrix and include a 0-row block (no
// storage: the in-place path must not hand memcpy/memmove a null pointer).
TEST(Matrix, AppendRowsMatchesSetBlockAssembly) {
  const Index cols = 7;
  const Index heights[] = {3, 1, 0, 32, 5, 0, 17, 2, 64, 1};
  std::vector<Matrix> blocks;
  Index total = 0;
  for (Index i = 0; i < static_cast<Index>(std::size(heights)); ++i) {
    blocks.push_back(testing::random_matrix(heights[i], cols, 90 + i));
    total += heights[i];
  }
  Matrix want(total, cols);
  Index r0 = 0;
  Matrix grown(0, cols);
  for (const Matrix& blk : blocks) {
    want.set_block(r0, 0, blk);
    r0 += blk.rows();
    grown.append_rows(blk);
    ASSERT_EQ(grown.rows(), r0);
    ASSERT_EQ(grown.cols(), cols);
    EXPECT_EQ(std::memcmp(grown.data(), want.block(0, 0, r0, cols).data(),
                          static_cast<std::size_t>(grown.size()) *
                              sizeof(double)),
              0)
        << "after " << r0 << " rows";
  }
  // Appending a matrix to itself doubles it.
  Matrix twice = blocks[0];
  twice.append_rows(twice);
  Matrix stacked = blocks[0];
  stacked.append_rows(blocks[0]);
  EXPECT_EQ(twice, stacked);
}

// Zero-row blocks own no storage (a null data pointer), so every copy path
// must skip them instead of calling memcpy from/to null — UBSan flags that
// even at size 0. RandQB_EI reaches this by appending its first block row to
// an empty 0 x n B.
TEST(Matrix, ZeroRowCopiesAreSkipped) {
  Matrix b(0, 3);
  const Matrix c = testing::random_matrix(2, 3, 7);
  b.append_rows(c);
  testing::expect_near_matrix(b, c, 0.0);

  Matrix d = c;
  d.append_rows(Matrix(0, 3));
  testing::expect_near_matrix(d, c, 0.0);

  const Matrix none = c.block(1, 0, 0, 3);
  EXPECT_EQ(none.rows(), 0);
  EXPECT_EQ(none.cols(), 3);
  Matrix e(0, 3);
  EXPECT_EQ(e.block(0, 1, 0, 2).cols(), 2);
  e.set_block(0, 0, Matrix(0, 2));
  EXPECT_EQ(e.rows(), 0);
}

}  // namespace
}  // namespace lra
