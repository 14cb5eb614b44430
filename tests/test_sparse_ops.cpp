#include "sparse/ops.hpp"

#include <gtest/gtest.h>

#include "dense/blas.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

class SparseDensity : public ::testing::TestWithParam<double> {};

TEST_P(SparseDensity, SpmvMatchesDense) {
  const Matrix d = testing::random_matrix(11, 8, 91);
  const CscMatrix a = CscMatrix::from_dense(d, GetParam());
  const Matrix x = testing::random_matrix(8, 1, 92);
  std::vector<double> y(11);
  spmv(a, x.col(0), y.data());
  const Matrix ref = matmul(a.to_dense(), x);
  for (Index i = 0; i < 11; ++i) EXPECT_NEAR(y[i], ref(i, 0), 1e-12);
}

TEST_P(SparseDensity, SpmvTMatchesDense) {
  const Matrix d = testing::random_matrix(11, 8, 93);
  const CscMatrix a = CscMatrix::from_dense(d, GetParam());
  const Matrix x = testing::random_matrix(11, 1, 94);
  std::vector<double> y(8);
  spmv_t(a, x.col(0), y.data());
  const Matrix ref = matmul_tn(a.to_dense(), x);
  for (Index i = 0; i < 8; ++i) EXPECT_NEAR(y[i], ref(i, 0), 1e-12);
}

TEST_P(SparseDensity, SpmmMatchesDense) {
  const Matrix d = testing::random_matrix(13, 9, 95);
  const CscMatrix a = CscMatrix::from_dense(d, GetParam());
  const Matrix b = testing::random_matrix(9, 4, 96);
  testing::expect_near_matrix(spmm(a, b), matmul(a.to_dense(), b), 1e-11);
}

TEST_P(SparseDensity, SpmmTMatchesDense) {
  const Matrix d = testing::random_matrix(13, 9, 97);
  const CscMatrix a = CscMatrix::from_dense(d, GetParam());
  const Matrix b = testing::random_matrix(13, 4, 98);
  testing::expect_near_matrix(spmm_t(a, b), matmul_tn(a.to_dense(), b), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Densities, SparseDensity,
                         ::testing::Values(0.0, 0.4, 1.2, 3.0));

TEST(ResidualFro, MatchesExplicitResidual) {
  const Matrix d = testing::random_matrix(20, 15, 101);
  const CscMatrix a = CscMatrix::from_dense(d, 0.8);
  const Matrix h = testing::random_matrix(20, 4, 102);
  const Matrix w = testing::random_matrix(4, 15, 103);
  Matrix explicit_res = matmul(h, w);
  gemm(explicit_res, a.to_dense(), Matrix::identity(15), -1.0, 1.0);
  EXPECT_NEAR(residual_fro(a, h, w), explicit_res.frobenius_norm(), 1e-10);
}

TEST(ResidualFro, ZeroForExactFactorization) {
  const Matrix h = testing::random_matrix(9, 3, 104);
  const Matrix w = testing::random_matrix(3, 9, 105);
  const CscMatrix a = CscMatrix::from_dense(matmul(h, w));
  EXPECT_NEAR(residual_fro(a, h, w), 0.0, 1e-10);
}

TEST(DenseRowSubset, CompressesRows) {
  const Matrix d = testing::random_matrix(10, 4, 107);
  const CscMatrix a = CscMatrix::from_dense(d, 0.7);
  const std::vector<Index> rows = {1, 4, 7};
  const Matrix s = dense_row_subset(a, rows);
  ASSERT_EQ(s.rows(), 3);
  const Matrix full = a.to_dense();
  for (Index j = 0; j < 4; ++j)
    for (std::size_t r = 0; r < rows.size(); ++r)
      EXPECT_EQ(s(static_cast<Index>(r), j), full(rows[r], j));
}

}  // namespace
}  // namespace lra
