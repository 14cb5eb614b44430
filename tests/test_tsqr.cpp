#include "dense/tsqr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dense/blas.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

class TsqrBlocks : public ::testing::TestWithParam<int> {};

TEST_P(TsqrBlocks, ReconstructsInput) {
  const int block = GetParam();
  const Matrix a = testing::random_matrix(97, 8, 41);
  const TsqrResult f = tsqr(a, block);
  testing::expect_near_matrix(matmul(f.q, f.r), a, 1e-11 * 100);
}

TEST_P(TsqrBlocks, QIsOrthonormal) {
  const int block = GetParam();
  const Matrix a = testing::random_matrix(97, 8, 42);
  const TsqrResult f = tsqr(a, block);
  EXPECT_LT(testing::orthogonality_defect(f.q), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, TsqrBlocks, ::testing::Values(8, 13, 50, 97, 200));

TEST(Tsqr, RMatchesGram) {
  const Matrix a = testing::random_matrix(60, 5, 44);
  const Matrix r = tsqr(a, 10).r;
  // R^T R == A^T A.
  testing::expect_near_matrix(matmul_tn(r, r), matmul_tn(a, a), 1e-9);
}

TEST(Tsqr, SquareInputSingleBlock) {
  const Matrix a = testing::random_matrix(6, 6, 45);
  const TsqrResult f = tsqr(a, 6);
  testing::expect_near_matrix(matmul(f.q, f.r), a, 1e-12 * 10);
}

}  // namespace
}  // namespace lra
