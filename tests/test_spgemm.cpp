#include "sparse/spgemm.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "dense/blas.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

CscMatrix random_csc(Index m, Index n, double drop, std::uint64_t seed) {
  return CscMatrix::from_dense(testing::random_matrix(m, n, seed), drop);
}

class SpgemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SpgemmShapes, MatchesDenseProduct) {
  const auto [m, k, n, drop] = GetParam();
  const CscMatrix a = random_csc(m, k, drop, 111);
  const CscMatrix b = random_csc(k, n, drop, 112);
  const CscMatrix c = spgemm(a, b);
  EXPECT_TRUE(c.structurally_valid());
  testing::expect_near_matrix(c.to_dense(),
                              matmul(a.to_dense(), b.to_dense()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpgemmShapes,
    ::testing::Values(std::tuple{5, 5, 5, 0.0}, std::tuple{12, 7, 9, 0.8},
                      std::tuple{30, 30, 30, 1.5}, std::tuple{1, 8, 1, 0.5},
                      std::tuple{20, 1, 20, 0.0}));

TEST(Spadd, LinearCombination) {
  const CscMatrix a = random_csc(8, 8, 0.7, 113);
  const CscMatrix b = random_csc(8, 8, 0.7, 114);
  const CscMatrix c = spadd(a, b, 2.0, -0.5);
  Matrix ref = a.to_dense();
  ref.scale(2.0);
  Matrix bd = b.to_dense();
  bd.scale(-0.5);
  gemm(ref, bd, Matrix::identity(8), 1.0, 1.0);
  testing::expect_near_matrix(c.to_dense(), ref, 1e-12);
  EXPECT_TRUE(c.structurally_valid());
}

TEST(Spadd, DisjointPatternsUnion) {
  Matrix da(3, 3), db(3, 3);
  da(0, 0) = 1.0;
  db(2, 2) = 2.0;
  const CscMatrix c =
      spadd(CscMatrix::from_dense(da), CscMatrix::from_dense(db));
  EXPECT_EQ(c.nnz(), 2);
}

TEST(SchurUpdate, MatchesComposedOps) {
  const CscMatrix a = random_csc(15, 12, 0.9, 115);
  const CscMatrix l = random_csc(15, 4, 0.6, 116);
  const CscMatrix u = random_csc(4, 12, 0.6, 117);
  const CscMatrix s1 = schur_update(a, l, u);
  const CscMatrix s2 = spadd(a, spgemm(l, u), 1.0, -1.0);
  testing::expect_near_matrix(s1.to_dense(), s2.to_dense(), 1e-12);
}

TEST(SchurUpdate, StoresNoExactCancellation) {
  // L U = [6 2; 3 1] cancels A's first column exactly; spgemm-style
  // accumulation would store two explicit zeros there.
  Matrix da(2, 2), dl(2, 1), du(1, 2);
  da(0, 0) = 6.0;
  da(1, 0) = 3.0;
  da(0, 1) = 5.0;
  da(1, 1) = 4.0;
  dl(0, 0) = 2.0;
  dl(1, 0) = 1.0;
  du(0, 0) = 3.0;
  du(0, 1) = 1.0;
  const CscMatrix l = CscMatrix::from_dense(dl);
  const CscMatrix u = CscMatrix::from_dense(du);
  const CscMatrix s = schur_update(CscMatrix::from_dense(da), l, u);
  EXPECT_TRUE(s.structurally_valid());
  EXPECT_EQ(s.col_nnz(0), 0);
  EXPECT_EQ(s.col_nnz(1), 2);
  EXPECT_EQ(s.coeff(0, 1), 3.0);
  EXPECT_EQ(s.coeff(1, 1), 3.0);
  // spgemm keeps its cancellations: they are structural fill-in positions.
  EXPECT_EQ(spgemm(l, u).nnz(), 4);
  EXPECT_EQ(spadd(CscMatrix::from_dense(da), spgemm(l, u), 1.0, -1.0).nnz(), 4);

  // inf - inf is NaN, which is dropped as prune(0.0) would drop it.
  Matrix inf(1, 1);
  inf(0, 0) = std::numeric_limits<double>::infinity();
  Matrix one(1, 1);
  one(0, 0) = 1.0;
  const CscMatrix nan = schur_update(CscMatrix::from_dense(inf),
                                     CscMatrix::from_dense(one),
                                     CscMatrix::from_dense(inf));
  EXPECT_EQ(nan.nnz(), 0);
}

TEST(SchurUpdate, EmptyFactorsReturnA) {
  const CscMatrix a = random_csc(6, 6, 0.5, 118);
  const CscMatrix l(6, 0);
  const CscMatrix u(0, 6);
  testing::expect_near_matrix(schur_update(a, l, u).to_dense(), a.to_dense(),
                              0.0);
}

TEST(Spgemm, FillInAppearsWhereExpected) {
  // Arrow pattern: dense first row/col -> product with itself fills in.
  Matrix d(5, 5);
  for (Index i = 0; i < 5; ++i) {
    d(i, 0) = 1.0;
    d(0, i) = 1.0;
    d(i, i) = 2.0;
  }
  const CscMatrix a = CscMatrix::from_dense(d);
  const CscMatrix aa = spgemm(a, a);
  EXPECT_EQ(aa.nnz(), 25);  // fully dense product
}

}  // namespace
}  // namespace lra
