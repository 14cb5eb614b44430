#include "dense/svd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "dense/bidiag.hpp"
#include "dense/blas.hpp"
#include "dense/jacobi_svd.hpp"
#include "reference_kernels.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

TEST(TridiagEigen, TwoByTwoKnown) {
  // [[2, 1], [1, 2]] -> eigenvalues 1, 3.
  const auto ev = symmetric_tridiagonal_eigenvalues({2.0, 2.0}, {1.0});
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_NEAR(ev[0], 1.0, 1e-12);
  EXPECT_NEAR(ev[1], 3.0, 1e-12);
}

TEST(TridiagEigen, DiagonalMatrix) {
  const auto ev = symmetric_tridiagonal_eigenvalues({3.0, -1.0, 2.0}, {0.0, 0.0});
  EXPECT_NEAR(ev[0], -1.0, 1e-13);
  EXPECT_NEAR(ev[2], 3.0, 1e-13);
}

TEST(TridiagEigen, LaplacianChainHasKnownSpectrum) {
  // Tridiag(-1, 2, -1) of size n: eigenvalues 2 - 2 cos(k pi / (n+1)).
  const int n = 12;
  std::vector<double> d(n, 2.0), e(n - 1, -1.0);
  const auto ev = symmetric_tridiagonal_eigenvalues(d, e);
  for (int k = 1; k <= n; ++k) {
    const double expect = 2.0 - 2.0 * std::cos(k * M_PI / (n + 1));
    EXPECT_NEAR(ev[k - 1], expect, 1e-11);
  }
}

TEST(Bidiagonal, BitwiseMatchesOneAtATimeReference) {
  // The left reflectors run through the swept QR kernel and the right ones
  // four rows per sweep; both must reproduce the one-column / one-row at a
  // time loops bit for bit (the suite's numerical ranks come from here).
  std::vector<Matrix> inputs;
  for (Index n : {1, 2, 5, 16, 17, 31, 64})
    for (Index m : {n, n + 1, n + 2, n + 3})
      inputs.push_back(testing::random_matrix(m, n, 300 + m + n));
  inputs.push_back(testing::random_matrix(9, 40, 301));  // wide: transposed
  Matrix zero_col = testing::random_matrix(30, 12, 302);
  for (Index i = 0; i < zero_col.rows(); ++i) zero_col(i, 5) = 0.0;
  inputs.push_back(zero_col);
  for (const Matrix& a : inputs) {
    const Bidiagonal got = bidiagonalize(a);
    const Bidiagonal want = ref::bidiagonalize(a);
    ASSERT_EQ(got.d.size(), want.d.size());
    ASSERT_EQ(got.e.size(), want.e.size());
    EXPECT_EQ(std::memcmp(got.d.data(), want.d.data(),
                          got.d.size() * sizeof(double)),
              0)
        << "d of " << a.rows() << "x" << a.cols();
    EXPECT_EQ(std::memcmp(got.e.data(), want.e.data(),
                          got.e.size() * sizeof(double)),
              0)
        << "e of " << a.rows() << "x" << a.cols();
  }
}

TEST(SingularValues, DiagonalMatrix) {
  Matrix a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -7.0;
  a(2, 2) = 0.5;
  const auto sv = singular_values(a);
  ASSERT_EQ(sv.size(), 4u);
  EXPECT_NEAR(sv[0], 7.0, 1e-12);
  EXPECT_NEAR(sv[1], 3.0, 1e-12);
  EXPECT_NEAR(sv[2], 0.5, 1e-12);
  EXPECT_NEAR(sv[3], 0.0, 1e-12);
}

TEST(SingularValues, MatchesJacobiOnRandom) {
  const Matrix a = testing::random_matrix(25, 18, 61);
  const auto sv = singular_values(a);
  const auto jac = jacobi_svd(a);
  ASSERT_EQ(sv.size(), jac.sigma.size());
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(sv[i], jac.sigma[i], 1e-9 * jac.sigma[0]);
}

TEST(SingularValues, WideMatrixHandled) {
  const Matrix a = testing::random_matrix(6, 20, 62);
  const auto sv = singular_values(a);
  EXPECT_EQ(sv.size(), 6u);
  const auto svt = singular_values(a.transposed());
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(sv[i], svt[i], 1e-10 * sv[0]);
}

TEST(SingularValues, FrobeniusIdentity) {
  const Matrix a = testing::random_matrix(15, 15, 63);
  const auto sv = singular_values(a);
  double sumsq = 0.0;
  for (double s : sv) sumsq += s * s;
  EXPECT_NEAR(std::sqrt(sumsq), a.frobenius_norm(), 1e-10 * a.frobenius_norm());
}

TEST(SingularValues, KnownRankOneMatrix) {
  // A = u v^T has a single nonzero singular value ||u|| * ||v||.
  Matrix u = testing::random_matrix(9, 1, 64);
  Matrix v = testing::random_matrix(7, 1, 65);
  const Matrix a = matmul_nt(u, v);
  const auto sv = singular_values(a);
  const double expect = nrm2(9, u.col(0)) * nrm2(7, v.col(0));
  EXPECT_NEAR(sv[0], expect, 1e-10 * expect);
  for (std::size_t i = 1; i < sv.size(); ++i)
    EXPECT_LT(sv[i], 1e-10 * expect);
}

TEST(MinRank, ExactTailComputation) {
  const std::vector<double> sigma = {4.0, 2.0, 1.0, 0.5};
  // ||A||_F = sqrt(21.25). tail(2) = sqrt(1.25).
  const double anorm = std::sqrt(21.25);
  EXPECT_EQ(min_rank_for_tolerance(sigma, std::sqrt(1.25) / anorm * 1.001), 2);
  EXPECT_EQ(min_rank_for_tolerance(sigma, 1e-12), 4);
  EXPECT_EQ(min_rank_for_tolerance(sigma, 2.0), 0);
}

TEST(NumericalRank, CountsAboveCutoff) {
  const std::vector<double> sigma = {1.0, 0.5, 1e-8, 1e-12};
  EXPECT_EQ(numerical_rank(sigma, 1e-10), 3);
  EXPECT_EQ(numerical_rank(sigma, 1e-6), 2);
  EXPECT_EQ(numerical_rank({}, 1e-10), 0);
}

}  // namespace
}  // namespace lra
