#include "dense/qrcp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dense/blas.hpp"
#include "sparse/permute.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

Matrix select_cols(const Matrix& a, const std::vector<Index>& cols) {
  Matrix out(a.rows(), static_cast<Index>(cols.size()));
  for (std::size_t j = 0; j < cols.size(); ++j)
    for (Index i = 0; i < a.rows(); ++i)
      out(i, static_cast<Index>(j)) = a(i, cols[j]);
  return out;
}

TEST(Qrcp, ReconstructsPermutedInput) {
  const Matrix a = testing::random_matrix(20, 12, 31);
  QRCP f(a);
  const Matrix ap = select_cols(a, f.perm());
  testing::expect_near_matrix(matmul(f.thin_q(), f.r()), ap, 1e-10);
}

TEST(Qrcp, PermIsPermutation) {
  const Matrix a = testing::random_matrix(9, 14, 32);
  QRCP f(a);
  EXPECT_TRUE(is_permutation(f.perm()));
}

TEST(Qrcp, DiagonalIsNonIncreasing) {
  const Matrix a = testing::random_matrix(40, 25, 33);
  QRCP f(a);
  for (Index j = 1; j < f.steps(); ++j)
    EXPECT_LE(std::fabs(f.rdiag(j)), std::fabs(f.rdiag(j - 1)) + 1e-12);
}

TEST(Qrcp, FirstPivotIsLargestColumn) {
  Matrix a = testing::random_matrix(10, 5, 34);
  // Make column 3 dominant.
  for (Index i = 0; i < 10; ++i) a(i, 3) *= 100.0;
  QRCP f(a);
  EXPECT_EQ(f.perm()[0], 3);
}

TEST(Qrcp, RevealsExactRank) {
  // Rank-3 matrix: A = U V^T with U, V having 3 columns.
  const Matrix u = testing::random_matrix(20, 3, 35);
  const Matrix v = testing::random_matrix(15, 3, 36);
  const Matrix a = matmul_nt(u, v);
  QRCP f(a);
  EXPECT_EQ(f.rank(1e-10), 3);
}

TEST(Qrcp, MaxStepsLimitsFactorization) {
  const Matrix a = testing::random_matrix(30, 20, 37);
  QRCP f(a, 5);
  EXPECT_EQ(f.steps(), 5);
  EXPECT_EQ(f.thin_q().cols(), 5);
  EXPECT_EQ(f.r().rows(), 5);
  // The 5 selected columns should be reconstructed exactly by Q R(:, 0:5).
  std::vector<Index> lead(f.perm().begin(), f.perm().begin() + 5);
  const Matrix sel = select_cols(a, lead);
  const Matrix qr5 = matmul(f.thin_q(), f.r().block(0, 0, 5, 5));
  testing::expect_near_matrix(qr5, sel, 1e-10);
}

TEST(Qrcp, SelectionBeatsRandomSubsetOnGradedMatrix) {
  // Columns with sharply graded norms: pivoting must pick the heavy ones.
  Matrix a = testing::random_matrix(30, 20, 38);
  for (Index j = 0; j < 20; ++j) {
    const double w = std::pow(10.0, -static_cast<double>(j) / 2.0);
    for (Index i = 0; i < 30; ++i) a(i, j) *= w;
  }
  QRCP f(a, 4);
  std::set<Index> picked(f.perm().begin(), f.perm().begin() + 4);
  for (Index j : picked) EXPECT_LT(j, 8);  // from the heavy half
}

TEST(Qrcp, ZeroMatrix) {
  QRCP f(Matrix(6, 4));
  EXPECT_EQ(f.rank(1e-10), 0);
  EXPECT_TRUE(is_permutation(f.perm()));
}

TEST(Qrcp, WideMatrix) {
  const Matrix a = testing::random_matrix(5, 30, 39);
  QRCP f(a);
  EXPECT_EQ(f.steps(), 5);
  const Matrix ap = select_cols(a, f.perm());
  testing::expect_near_matrix(matmul(f.thin_q(), f.r()), ap, 1e-10);
}

// Column-at-a-time QRCP: one reflector application per trailing column, the
// textbook loop order. QRCP applies each reflector to four columns per sweep
// and must reproduce this reference bit for bit (the tournament winners, and
// with them every LU_CRTP factor, depend on its pivots and R).
void reference_qrcp(Matrix qr, Index kmax, Matrix* r_out, std::vector<Index>* perm) {
  const Index m = qr.rows(), n = qr.cols();
  perm->resize(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) (*perm)[j] = j;
  std::vector<double> cnorm(static_cast<std::size_t>(n));
  std::vector<double> cnorm_ref(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) cnorm_ref[j] = cnorm[j] = nrm2(m, qr.col(j));
  const double tol3z = std::sqrt(2.220446049250313e-16);
  for (Index k = 0; k < kmax; ++k) {
    Index piv = k;
    for (Index j = k + 1; j < n; ++j)
      if (cnorm[j] > cnorm[piv]) piv = j;
    if (piv != k) {
      for (Index i = 0; i < m; ++i) std::swap(qr(i, k), qr(i, piv));
      std::swap(cnorm[k], cnorm[piv]);
      std::swap(cnorm_ref[k], cnorm_ref[piv]);
      std::swap((*perm)[k], (*perm)[piv]);
    }
    double* ck = qr.col(k) + k;
    double tau = 0.0, beta = ck[0];
    const double xnorm = m - k > 1 ? nrm2(m - k - 1, ck + 1) : 0.0;
    if (xnorm != 0.0) {
      beta = -std::copysign(std::hypot(ck[0], xnorm), ck[0]);
      tau = (beta - ck[0]) / beta;
      const double inv = 1.0 / (ck[0] - beta);
      for (Index i = 1; i < m - k; ++i) ck[i] *= inv;
    }
    if (tau != 0.0) {
      for (Index j = k + 1; j < n; ++j) {
        double* cj = qr.col(j) + k;
        double s = cj[0];
        for (Index i = 1; i < m - k; ++i) s += ck[i] * cj[i];
        s *= tau;
        cj[0] -= s;
        for (Index i = 1; i < m - k; ++i) cj[i] -= s * ck[i];
      }
    }
    qr(k, k) = beta;
    for (Index j = k + 1; j < n; ++j) {
      if (cnorm[j] == 0.0) continue;
      double t = std::fabs(qr(k, j)) / cnorm[j];
      t = std::max(0.0, (1.0 + t) * (1.0 - t));
      const double ratio = cnorm[j] / cnorm_ref[j];
      if (t * ratio * ratio <= tol3z) {
        cnorm[j] = nrm2(m - k - 1, qr.col(j) + k + 1);
        cnorm_ref[j] = cnorm[j];
      } else {
        cnorm[j] *= std::sqrt(t);
      }
    }
  }
  *r_out = Matrix(kmax, n);
  for (Index j = 0; j < n; ++j)
    for (Index i = 0; i <= std::min(j, kmax - 1); ++i) (*r_out)(i, j) = qr(i, j);
}

TEST(Qrcp, BitwiseMatchesColumnAtATimeReference) {
  // Column counts around the 4-column sweep width, including remainders.
  for (Index n : {1, 3, 4, 5, 7, 8, 13, 64}) {
    const Matrix a = testing::random_matrix(37, n, 40 + n);
    for (Index kmax : {std::min<Index>(n, 37), std::min<Index>(n, 2)}) {
      QRCP f(a, kmax);
      Matrix r_ref;
      std::vector<Index> perm_ref;
      reference_qrcp(a, kmax, &r_ref, &perm_ref);
      EXPECT_EQ(f.perm(), perm_ref) << "n=" << n << " kmax=" << kmax;
      EXPECT_EQ(f.r(), r_ref) << "n=" << n << " kmax=" << kmax;  // bitwise
    }
  }
}

}  // namespace
}  // namespace lra
