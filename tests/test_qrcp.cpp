#include "dense/qrcp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "dense/blas.hpp"
#include "reference_kernels.hpp"
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

TEST(Qrcp, BitwiseMatchesColumnAtATimeReference) {
  // QRCP applies each reflector to several columns per sweep (16, 8, 4 with
  // the lanes across columns, then one at a time) and must reproduce the
  // one-column-at-a-time reference bit for bit (the tournament winners, and
  // with them every LU_CRTP factor, depend on its pivots and R).
  std::vector<Matrix> inputs;
  // Column counts around the sweep widths, including remainders.
  for (Index n : {1, 3, 4, 5, 7, 8, 13, 64})
    inputs.push_back(testing::random_matrix(37, n, 40 + n));
  // The tournament shapes (a node stacks two 32-column candidate sets, or
  // fewer at the leaves), with row counts of every residue mod 4.
  for (Index n : {16, 17, 31, 63, 64, 65})
    for (Index m : {n + 40, n + 41, n + 42, n + 43})
      inputs.push_back(testing::random_matrix(m, n, 200 + m + n));
  for (const Matrix& a : inputs) {
    const Index n = a.cols(), full = std::min(a.rows(), n);
    for (Index kmax : {full, std::min<Index>(n, 2), std::min<Index>(n, 32)}) {
      QRCP f(a, kmax);
      Matrix r_ref;
      std::vector<Index> perm_ref;
      ref::qrcp(a, kmax, &r_ref, &perm_ref);
      EXPECT_EQ(f.perm(), perm_ref) << a.rows() << "x" << n << " kmax=" << kmax;
      const Matrix r = f.r();
      ASSERT_EQ(r.size(), r_ref.size());
      EXPECT_EQ(std::memcmp(r.data(), r_ref.data(),
                            static_cast<std::size_t>(r.size()) * sizeof(double)),
                0)
          << "R of " << a.rows() << "x" << n << " kmax=" << kmax;
    }
  }
}

}  // namespace
}  // namespace lra
