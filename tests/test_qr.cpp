#include "dense/qr.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dense/blas.hpp"
#include "reference_kernels.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

class QrShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrShapes, ReconstructsInput) {
  const auto [m, n] = GetParam();
  const Matrix a = testing::random_matrix(m, n, 21);
  HouseholderQR f(a);
  const Matrix qr = matmul(f.thin_q(), f.r());
  testing::expect_near_matrix(qr, a, 1e-11 * (m + n));
}

TEST_P(QrShapes, ThinQIsOrthonormal) {
  const auto [m, n] = GetParam();
  const Matrix a = testing::random_matrix(m, n, 22);
  HouseholderQR f(a);
  EXPECT_LT(testing::orthogonality_defect(f.thin_q()), 1e-12 * (m + n));
}

TEST_P(QrShapes, RIsUpperTriangular) {
  const auto [m, n] = GetParam();
  const Matrix a = testing::random_matrix(m, n, 23);
  const Matrix r = HouseholderQR(a).r();
  for (Index j = 0; j < r.cols(); ++j)
    for (Index i = j + 1; i < r.rows(); ++i) EXPECT_EQ(r(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{10, 3},
                                           std::pair{3, 10}, std::pair{50, 50},
                                           std::pair{200, 17},
                                           std::pair{33, 32}));

TEST(HouseholderQR, BitwiseMatchesColumnAtATimeReference) {
  // HouseholderQR's factor and thin_q apply each reflector to several
  // columns per sweep (16, 8, 4 with the lanes across columns, then one at a
  // time) and must reproduce the one-column-at-a-time reference bit for bit
  // (every randomized solver's Q and B depend on them).
  std::vector<Matrix> inputs;
  // Column counts around every sweep width, including remainders, one
  // column, and a wide shape.
  for (Index n : {1, 2, 3, 4, 5, 7, 8, 9, 13, 32, 33})
    inputs.push_back(testing::random_matrix(41, n, 60 + n));
  // The tournament shapes: 16 .. 65 columns, and row counts of every residue
  // mod 4, so the four-row blocks of the dots end in every tail length.
  for (Index n : {16, 17, 31, 63, 64, 65})
    for (Index m : {n + 36, n + 37, n + 38, n + 39})
      inputs.push_back(testing::random_matrix(m, n, 100 + m + n));
  inputs.push_back(testing::random_matrix(6, 19, 80));
  // A zero column below the diagonal takes the tau = 0 path mid-factor.
  Matrix zero_col = testing::random_matrix(23, 9, 81);
  for (Index i = 0; i < zero_col.rows(); ++i) zero_col(i, 4) = 0.0;
  inputs.push_back(zero_col);
  for (const Matrix& a : inputs) {
    HouseholderQR f(a);
    Matrix r_ref, q_ref;
    ref::householder_qr(a, &r_ref, &q_ref);
    // operator== on Matrix compares element values; memcmp also tells -0.0
    // from +0.0.
    const Matrix r = f.r(), q = f.thin_q();
    ASSERT_EQ(r.size(), r_ref.size());
    ASSERT_EQ(q.size(), q_ref.size());
    const auto bytes = [](const Matrix& x) {
      return static_cast<std::size_t>(x.size()) * sizeof(double);
    };
    EXPECT_EQ(std::memcmp(r.data(), r_ref.data(), bytes(r)), 0)
        << "R of " << a.rows() << "x" << a.cols();
    EXPECT_EQ(std::memcmp(q.data(), q_ref.data(), bytes(q)), 0)
        << "Q of " << a.rows() << "x" << a.cols();
  }
}

TEST(HouseholderQR, RankDeficientInputStillOrthonormal) {
  // Two identical columns.
  Matrix a = testing::random_matrix(12, 1, 28);
  Matrix dup = a;
  a.append_cols(dup);
  a.append_cols(testing::random_matrix(12, 2, 29));
  const Matrix q = orth(a);
  EXPECT_EQ(q.cols(), 4);
  EXPECT_LT(testing::orthogonality_defect(q), 1e-11);
}

TEST(Orth, SpansInputRange) {
  const Matrix a = testing::random_matrix(15, 5, 30);
  const Matrix q = orth(a);
  // a - q (q^T a) == 0.
  Matrix res = a;
  gemm(res, q, matmul_tn(q, a), -1.0, 1.0);
  EXPECT_LT(res.max_abs(), 1e-11);
}

TEST(Orth, EmptyInput) {
  const Matrix q = orth(Matrix(7, 0));
  EXPECT_EQ(q.rows(), 7);
  EXPECT_EQ(q.cols(), 0);
}

TEST(Orth, ZeroMatrixProducesOrthonormalCompletion) {
  const Matrix q = orth(Matrix(6, 2));
  EXPECT_EQ(q.cols(), 2);
  EXPECT_LT(testing::orthogonality_defect(q), 1e-14);
}

}  // namespace
}  // namespace lra
