#include "core/lu_crtp.hpp"

#include <gtest/gtest.h>

#include "dense/svd.hpp"
#include "gen/families.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

CscMatrix test_matrix(Index n = 200, std::uint64_t seed = 3) {
  return givens_spray(geometric_spectrum(n, 5.0, 0.9),
                      {.left_passes = 2, .right_passes = 2, .bandwidth = 0,
                       .seed = seed});
}

class TauGrid : public ::testing::TestWithParam<double> {};

TEST_P(TauGrid, ConvergesBelowTolerance) {
  const CscMatrix a = test_matrix();
  LuCrtpOptions o;
  o.block_size = 10;
  o.tau = GetParam();
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_LT(lu_crtp_exact_error(a, r), o.tau * r.anorm_f);
}

TEST_P(TauGrid, IndicatorEqualsExactError) {
  // For LU_CRTP (no thresholding), eq. (9) is exact:
  // ||P_r A P_c - L U||_F == ||A^(i+1)||_F.
  const CscMatrix a = test_matrix();
  LuCrtpOptions o;
  o.block_size = 10;
  o.tau = GetParam();
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_NEAR(r.indicator, lu_crtp_exact_error(a, r), 1e-8 * r.anorm_f);
}

INSTANTIATE_TEST_SUITE_P(Taus, TauGrid, ::testing::Values(1e-1, 1e-2, 1e-3));

class ColamdModes : public ::testing::TestWithParam<ColamdMode> {};

TEST_P(ColamdModes, AllModesConverge) {
  const CscMatrix a = circuit_like(150, 4, 2, 17);
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  o.colamd = GetParam();
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_LT(lu_crtp_exact_error(a, r), o.tau * r.anorm_f);
}

INSTANTIATE_TEST_SUITE_P(Modes, ColamdModes,
                         ::testing::Values(ColamdMode::kOff, ColamdMode::kFirst,
                                           ColamdMode::kEvery));

TEST(LuCrtp, PermutationsAreValid) {
  const CscMatrix a = test_matrix();
  LuCrtpOptions o;
  o.block_size = 16;
  o.tau = 1e-2;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_TRUE(is_permutation(r.row_perm));
  EXPECT_TRUE(is_permutation(r.col_perm));
}

TEST(LuCrtp, LHasUnitDiagonalAndLowerStructure) {
  const CscMatrix a = test_matrix();
  LuCrtpOptions o;
  o.block_size = 10;
  o.tau = 1e-2;
  const LuCrtpResult r = lu_crtp(a, o);
  ASSERT_EQ(r.l.cols(), r.rank);
  for (Index j = 0; j < r.rank; ++j) {
    EXPECT_NEAR(r.l.coeff(j, j), 1.0, 0.0);
    // Strictly-above-diagonal part of L is empty *within* the same block
    // column; across iterations L is block lower trapezoidal.
    for (Index i = 0; i < j - (j % o.block_size); ++i)
      EXPECT_EQ(r.l.coeff(i, j), 0.0);
  }
}

TEST(LuCrtp, UIsBlockUpperTrapezoidal) {
  const CscMatrix a = test_matrix();
  LuCrtpOptions o;
  o.block_size = 10;
  o.tau = 1e-2;
  const LuCrtpResult r = lu_crtp(a, o);
  ASSERT_EQ(r.u.rows(), r.rank);
  for (Index j = 0; j < r.rank; ++j) {
    const Index block_of_col = j / o.block_size;
    for (Index i = (block_of_col + 1) * o.block_size; i < r.rank; ++i)
      EXPECT_EQ(r.u.coeff(i, j), 0.0) << "U(" << i << "," << j << ")";
  }
}

TEST(LuCrtp, RankCloseToMinimumForFastDecay) {
  const auto sigma = geometric_spectrum(200, 5.0, 0.9);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 3});
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult r = lu_crtp(a, o);
  const Index kmin = min_rank_for_tolerance(sigma, 1e-2);
  EXPECT_GE(r.rank + o.block_size, kmin);  // cannot beat Eckart-Young by a block
  EXPECT_LE(r.rank, 3 * kmin + 2 * o.block_size);  // and is not wildly above
}

TEST(LuCrtp, R11FirstApproximatesSpectralNorm) {
  const auto sigma = geometric_spectrum(150, 7.0, 0.9);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 9});
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-1;
  const LuCrtpResult r = lu_crtp(a, o);
  // (23): |R^(1)(1,1)| <= ||A||_2 = 7, and should be within a small factor.
  EXPECT_LE(r.r11_first, 7.0 * (1.0 + 1e-10));
  EXPECT_GE(r.r11_first, 0.3 * 7.0);
}

TEST(LuCrtp, FillHistoryRecorded) {
  const CscMatrix a = test_matrix();
  LuCrtpOptions o;
  o.block_size = 10;
  o.tau = 1e-3;
  const LuCrtpResult r = lu_crtp(a, o);
  ASSERT_EQ(static_cast<Index>(r.telemetry.size()), r.iterations);
  for (const obs::IterationSample& s : r.telemetry) {
    EXPECT_GE(s.fill_density, 0.0);
    EXPECT_LE(s.fill_density, 1.0);
    EXPECT_GE(s.schur_nnz, 0);
    EXPECT_GT(s.factor_nnz, 0);
  }
}

TEST(LuCrtp, MaxRankBudget) {
  const CscMatrix a = test_matrix();
  LuCrtpOptions o;
  o.block_size = 16;
  o.tau = 1e-14;
  o.max_rank = 32;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_LE(r.rank, 32);
  EXPECT_NE(r.status, Status::kConverged);
}

TEST(LuCrtp, ExactlyLowRankInputTerminatesEarly) {
  // Numerical rank 20 matrix: LU_CRTP must stop at ~20 with tiny error.
  const auto sigma = rank_deficient_spectrum(100, 20, 2.0, 1e-14);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 21});
  LuCrtpOptions o;
  o.block_size = 10;
  o.tau = 1e-6;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_LE(r.rank, 40);
}

TEST(LuCrtp, StableLVariantAlsoConverges) {
  const CscMatrix a = test_matrix();
  LuCrtpOptions o;
  o.block_size = 10;
  o.tau = 1e-2;
  o.stable_l = true;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_LT(lu_crtp_exact_error(a, r), o.tau * r.anorm_f);
}

TEST(LuCrtp, ZeroMatrixConvergesImmediately) {
  CscMatrix a(50, 50);
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_EQ(r.rank, 0);
}

TEST(LuCrtp, RectangularTallInput) {
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(80, 30, 22), 0.8);
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-1;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_LT(lu_crtp_exact_error(a, r),
            std::max(o.tau * r.anorm_f, r.indicator * 1.0001));
}

TEST(LuCrtp, RectangularWideInput) {
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(30, 80, 23), 0.8);
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-1;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_NEAR(r.indicator, lu_crtp_exact_error(a, r), 1e-8 * r.anorm_f);
}

}  // namespace
}  // namespace lra
