#include "core/ilut_crtp.hpp"

#include <gtest/gtest.h>

#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

// Scattered structure -> heavy fill-in, the regime ILUT targets.
CscMatrix filly_matrix(Index n = 250, std::uint64_t seed = 31) {
  return givens_spray(algebraic_spectrum(n, 5.0, 1.2),
                      {.left_passes = 3, .right_passes = 3, .bandwidth = 0,
                       .seed = seed});
}

class TauGrid : public ::testing::TestWithParam<double> {};

TEST_P(TauGrid, ErrorStaysNearTolerance) {
  // Section VI-A: "In all cases, the error was smaller than tau*||A||_F and
  // agreed with the corresponding estimator."
  const CscMatrix a = filly_matrix();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = GetParam();
  const LuCrtpResult r = ilut_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_LT(lu_crtp_exact_error(a, r), o.tau * r.anorm_f * 1.05);
}

TEST_P(TauGrid, EstimatorAgreesWithError) {
  const CscMatrix a = filly_matrix();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = GetParam();
  const LuCrtpResult r = ilut_crtp(a, o);
  const double exact = lu_crtp_exact_error(a, r);
  // Estimator (26) vs error (25): bounded by the dropped mass (22).
  EXPECT_NEAR(r.indicator, exact, std::sqrt(r.t_norm_sq) + 1e-10 * r.anorm_f);
}

INSTANTIATE_TEST_SUITE_P(Taus, TauGrid, ::testing::Values(1e-1, 1e-2, 1e-3));

TEST(Ilut, ReducesFactorNnzOnFillHeavyMatrix) {
  const CscMatrix a = filly_matrix();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult lu = lu_crtp(a, o);
  const LuCrtpResult il = ilut_crtp(a, o);
  EXPECT_LT(il.l.nnz() + il.u.nnz(), lu.l.nnz() + lu.u.nnz());
  EXPECT_GT(il.dropped_entries, 0);
}

TEST(Ilut, MuMatchesHeuristicFormula) {
  const CscMatrix a = filly_matrix();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  o.estimated_iterations = 7;
  const LuCrtpResult r = ilut_crtp(a, o);
  EXPECT_NEAR(r.mu, ilut_mu(o.tau, r.r11_first, 7, a.nnz()), 1e-15);
}

TEST(Ilut, PerturbationMassBelowPhi) {
  const CscMatrix a = filly_matrix();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult r = ilut_crtp(a, o);
  const double phi = o.tau * r.r11_first;
  EXPECT_LT(std::sqrt(r.t_norm_sq), phi);  // control (22) held
}

TEST(Ilut, ThresholdControlUndoesOversizedMu) {
  // Force a huge mu via tiny estimated iteration count and tiny phi: the
  // control must fire and disable thresholding rather than destroy accuracy.
  const CscMatrix a = filly_matrix();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  o.estimated_iterations = 1;
  o.phi = 1e-12;  // essentially no budget
  const LuCrtpResult r = ilut_crtp(a, o);
  EXPECT_TRUE(r.threshold_control_hit);
  EXPECT_EQ(r.dropped_entries, 0);
  // With thresholding undone the factorization is exact LU_CRTP again.
  EXPECT_NEAR(r.indicator, lu_crtp_exact_error(a, r), 1e-8 * r.anorm_f);
}

TEST(Ilut, AggressiveVariantRespectsBudgetAndConverges) {
  const CscMatrix a = filly_matrix();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult r = ilut_crtp_aggressive(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  const double phi = o.tau * r.r11_first;
  EXPECT_LT(std::sqrt(r.t_norm_sq), phi);
  // Section VI-A reports that with aggressive thresholding the true error can
  // land "slightly larger than tau*||A||_F" while the estimator passes; allow
  // that slack here (the estimator itself must still be below tau).
  EXPECT_LT(r.indicator, o.tau * r.anorm_f);
  EXPECT_LT(lu_crtp_exact_error(a, r), o.tau * r.anorm_f * 1.5);
}

TEST(Ilut, AggressiveDropsAtLeastAsMuchAsStandard) {
  const CscMatrix a = filly_matrix();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult std_r = ilut_crtp(a, o);
  const LuCrtpResult agg_r = ilut_crtp_aggressive(a, o);
  EXPECT_GE(agg_r.t_norm_sq, std_r.t_norm_sq * 0.5);  // comparable or more
}

TEST(Ilut, SchurNnzNeverAboveLuCrtp) {
  const CscMatrix a = filly_matrix();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult lu = lu_crtp(a, o);
  const LuCrtpResult il = ilut_crtp(a, o);
  // Compare per-iteration Schur nnz for the common prefix: thresholded runs
  // should carry no more nonzeros.
  const std::size_t common =
      std::min(lu.telemetry.size(), il.telemetry.size());
  ASSERT_GT(common, 0u);
  long long lu_total = 0, il_total = 0;
  for (std::size_t i = 0; i < common; ++i) {
    lu_total += lu.telemetry[i].schur_nnz;
    il_total += il.telemetry[i].schur_nnz;
  }
  EXPECT_LE(il_total, lu_total);
}

TEST(Ilut, MuFormulaEdgeCases) {
  EXPECT_GT(ilut_mu(1e-3, 10.0, 5, 1000), 0.0);
  EXPECT_EQ(ilut_mu(1e-3, 10.0, 0, 1000), ilut_mu(1e-3, 10.0, 1, 1000));
  EXPECT_EQ(ilut_mu(1e-3, 10.0, 5, 0), ilut_mu(1e-3, 10.0, 5, 1));
}

}  // namespace
}  // namespace lra
