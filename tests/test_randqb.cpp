#include "core/randqb_ei.hpp"

#include <gtest/gtest.h>

#include "dense/svd.hpp"
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
  RandQbOptions o;
  o.block_size = 10;
  o.tau = GetParam();
  const RandQbResult r = randqb_ei(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_LT(randqb_exact_error(a, r), o.tau * r.anorm_f);
}

TEST_P(TauGrid, IndicatorMatchesExactError) {
  const CscMatrix a = test_matrix();
  RandQbOptions o;
  o.block_size = 10;
  o.tau = GetParam();
  const RandQbResult r = randqb_ei(a, o);
  EXPECT_NEAR(r.indicator, randqb_exact_error(a, r),
              1e-6 * r.anorm_f);  // eq. (4) is exact up to roundoff
}

INSTANTIATE_TEST_SUITE_P(Taus, TauGrid, ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4));

TEST(RandQb, QIsOrthonormal) {
  const CscMatrix a = test_matrix();
  RandQbOptions o;
  o.block_size = 16;
  o.tau = 1e-3;
  const RandQbResult r = randqb_ei(a, o);
  EXPECT_LT(testing::orthogonality_defect(r.q), 1e-10);
  EXPECT_LT(orth_loss(r.q), 1e-10);
}

TEST(RandQb, RankIsMultipleOfBlockSize) {
  const CscMatrix a = test_matrix();
  RandQbOptions o;
  o.block_size = 12;
  o.tau = 1e-2;
  const RandQbResult r = randqb_ei(a, o);
  EXPECT_EQ(r.rank, r.iterations * 12);
}

TEST(RandQb, PowerIterationReducesIterationCount) {
  // Slow-decay spectrum: p = 1 should need no more iterations than p = 0
  // (Table II trend).
  const CscMatrix a = givens_spray(
      algebraic_spectrum(250, 5.0, 0.8),
      {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 5});
  RandQbOptions o;
  o.block_size = 10;
  o.tau = 1e-2;
  o.power = 0;
  const RandQbResult r0 = randqb_ei(a, o);
  o.power = 1;
  const RandQbResult r1 = randqb_ei(a, o);
  o.power = 2;
  const RandQbResult r2 = randqb_ei(a, o);
  EXPECT_LE(r1.iterations, r0.iterations);
  EXPECT_LE(r2.iterations, r1.iterations);
}

TEST(RandQb, RankNearMinimumForFastDecay) {
  const CscMatrix a = test_matrix();
  const auto sigma = geometric_spectrum(200, 5.0, 0.9);
  RandQbOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  o.power = 2;
  const RandQbResult r = randqb_ei(a, o);
  const Index kmin = min_rank_for_tolerance(sigma, 1e-2);
  // Overestimates by at most ~2 blocks with the power scheme.
  EXPECT_GE(r.rank, kmin);
  EXPECT_LE(r.rank, kmin + 3 * o.block_size);
}

TEST(RandQb, DeterministicForFixedSeed) {
  const CscMatrix a = test_matrix();
  RandQbOptions o;
  o.block_size = 10;
  o.tau = 1e-2;
  o.seed = 77;
  const RandQbResult r1 = randqb_ei(a, o);
  const RandQbResult r2 = randqb_ei(a, o);
  EXPECT_EQ(r1.rank, r2.rank);
  EXPECT_EQ(max_abs_diff(r1.q, r2.q), 0.0);
}

TEST(RandQb, MaxRankBudgetRespected) {
  const CscMatrix a = test_matrix();
  RandQbOptions o;
  o.block_size = 16;
  o.tau = 1e-12;  // unreachable
  o.max_rank = 48;
  const RandQbResult r = randqb_ei(a, o);
  EXPECT_EQ(r.rank, 48);
  EXPECT_EQ(r.status, Status::kMaxIterations);
}

TEST(RandQb, IndicatorFloorFlagged) {
  // tau below 2.1e-7: Theorem 3 says the indicator is unreliable; we expect
  // the status to say so if the run "converges".
  const CscMatrix a = test_matrix(120);
  RandQbOptions o;
  o.block_size = 20;
  o.tau = 1e-9;
  o.power = 2;
  const RandQbResult r = randqb_ei(a, o);
  if (r.indicator < o.tau * r.anorm_f) {
    EXPECT_EQ(r.status, Status::kIndicatorFloor);
  }
}

TEST(RandQb, TraceIsMonotone) {
  const CscMatrix a = test_matrix();
  RandQbOptions o;
  o.block_size = 10;
  o.tau = 1e-3;
  const RandQbResult r = randqb_ei(a, o);
  const obs::TelemetrySeries& t = r.telemetry;
  ASSERT_EQ(static_cast<Index>(t.size()), r.iterations);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_EQ(t[i].iteration, t[i - 1].iteration + 1);
    EXPECT_LE(t[i].indicator_rel, t[i - 1].indicator_rel + 1e-12);
    EXPECT_GE(t[i].time_seconds, t[i - 1].time_seconds);
  }
}

}  // namespace
}  // namespace lra
