#include "core/randubv.hpp"

#include <gtest/gtest.h>

#include "core/randqb_ei.hpp"
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

TEST_P(TauGrid, ConvergesWithAccurateIndicator) {
  const CscMatrix a = test_matrix();
  RandUbvOptions o;
  o.block_size = 10;
  o.tau = GetParam();
  const RandUbvResult r = randubv(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  const double exact = randubv_exact_error(a, r);
  EXPECT_LT(exact, o.tau * r.anorm_f * 1.01);
  EXPECT_NEAR(r.indicator, exact, 1e-6 * r.anorm_f);
}

INSTANTIATE_TEST_SUITE_P(Taus, TauGrid, ::testing::Values(1e-1, 1e-2, 1e-3));

TEST(RandUbv, BasesAreOrthonormal) {
  const CscMatrix a = test_matrix();
  RandUbvOptions o;
  o.block_size = 12;
  o.tau = 1e-3;
  const RandUbvResult r = randubv(a, o);
  EXPECT_LT(testing::orthogonality_defect(r.u), 1e-9);
  EXPECT_LT(testing::orthogonality_defect(r.v), 1e-9);
}

TEST(RandUbv, BIsBlockUpperBidiagonal) {
  const CscMatrix a = test_matrix();
  RandUbvOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const RandUbvResult r = randubv(a, o);
  const Index b = 8;
  for (Index j = 0; j < r.b.cols(); ++j) {
    for (Index i = 0; i < r.b.rows(); ++i) {
      const Index bi = i / b, bj = j / b;
      if (bj != bi && bj != bi + 1)
        EXPECT_EQ(r.b(i, j), 0.0) << "B(" << i << "," << j << ")";
    }
  }
}

TEST(RandUbv, ComparableWorkToRandQbP0) {
  // Paper (Section VI-B): RandUBV performs roughly the same work as
  // RandQB_EI with p = 0 and the same k, often with fewer iterations.
  const CscMatrix a = givens_spray(
      algebraic_spectrum(250, 5.0, 0.9),
      {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 5});
  RandUbvOptions uo;
  uo.block_size = 10;
  uo.tau = 1e-2;
  const RandUbvResult ur = randubv(a, uo);
  RandQbOptions qo;
  qo.block_size = 10;
  qo.tau = 1e-2;
  qo.power = 0;
  const RandQbResult qr = randqb_ei(a, qo);
  EXPECT_LE(ur.iterations, qr.iterations + 2);
}

TEST(RandUbv, DeterministicForFixedSeed) {
  const CscMatrix a = test_matrix();
  RandUbvOptions o;
  o.block_size = 10;
  o.tau = 1e-2;
  o.seed = 99;
  const RandUbvResult r1 = randubv(a, o);
  const RandUbvResult r2 = randubv(a, o);
  EXPECT_EQ(r1.rank, r2.rank);
  EXPECT_EQ(max_abs_diff(r1.b, r2.b), 0.0);
}

TEST(RandUbv, MaxRankBudget) {
  const CscMatrix a = test_matrix();
  RandUbvOptions o;
  o.block_size = 16;
  o.tau = 1e-14;
  o.max_rank = 48;
  const RandUbvResult r = randubv(a, o);
  EXPECT_LE(r.rank, 48);
}

TEST(RandUbv, ZeroRankBudgetStops) {
  // A zero budget means zero-width blocks; the loop must stop, not spin.
  const CscMatrix a = test_matrix();
  RandUbvOptions o;
  o.block_size = 16;
  o.max_rank = 0;
  const RandUbvResult r = randubv(a, o);
  EXPECT_EQ(r.rank, 0);
  EXPECT_EQ(r.status, Status::kMaxIterations);
}

}  // namespace
}  // namespace lra
