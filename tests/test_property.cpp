// Property-based sweeps: the core invariants of the paper's algorithms,
// checked across a grid of random seeds, structures and block sizes
// (parameterized gtest).

#include <gtest/gtest.h>

#include <tuple>

#include "core/ilut_crtp.hpp"
#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "sparse/permute.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

// (seed, bandwidth, block size)
using Config = std::tuple<int, int, int>;

CscMatrix matrix_for(const Config& c) {
  const auto [seed, bw, k] = c;
  (void)k;
  auto sigma = geometric_spectrum(160, 4.0, 0.92);
  jitter_spectrum(sigma, 0.1, static_cast<std::uint64_t>(seed));
  return givens_spray(sigma,
                      {.left_passes = 2, .right_passes = 2,
                       .bandwidth = static_cast<Index>(bw),
                       .seed = static_cast<std::uint64_t>(seed)});
}

class LuProperty : public ::testing::TestWithParam<Config> {};

TEST_P(LuProperty, IndicatorIsExactErrorAndPermsValid) {
  // Invariant (9): for exact LU_CRTP the indicator *equals* the true error,
  // and the permutations are genuine permutations — for every config.
  const auto [seed, bw, k] = GetParam();
  const CscMatrix a = matrix_for(GetParam());
  LuCrtpOptions o;
  o.block_size = k;
  o.tau = 5e-2;
  const LuCrtpResult r = lu_crtp(a, o);
  ASSERT_EQ(r.status, Status::kConverged) << "seed=" << seed << " bw=" << bw;
  EXPECT_TRUE(is_permutation(r.row_perm));
  EXPECT_TRUE(is_permutation(r.col_perm));
  EXPECT_NEAR(r.indicator, lu_crtp_exact_error(a, r), 1e-8 * r.anorm_f);
  testing::ExpectHonestBound(a, r, o.tau, "lu_crtp grid");
}

TEST_P(LuProperty, IlutEstimatorWithinPerturbationBound) {
  // Invariant (25)/(26): |error - estimator| <= ||T||_F for every config.
  const auto [seed, bw, k] = GetParam();
  (void)seed;
  (void)bw;
  const CscMatrix a = matrix_for(GetParam());
  LuCrtpOptions o;
  o.block_size = k;
  o.tau = 5e-2;
  const LuCrtpResult r = ilut_crtp(a, o);
  ASSERT_EQ(r.status, Status::kConverged);
  testing::ExpectHonestBound(a, r, o.tau, "ilut_crtp grid");
  const double err = lu_crtp_exact_error(a, r);
  EXPECT_LE(std::abs(err - r.indicator),
            std::sqrt(r.t_norm_sq) + 1e-8 * r.anorm_f);
  // Control (22) always holds on exit.
  EXPECT_LT(std::sqrt(r.t_norm_sq), o.tau * r.r11_first + 1e-300);
}

class QbProperty : public ::testing::TestWithParam<Config> {};

TEST_P(QbProperty, IndicatorTracksExactErrorEveryIteration) {
  // Theorem 1 of Yu/Gu/Li (eq. 4): the indicator equals the true residual
  // for the accumulated factorization, up to roundoff — final iterate check
  // across the whole grid.
  const auto [seed, bw, k] = GetParam();
  (void)bw;
  const CscMatrix a = matrix_for(GetParam());
  RandQbOptions o;
  o.block_size = k;
  o.tau = 5e-2;
  o.seed = static_cast<std::uint64_t>(seed) * 7919;
  const RandQbResult r = randqb_ei(a, o);
  ASSERT_EQ(r.status, Status::kConverged);
  testing::ExpectHonestBound(a, r, o.tau, "randqb_ei grid");
  EXPECT_NEAR(r.indicator, randqb_exact_error(a, r), 1e-7 * r.anorm_f);
  EXPECT_LT(orth_loss(r.q), 1e-10);
}

TEST_P(QbProperty, MonotoneIndicator) {
  const auto [seed, bw, k] = GetParam();
  (void)seed;
  (void)bw;
  const CscMatrix a = matrix_for(GetParam());
  RandQbOptions o;
  o.block_size = k;
  o.tau = 1e-3;
  const RandQbResult r = randqb_ei(a, o);
  for (std::size_t i = 1; i < r.telemetry.size(); ++i)
    EXPECT_LE(r.telemetry[i].indicator_rel,
              r.telemetry[i - 1].indicator_rel + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LuProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0, 12),
                       ::testing::Values(8, 13)));
INSTANTIATE_TEST_SUITE_P(
    Grid, QbProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0),
                       ::testing::Values(8, 13)));

// Permutation identity: P_r A P_c really equals the matrix the factors
// approximate — spot-check entry-wise on a few configs.
class PermIdentity : public ::testing::TestWithParam<int> {};

TEST_P(PermIdentity, PermutedEntriesMatch) {
  const CscMatrix a = matrix_for({GetParam(), 0, 8});
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult r = lu_crtp(a, o);
  const CscMatrix pap = permute(a, r.row_perm, r.col_perm);
  for (Index i = 0; i < 20; ++i) {
    const Index row = (i * 37) % a.rows();
    const Index col = (i * 53) % a.cols();
    EXPECT_EQ(pap.coeff(row, col), a.coeff(r.row_perm[row], r.col_perm[col]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermIdentity, ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace lra
