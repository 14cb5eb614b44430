// Failure-injection / adversarial-input tests: singular pivot blocks,
// structurally deficient matrices, extreme scales, and the documented
// indicator limits. The contract under stress: never crash, never report
// kConverged with a violated bound.

#include <gtest/gtest.h>

#include "core/ilut_crtp.hpp"
#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "core/randubv.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "sparse/coo.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

TEST(Robustness, ExactlyRankDeficientBelowMachinePrecision) {
  // Rank 15 with a tail at 1e-16 * sigma_max: asking for 1e-10 accuracy
  // forces the engine into the numerically-dead region; it must stop with
  // breakdown or max-iterations, not report a false convergence.
  const auto sigma = rank_deficient_spectrum(80, 15, 1.0, 1e-16);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 3});
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-10;
  const LuCrtpResult r = lu_crtp(a, o);
  testing::ExpectHonestBound(a, r, o.tau);
  // Must at least capture the true rank before stopping.
  if (r.status != Status::kConverged) {
    EXPECT_GE(r.rank, 15);
  }
}

TEST(Robustness, DuplicateColumns) {
  // Many exactly repeated columns: structural rank << n.
  CooBuilder b(40, 40);
  for (Index j = 0; j < 40; ++j) {
    const Index src = j % 5;  // only 5 distinct columns
    b.add((src * 7) % 40, j, 1.0 + src);
    b.add((src * 11 + 3) % 40, j, -0.5);
  }
  const CscMatrix a = b.build();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-8;
  const LuCrtpResult r = lu_crtp(a, o);
  testing::ExpectHonestBound(a, r, o.tau);
  EXPECT_LE(r.rank, 10);  // cannot exceed the structural rank by much
}

TEST(Robustness, SingleNonzeroEntry) {
  CooBuilder b(30, 30);
  b.add(17, 4, 3.5);
  const CscMatrix a = b.build();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-3;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_EQ(r.rank, 1);
  EXPECT_LT(lu_crtp_exact_error(a, r), 1e-12);

  RandQbOptions q;
  q.block_size = 4;
  q.tau = 1e-3;
  const RandQbResult qr = randqb_ei(a, q);
  EXPECT_EQ(qr.status, Status::kConverged);
  EXPECT_LT(randqb_exact_error(a, qr), 1e-3 * 3.5);
}

TEST(Robustness, ExtremeMagnitudes) {
  // Entries spanning 1e-150 .. 1e+150: norms must not overflow and the
  // factorization must still converge at coarse tolerance.
  CooBuilder b(25, 25);
  for (Index i = 0; i < 25; ++i)
    b.add(i, i, std::pow(10.0, 150.0 - 12.0 * static_cast<double>(i)));
  for (Index i = 1; i < 25; ++i) b.add(i - 1, i, 1e-150);
  const CscMatrix a = b.build();
  EXPECT_TRUE(std::isfinite(a.frobenius_norm()));
  LuCrtpOptions o;
  o.block_size = 4;
  o.tau = 1e-2;
  const LuCrtpResult r = lu_crtp(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_TRUE(std::isfinite(r.indicator));
}

TEST(Robustness, IlutOnNearlyBinaryMatrix) {
  // All magnitudes equal: nothing is "small enough" to drop; ILUT must
  // degrade gracefully to plain LU_CRTP behaviour.
  CooBuilder b(60, 60);
  for (Index j = 0; j < 60; ++j)
    for (Index i = 0; i < 60; i += 7) b.add((i + j) % 60, j, 1.0);
  const CscMatrix a = b.build();
  LuCrtpOptions o;
  o.block_size = 8;
  o.tau = 1e-2;
  const LuCrtpResult lu = lu_crtp(a, o);
  const LuCrtpResult il = ilut_crtp(a, o);
  testing::ExpectHonestBound(a, il, o.tau);
  EXPECT_EQ(il.rank, lu.rank);
}

TEST(Robustness, TallAndWideDegenerateShapes) {
  // 200 x 3 and 3 x 200.
  const CscMatrix tall =
      CscMatrix::from_dense(testing::random_matrix(200, 3, 5), 0.5);
  LuCrtpOptions o;
  o.block_size = 8;  // larger than min(m, n)
  o.tau = 1e-10;
  const LuCrtpResult rt = lu_crtp(tall, o);
  EXPECT_EQ(rt.status, Status::kConverged);
  EXPECT_LE(rt.rank, 3);

  const CscMatrix wide = tall.transposed();
  const LuCrtpResult rw = lu_crtp(wide, o);
  EXPECT_EQ(rw.status, Status::kConverged);
  EXPECT_LE(rw.rank, 3);
}

TEST(Robustness, RandUbvOnRankOne) {
  CooBuilder b(50, 50);
  for (Index i = 0; i < 50; ++i) b.add(i, 7, 1.0);
  const CscMatrix a = b.build();
  RandUbvOptions o;
  o.block_size = 4;
  o.tau = 1e-6;
  const RandUbvResult r = randubv(a, o);
  EXPECT_EQ(r.status, Status::kConverged);
  EXPECT_LT(randubv_exact_error(a, r), 1e-6 * a.frobenius_norm() * 1.01);
}

TEST(Robustness, ZeroToleranceRunsToFullRank) {
  const CscMatrix a =
      CscMatrix::from_dense(testing::random_matrix(30, 30, 11), 0.3);
  RandQbOptions o;
  o.block_size = 8;
  o.tau = 0.0;
  const RandQbResult r = randqb_ei(a, o);
  EXPECT_EQ(r.rank, 30);  // hit the budget, never "converged" at tau = 0
}

}  // namespace
}  // namespace lra
