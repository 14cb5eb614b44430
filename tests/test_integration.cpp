// End-to-end integration tests: the three methods compared on the paper's
// terms (uniform termination criterion), reproducing the qualitative claims
// of Section VI on miniature problems.

#include <gtest/gtest.h>

#include "core/ilut_crtp.hpp"
#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "core/randubv.hpp"
#include "core/tsvd.hpp"
#include "dense/svd.hpp"
#include "gen/givens_spray.hpp"
#include "gen/presets.hpp"
#include "gen/spectrum.hpp"
#include "test_util.hpp"

namespace lra {
namespace {

TEST(Integration, AllMethodsReachSameQualityOnPreset) {
  const TestMatrix t = make_preset("M1", 0.1, 11);
  const double tau = 1e-2;

  LuCrtpOptions lo;
  lo.block_size = 16;
  lo.tau = tau;
  const LuCrtpResult lu = lu_crtp(t.a, lo);
  const LuCrtpResult il = ilut_crtp(t.a, lo);
  RandQbOptions ro;
  ro.block_size = 16;
  ro.tau = tau;
  ro.power = 1;
  const RandQbResult qb = randqb_ei(t.a, ro);

  const double bound = tau * t.a.frobenius_norm();
  EXPECT_LT(lu_crtp_exact_error(t.a, lu), bound);
  EXPECT_LT(lu_crtp_exact_error(t.a, il), bound * 1.05);
  EXPECT_LT(randqb_exact_error(t.a, qb), bound);
}

TEST(Integration, RanksAgreeWithTsvdMinimumUpToBlocks) {
  const TestMatrix t = make_preset("M1", 0.08, 13);
  const double tau = 1e-2;
  const Index kmin = min_rank_for_tolerance(t.sigma, tau);

  LuCrtpOptions lo;
  lo.block_size = 8;
  lo.tau = tau;
  const LuCrtpResult lu = lu_crtp(t.a, lo);
  RandQbOptions ro;
  ro.block_size = 8;
  ro.tau = tau;
  ro.power = 2;
  const RandQbResult qb = randqb_ei(t.a, ro);

  EXPECT_GE(lu.rank + lo.block_size, kmin);
  EXPECT_GE(qb.rank + ro.block_size, kmin);
  EXPECT_LE(qb.rank, 2 * kmin + 3 * ro.block_size);
}

TEST(Integration, IlutBeatsLuOnFillHeavyProblem) {
  // The headline claim: with heavy fill-in, ILUT_CRTP produces far sparser
  // factors and a cheaper factorization than LU_CRTP at equal quality.
  const TestMatrix t = make_preset("M2", 0.18, 17);
  LuCrtpOptions o;
  o.block_size = 16;
  o.tau = 1e-2;
  const LuCrtpResult lu = lu_crtp(t.a, o);
  LuCrtpOptions io = o;
  io.estimated_iterations = lu.iterations;
  const LuCrtpResult il = ilut_crtp(t.a, io);

  ASSERT_EQ(lu.status, Status::kConverged);
  ASSERT_EQ(il.status, Status::kConverged);
  const double ratio_nnz =
      static_cast<double>(lu.l.nnz() + lu.u.nnz()) /
      static_cast<double>(il.l.nnz() + il.u.nnz());
  EXPECT_GT(ratio_nnz, 1.3);
  // Work proxy: total Schur nnz processed.
  long long lu_work = 0, il_work = 0;
  for (const obs::IterationSample& s : lu.telemetry) lu_work += s.schur_nnz;
  for (const obs::IterationSample& s : il.telemetry) il_work += s.schur_nnz;
  EXPECT_LT(il_work, lu_work);
}

TEST(Integration, FillInGrowsOnScatteredProblem) {
  // Fig. 1 (right): density of A^(i) grows over iterations for fill-heavy
  // matrices.
  const TestMatrix t = make_preset("M2", 0.1, 19);
  LuCrtpOptions o;
  o.block_size = 16;
  o.tau = 1e-3;
  const LuCrtpResult lu = lu_crtp(t.a, o);
  ASSERT_GE(lu.telemetry.size(), 3u);
  EXPECT_GT(lu.telemetry[lu.telemetry.size() - 2].fill_density,
            2.0 * t.a.density());
}

TEST(Integration, LocalStructureFillsLessThanScattered) {
  // The paper's fill-in story is comparative: locally-coupled problems (M1')
  // keep A^(i) sparser through the factorization than globally-coupled ones
  // (M2'). Compare mean density over the common first half of iterations.
  const Index n = 200;
  const auto sigma = algebraic_spectrum(n, 1.0, 1.0);
  const CscMatrix local = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 8, .seed = 23});
  const CscMatrix scattered = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 23});
  LuCrtpOptions o;
  o.block_size = 16;
  o.tau = 1e-2;
  const LuCrtpResult r_local = lu_crtp(local, o);
  const LuCrtpResult r_scat = lu_crtp(scattered, o);
  const std::size_t half =
      std::min(r_local.telemetry.size(), r_scat.telemetry.size()) / 2;
  ASSERT_GT(half, 0u);
  double mean_local = 0.0, mean_scat = 0.0;
  for (std::size_t i = 0; i < half; ++i) {
    mean_local += r_local.telemetry[i].fill_density;
    mean_scat += r_scat.telemetry[i].fill_density;
  }
  EXPECT_LT(mean_local, mean_scat);
}

TEST(Integration, GappedSpectrumConvergesInOneIteration) {
  // M4'/M6' behaviour at coarse tau (Table II: its = 1).
  const auto sigma = gapped_spectrum(300, 20, 1e3, 1.0, 0.5);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 29});
  LuCrtpOptions lo;
  lo.block_size = 32;
  lo.tau = 1e-1;
  EXPECT_EQ(lu_crtp(a, lo).iterations, 1);
  RandQbOptions ro;
  ro.block_size = 32;
  ro.tau = 1e-1;
  ro.power = 1;
  EXPECT_EQ(randqb_ei(a, ro).iterations, 1);
}

TEST(Integration, UniformTerminationMakesMethodsComparable) {
  // Both indicators are measured against the same target tau * ||A||_F; the
  // achieved exact errors must both be below it, and within a small factor
  // of each other (neither method wildly overshoots).
  const TestMatrix t = make_preset("M3", 0.06, 31);
  const double tau = 1e-1;
  LuCrtpOptions lo;
  lo.block_size = 8;
  lo.tau = tau;
  RandQbOptions ro;
  ro.block_size = 8;
  ro.tau = tau;
  ro.power = 1;
  const double e_lu = lu_crtp_exact_error(t.a, lu_crtp(t.a, lo));
  const double e_qb = randqb_exact_error(t.a, randqb_ei(t.a, ro));
  const double bound = tau * t.a.frobenius_norm();
  EXPECT_LT(e_lu, bound);
  EXPECT_LT(e_qb, bound);
  EXPECT_GT(e_lu, bound / 1e3);
  EXPECT_GT(e_qb, bound / 1e3);
}

TEST(Integration, RandUbvIterationsTrackTable2Trend) {
  // its_UBV <= its_p0 + 1 on every preset family we can afford to test.
  const TestMatrix t = make_preset("M1", 0.06, 37);
  RandQbOptions qo;
  qo.block_size = 8;
  qo.tau = 1e-2;
  qo.power = 0;
  RandUbvOptions uo;
  uo.block_size = 8;
  uo.tau = 1e-2;
  EXPECT_LE(randubv(t.a, uo).iterations, randqb_ei(t.a, qo).iterations + 1);
}

}  // namespace
}  // namespace lra
