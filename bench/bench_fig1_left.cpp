// Fig. 1 (left) + the Section VI-A statistics — thresholding effectiveness
// over a population of small sparse matrices (our stand-in for the 197 SJSU
// matrices): for each matrix, k = 8, factorization stopped at the numerical
// rank, threshold control phi = tau * |R^(1)(1,1)|, mu from (24) with u set
// to LU_CRTP's iteration count (the paper's convention).
//
// Prints the empirical distribution (deciles) of:
//   * nnz(LU_CRTP factors) / nnz(ILUT_CRTP factors)      [higher is better]
//   * same ratio for LU_CRTP *without* COLAMD and with COLAMD each iteration
//   * max fill-in density of A^(i) under LU_CRTP vs ILUT_CRTP
// and the summary stats the paper quotes in the text.
//
//   ./bench_fig1_left [--per_family=6] [--tau=1e-6] [--aggressive]

#include <algorithm>
#include <cmath>

#include "bench_util.hpp"
#include "core/ilut_crtp.hpp"
#include "gen/suite.hpp"

namespace {

using namespace lra;

std::vector<double> deciles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::vector<double> out;
  for (int d = 0; d <= 10; ++d) {
    const std::size_t idx = std::min(v.size() - 1, d * (v.size() - 1) / 10);
    out.push_back(v[idx]);
  }
  return out;
}

// Peak Schur-complement density over the run (0 when no iteration ran).
double max_fill(const LuCrtpResult& r) {
  double mx = 0.0;
  for (const obs::IterationSample& s : r.telemetry)
    mx = std::max(mx, s.fill_density);
  return mx;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  SuiteOptions so;
  so.per_family = static_cast<int>(cli.get_int("per_family", 6));
  const double tau = cli.get_double("tau", 1e-6);
  const bool aggressive = cli.get_bool("aggressive", false);
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header("Fig. 1 (left): thresholding effectiveness over a "
                      "small-matrix population",
                      "Fig. 1 left + Section VI-A of the paper");

  const auto suite = make_suite(so);
  std::printf("%zu matrices (8 families), k = 8, tau = %.0e%s\n\n",
              suite.size(), tau, aggressive ? ", aggressive variant" : "");

  std::vector<double> ratio, ratio_nocolamd, ratio_every;
  std::vector<double> maxfill_lu, maxfill_ilut;
  int effective = 0, worse = 0, control_hits = 0, error_ok = 0, ran = 0;
  int estimator_optimistic = 0;

  for (const auto& sm : suite) {
    LuCrtpOptions lo;
    lo.block_size = 8;
    lo.tau = tau;
    lo.max_rank = sm.numerical_rank;  // stop at the numerical rank, as in VI-A
    const LuCrtpResult lu = lu_crtp(sm.a, lo);
    if (lu.iterations <= 1) continue;  // thresholding cannot engage

    LuCrtpOptions io = lo;
    io.threshold =
        aggressive ? ThresholdMode::kAggressive : ThresholdMode::kIlut;
    io.estimated_iterations = lu.iterations;
    const LuCrtpResult il = lu_crtp(sm.a, io);

    LuCrtpOptions no = lo;
    no.colamd = ColamdMode::kOff;
    const LuCrtpResult lu_no = lu_crtp(sm.a, no);
    LuCrtpOptions ev = lo;
    ev.colamd = ColamdMode::kEvery;
    const LuCrtpResult lu_ev = lu_crtp(sm.a, ev);

    const double il_nnz = static_cast<double>(il.l.nnz() + il.u.nnz());
    if (il_nnz == 0.0) continue;
    ++ran;
    ratio.push_back(static_cast<double>(lu.l.nnz() + lu.u.nnz()) / il_nnz);
    ratio_nocolamd.push_back(
        static_cast<double>(lu_no.l.nnz() + lu_no.u.nnz()) / il_nnz);
    ratio_every.push_back(
        static_cast<double>(lu_ev.l.nnz() + lu_ev.u.nnz()) / il_nnz);
    maxfill_lu.push_back(max_fill(lu));
    maxfill_ilut.push_back(max_fill(il));

    if (ratio.back() > 1.1) ++effective;
    if (ratio.back() < 1.0) ++worse;
    if (il.threshold_control_hit) ++control_hits;
    const double err = lu_crtp_exact_error(sm.a, il);
    const double bound = std::max(tau * il.anorm_f, il.indicator * 1.0001);
    if (err <= bound + 1e-12 * il.anorm_f) ++error_ok;
    if (err > tau * il.anorm_f && il.indicator < tau * il.anorm_f)
      ++estimator_optimistic;
  }

  Table t({"decile", "ratio_nnz (COLAMD first)", "ratio_nnz (no COLAMD)",
           "ratio_nnz (COLAMD every)", "max fill LU_CRTP",
           "max fill ILUT_CRTP"});
  const auto d0 = deciles(ratio), d1 = deciles(ratio_nocolamd),
             d2 = deciles(ratio_every), f0 = deciles(maxfill_lu),
             f1 = deciles(maxfill_ilut);
  for (int d = 0; d <= 10; ++d) {
    t.row()
        .cell(d * 10)
        .cell(d0[d], 3)
        .cell(d1[d], 3)
        .cell(d2[d], 3)
        .cell(f0[d], 3)
        .cell(f1[d], 3);
  }
  t.print(std::cout);
  t.write_csv("fig1_left.csv");

  std::printf("\nSection VI-A statistics over %d factorizable matrices:\n", ran);
  std::printf("  thresholding effective (>10%% nnz reduction): %d (%.0f%%)\n",
              effective, 100.0 * effective / std::max(1, ran));
  std::printf("  ILUT factors *larger* than LU factors:        %d\n", worse);
  std::printf("  threshold control (22) triggered:             %d\n",
              control_hits);
  std::printf("  error within estimator+perturbation bound:    %d / %d\n",
              error_ok, ran);
  std::printf("  estimator optimistic (err > tau*||A||_F):     %d\n",
              estimator_optimistic);
  std::printf("\nwrote fig1_left.csv\n");
  return 0;
}
