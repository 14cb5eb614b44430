// Domain scenario: picking the right fixed-precision method for a workload.
//
// Uses the unified driver API (core/driver.hpp) to run every method on the
// same matrix under the same tolerance, scores them on runtime, memory and
// achieved error, and shows what Method::kAuto would have picked. This is
// the "which algorithm should I use?" workflow the paper's accuracy-vs-cost
// study answers.
//
//   ./method_selection [--n=700] [--tau=1e-2] [--k=16] [--structure=local|global]

#include <cstdio>
#include <iostream>

#include "core/driver.hpp"
#include "core/metrics.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const Index n = cli.get_int("n", 700);
  const double tau = cli.get_double("tau", 1e-2);
  const Index k = cli.get_int("k", 16);
  const bool local = cli.get("structure", "global") == "local";
  cli.reject_unread();

  auto sigma = algebraic_spectrum(n, 10.0, 1.1);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2,
              .bandwidth = local ? 30 : 0, .seed = 99});
  std::printf("matrix: %ld x %ld, %ld nnz, %s coupling, tau = %.0e\n\n",
              a.rows(), a.cols(), a.nnz(), local ? "local" : "global", tau);

  Table t({"method", "status", "rank", "time (s)", "factor values",
           "rel. error (fro)", "rel. error (spec)"});
  for (Method m : {Method::kRandQbEi, Method::kLuCrtp, Method::kIlutCrtp,
                   Method::kRandUbv}) {
    ApproxOptions o;
    o.method = m;
    o.tau = tau;
    o.block_size = k;
    Stopwatch w;
    const LowRankApprox r = approximate(a, o);
    const double secs = w.seconds();
    const ApproxQuality q =
        assess_approximation(a, r.h_dense(), r.w_dense(), sigma, 0);
    t.row()
        .cell(to_string(m))
        .cell(to_string(r.status()))
        .cell(r.rank())
        .cell(secs, 3)
        .cell(r.factor_values())
        .cell(q.fro_error_rel, 3)
        .cell(q.spectral_error_rel, 3);
  }
  t.print(std::cout);

  ApproxOptions auto_o;
  auto_o.tau = tau;
  auto_o.block_size = k;
  const LowRankApprox chosen = approximate(a, auto_o);
  std::printf("\nMethod::kAuto selected: %s (rank %ld, indicator %.2e)\n",
              to_string(chosen.method()), chosen.rank(),
              chosen.indicator_rel());
  std::printf("Rule of thumb from the paper: deterministic sparse factors at "
              "coarse tau / low fill; RandQB_EI when fill-in bites; "
              "ILUT_CRTP to get both.\n");
  return 0;
}
