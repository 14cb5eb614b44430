// Domain scenario: cheap spectral analysis of a large sparse matrix.
//
// The fixed-precision drivers double as numerical-rank / spectrum probes: the
// per-iteration error indicator traces out the singular-value tail profile
// without ever computing an SVD. This example estimates (a) the minimum rank
// needed for several accuracy targets and (b) the leading singular values
// (from the small projected matrix B_K), then checks both against the exact
// spectrum, which the generator knows by construction.
//
//   ./spectral_probe [--n=500] [--k=16]

#include <cstdio>
#include <iostream>

#include "core/randqb_ei.hpp"
#include "dense/svd.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const Index n = cli.get_int("n", 500);
  const Index k = cli.get_int("k", 16);
  cli.reject_unread();

  auto sigma = algebraic_spectrum(n, 20.0, 1.1);
  jitter_spectrum(sigma, 0.05, 9);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 9});
  std::printf("probing %ld x %ld sparse matrix (%ld nnz)\n\n", a.rows(),
              a.cols(), a.nnz());

  // One deep RandQB run; its telemetry gives the rank-vs-accuracy profile.
  RandQbOptions o;
  o.block_size = k;
  o.tau = 1e-3;
  o.power = 2;
  const RandQbResult r = randqb_ei(a, o);

  Table ranks({"accuracy tau", "estimated min rank", "exact min rank"});
  for (const double tau : {1e-1, 3e-2, 1e-2, 3e-3, 1e-3}) {
    // First iteration whose indicator is below tau.
    long long est = -1;
    for (const obs::IterationSample& s : r.telemetry) {
      if (s.indicator_rel < tau) {
        est = s.rank;
        break;
      }
    }
    ranks.row()
        .cell(sci(tau, 0))
        .cell(est)
        .cell(min_rank_for_tolerance(sigma, tau));
  }
  ranks.print(std::cout);

  // Leading singular values from the projected factor: sv(B_K) ~ sv(A).
  const auto approx = singular_values(r.b);
  Table sv({"i", "sigma_i (probe)", "sigma_i (exact)", "rel. error"});
  for (Index i : {0, 1, 3, 7, 15}) {
    if (i >= static_cast<Index>(approx.size())) break;
    sv.row()
        .cell(i)
        .cell(approx[i], 6)
        .cell(sigma[i], 6)
        .cell(std::abs(approx[i] - sigma[i]) / sigma[i], 2);
  }
  std::printf("\n");
  sv.print(std::cout);
  std::printf("\nThe probe ran %ld iterations (rank %ld) and never formed a "
              "dense matrix larger than %ld x %ld.\n",
              r.iterations, r.rank, r.b.rows(), r.b.cols());
  return 0;
}
