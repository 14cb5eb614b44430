// Domain scenario: model order reduction (the application area motivating
// fixed-precision methods in Bach et al., cited in the paper's related work).
//
// A transient simulation repeatedly applies a large sparse operator A (here a
// discretized smoothing/covariance-type kernel, whose spectrum decays fast).
// We build a fixed-precision rank-K basis U once (RandQB_EI + qb_to_svd),
// project the dynamics onto it (Galerkin: A_r = U^T A U, a K x K dense
// matrix), run the time-stepping loop in the K-dimensional reduced space and
// reconstruct at the end — the classic offline/online MOR split. Reported:
// reduced rank, offline build time, online speed-up, trajectory error.
//
//   ./model_order_reduction [--n=1500] [--steps=200] [--k=24]

#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/fixed_rank.hpp"
#include "core/randqb_ei.hpp"
#include "dense/blas.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const Index n = cli.get_int("n", 1500);
  const int steps = static_cast<int>(cli.get_int("steps", 200));
  const Index k = cli.get_int("k", 24);
  cli.reject_unread();

  // Smoothing-kernel operator: symmetric positive semi-definite with fast
  // geometric eigenvalue decay (a discretized covariance/integral kernel).
  // Built as A = S S^T where S has singular values sqrt(lambda), so the
  // eigenvalues of A are exactly the prescribed spectrum and the dominant
  // eigen- and singular subspaces coincide (what Galerkin projection needs).
  auto sqrt_lambda = geometric_spectrum(n, 1.0, 0.95);
  const CscMatrix s_factor = givens_spray(
      sqrt_lambda,
      {.left_passes = 2, .right_passes = 1, .bandwidth = 0, .seed = 2026});
  const CscMatrix a = spgemm(s_factor, s_factor.transposed());
  std::printf("operator: %ld x %ld, %ld nnz (full state dim %ld)\n", n, n,
              a.nnz(), n);

  // Ground truth trajectory: x <- x + dt * A x (growth along dominant modes).
  const double dt = 0.1;
  std::vector<double> x0(static_cast<std::size_t>(n));
  fill_gaussian(7, 3, x0);

  std::vector<double> x_true = x0;
  std::vector<double> buf(static_cast<std::size_t>(n));
  Stopwatch t_full;
  for (int s = 0; s < steps; ++s) {
    spmv(a, x_true.data(), buf.data());
    axpy(n, dt, buf.data(), x_true.data());
  }
  const double full_secs = t_full.seconds();
  std::printf("full model: %d steps in %.4fs\n\n", steps, full_secs);

  Table t({"tau", "rank K", "offline (s)", "online (s)", "online speedup",
           "trajectory rel. error"});
  for (const double tau : {1e-1, 1e-2, 1e-3}) {
    // Offline: fixed-precision basis + reduced operator.
    Stopwatch offline;
    RandQbOptions o;
    o.block_size = k;
    o.tau = tau;
    o.power = 1;
    const RandQbResult qb = randqb_ei(a, o);
    const SvdResult svd = qb_to_svd(qb.q, qb.b);
    const Matrix& u = svd.u;  // n x K
    // A_r = U^T A U.
    const Matrix au = spmm(a, u);
    const Matrix a_r = matmul_tn(u, au);
    const double offline_secs = offline.seconds();
    const Index kr = u.cols();

    // Online: z = U^T x0; z <- z + dt A_r z; x ~= U z.
    std::vector<double> z(static_cast<std::size_t>(kr), 0.0);
    gemv(z.data(), u, x0.data(), 1.0, 0.0, Trans::kYes);
    std::vector<double> zbuf(static_cast<std::size_t>(kr));
    Stopwatch online;
    for (int s = 0; s < steps; ++s) {
      gemv(zbuf.data(), a_r, z.data());
      axpy(kr, dt, zbuf.data(), z.data());
    }
    std::vector<double> x_red(static_cast<std::size_t>(n), 0.0);
    gemv(x_red.data(), u, z.data());
    const double online_secs = online.seconds();

    double diff = 0.0, base = 0.0;
    for (Index i = 0; i < n; ++i) {
      diff += (x_true[i] - x_red[i]) * (x_true[i] - x_red[i]);
      base += x_true[i] * x_true[i];
    }
    t.row()
        .cell(sci(tau, 0))
        .cell(kr)
        .cell(offline_secs, 3)
        .cell(online_secs, 4)
        .cell(full_secs / std::max(online_secs, 1e-9), 3)
        .cell(std::sqrt(diff / base), 3);
  }
  t.print(std::cout);
  std::printf("\nThe offline fixed-precision factorization buys an online "
              "loop that runs in the K-dimensional reduced space.\n");
  return 0;
}
