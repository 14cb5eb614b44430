// Domain scenario: sizing a cluster job with the virtual-time runtime.
//
// Before reserving cluster time, a practitioner wants to know how many MPI
// ranks a factorization can productively use. This example runs the
// distributed LU_CRTP / ILUT_CRTP / RandQB_EI engines over a range of rank
// counts on the simulated interconnect and prints the modeled runtime and
// speedup for each — the same workflow behind Fig. 4 of the paper.
//
//   ./parallel_scaling [--n=800] [--k=16] [--tau=1e-2] [--np=1,2,4,8,16]

#include <cstdio>
#include <iostream>

#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei_dist.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const Index n = cli.get_int("n", 800);
  const Index k = cli.get_int("k", 16);
  const double tau = cli.get_double("tau", 1e-2);
  const auto nps = cli.get_int_list("np", {1, 2, 4, 8, 16});
  cli.reject_unread();

  const CscMatrix a = givens_spray(
      algebraic_spectrum(n, 10.0, 0.9),
      {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 12});
  std::printf("matrix %ld x %ld (%ld nnz), tau = %.0e, k = %ld\n\n",
              a.rows(), a.cols(), a.nnz(), tau, k);

  Table t({"np", "LU_CRTP (s)", "speedup", "ILUT_CRTP (s)", "speedup",
           "RandQB_EI (s)", "speedup"});
  double base_lu = 0.0, base_il = 0.0, base_qb = 0.0;
  for (const long long np : nps) {
    LuCrtpOptions lo;
    lo.block_size = k;
    lo.tau = tau;
    const double t_lu = lu_crtp_dist(a, lo, static_cast<int>(np)).virtual_seconds;

    LuCrtpOptions io = lo;
    io.threshold = ThresholdMode::kIlut;
    const double t_il = lu_crtp_dist(a, io, static_cast<int>(np)).virtual_seconds;

    RandQbOptions ro;
    ro.block_size = k;
    ro.tau = tau;
    ro.power = 1;
    const double t_qb =
        randqb_ei_dist(a, ro, static_cast<int>(np)).virtual_seconds;

    if (np == nps.front()) {
      base_lu = t_lu;
      base_il = t_il;
      base_qb = t_qb;
    }
    t.row()
        .cell(static_cast<long long>(np))
        .cell(t_lu, 3)
        .cell(base_lu / t_lu, 3)
        .cell(t_il, 3)
        .cell(base_il / t_il, 3)
        .cell(t_qb, 3)
        .cell(base_qb / t_qb, 3);
  }
  t.print(std::cout);
  std::printf("\nRuntimes are virtual (thread-CPU compute + alpha-beta "
              "communication model); see DESIGN.md for the substitution.\n");
  return 0;
}
