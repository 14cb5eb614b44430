// Quickstart: build (or load) a sparse matrix and compute a fixed-precision
// low-rank approximation with each of the three methods, then verify the
// achieved error against the requested tolerance.
//
//   ./quickstart [--tau=1e-2] [--k=16] [--n=600] [--mtx=path/to/matrix.mtx]

#include <cstdio>

#include "core/ilut_crtp.hpp"
#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "sparse/io_mm.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const double tau = cli.get_double("tau", 1e-2);
  const Index k = cli.get_int("k", 16);
  const Index n = cli.get_int("n", 600);
  const bool from_file = cli.has("mtx");
  cli.reject_unread();

  // Either read a MatrixMarket file or generate a sparse matrix with a known
  // spectrum (singular values sigma_i = 8 * 0.97^i).
  CscMatrix a;
  if (from_file) {
    a = read_matrix_market(cli.get("mtx", ""));
  } else {
    a = givens_spray(geometric_spectrum(n, 8.0, 0.97),
                     {.left_passes = 2, .right_passes = 2, .bandwidth = 0,
                      .seed = 42});
  }
  std::printf("A: %ld x %ld, %ld non-zeros (density %.4f)\n", a.rows(),
              a.cols(), a.nnz(), a.density());
  std::printf("target: ||A - A_K||_F < %.1e * ||A||_F\n\n", tau);

  Stopwatch clock;

  // --- Randomized QB (RandQB_EI) ---
  RandQbOptions ro;
  ro.block_size = k;
  ro.tau = tau;
  ro.power = 1;
  clock.reset();
  const RandQbResult qb = randqb_ei(a, ro);
  std::printf("RandQB_EI : rank %4ld in %3ld iterations, %6.2fs, error %.3e (%s)\n",
              qb.rank, qb.iterations, clock.seconds(),
              randqb_exact_error(a, qb) / qb.anorm_f, to_string(qb.status));

  // --- Deterministic truncated LU (LU_CRTP) ---
  LuCrtpOptions lo;
  lo.block_size = k;
  lo.tau = tau;
  clock.reset();
  const LuCrtpResult lu = lu_crtp(a, lo);
  std::printf("LU_CRTP   : rank %4ld in %3ld iterations, %6.2fs, error %.3e (%s)\n",
              lu.rank, lu.iterations, clock.seconds(),
              lu_crtp_exact_error(a, lu) / lu.anorm_f, to_string(lu.status));

  // --- Incomplete variant (ILUT_CRTP) ---
  LuCrtpOptions io = lo;
  io.estimated_iterations = lu.iterations;  // the paper's convention for u
  clock.reset();
  const LuCrtpResult il = ilut_crtp(a, io);
  std::printf("ILUT_CRTP : rank %4ld in %3ld iterations, %6.2fs, error %.3e (%s)\n",
              il.rank, il.iterations, clock.seconds(),
              lu_crtp_exact_error(a, il) / il.anorm_f, to_string(il.status));

  std::printf("\nfactor non-zeros: LU_CRTP %ld vs ILUT_CRTP %ld "
              "(ratio %.1fx, %ld entries dropped, mu = %.2e)\n",
              lu.l.nnz() + lu.u.nnz(), il.l.nnz() + il.u.nnz(),
              static_cast<double>(lu.l.nnz() + lu.u.nnz()) /
                  static_cast<double>(il.l.nnz() + il.u.nnz()),
              il.dropped_entries, il.mu);
  std::printf("dense QB factors would hold %ld values.\n",
              qb.q.size() + qb.b.size());
  return 0;
}
