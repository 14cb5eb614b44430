// Related-work baseline comparison (Section I-A of the paper): why the paper
// restricts the study to RandQB_EI and LU_CRTP for *large sparse*
// fixed-precision problems.
//
//   * ARRF (Halko Alg. 4.2)  — vector-at-a-time adaptivity: accurate but the
//     per-vector projections make it far slower at equal quality;
//   * RSVD restarts          — fixed-rank RSVD with doubling rank: wasted
//     sketches on every restart;
//   * RandQB_b               — blocked QB whose A := A - QB update densifies
//     the sparse input (memory column shows the blow-up);
//   * RandQB_EI / ILUT_CRTP  — the paper's contenders.
//
//   ./bench_baselines [--n=800] [--tau=1e-2] [--k=16]

#include "bench_util.hpp"
#include "core/fixed_rank.hpp"
#include "core/ilut_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"
#include "sparse/ops.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const Index n = cli.get_int("n", 800);
  const double tau = cli.get_double("tau", 1e-2);
  const Index k = cli.get_int("k", 16);
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header("Fixed-precision baselines (Section I-A related work)",
                      "the algorithm-selection argument of Section I");

  const auto sigma = geometric_spectrum(n, 10.0, 0.985);
  const CscMatrix a = givens_spray(
      sigma, {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 7});
  const double anorm = a.frobenius_norm();
  std::printf("matrix %ld x %ld, %ld nnz, tau = %.0e\n\n", a.rows(), a.cols(),
              a.nnz(), tau);

  Table t({"method", "rank", "time (s)", "rel. error", "working memory "
           "(values)", "notes"});
  Stopwatch w;

  {
    w.reset();
    RandQbOptions o;
    o.block_size = k;
    o.tau = tau;
    o.power = 1;
    const RandQbResult r = randqb_ei(a, o);
    t.row()
        .cell("RandQB_EI (p=1)")
        .cell(r.rank)
        .cell(w.seconds(), 3)
        .cell(randqb_exact_error(a, r) / anorm, 3)
        .cell(r.q.size() + r.b.size() + a.nnz())
        .cell("paper's randomized contender");
  }
  {
    w.reset();
    LuCrtpOptions o;
    o.block_size = k;
    o.tau = tau;
    const LuCrtpResult r = ilut_crtp(a, o);
    t.row()
        .cell("ILUT_CRTP")
        .cell(r.rank)
        .cell(w.seconds(), 3)
        .cell(lu_crtp_exact_error(a, r) / anorm, 3)
        .cell(r.l.nnz() + r.u.nnz() + a.nnz())
        .cell("paper's deterministic contender");
  }
  {
    w.reset();
    ArrfOptions o;
    o.tau = tau;
    const ArrfResult r = arrf(a, o);
    const Matrix b = spmm_t(a, r.q).transposed();
    t.row()
        .cell("ARRF (Halko 4.2)")
        .cell(r.rank)
        .cell(w.seconds(), 3)
        .cell(residual_fro(a, r.q, b) / anorm, 3)
        .cell(r.q.size() + a.nnz())
        .cell("vector-at-a-time adaptivity");
  }
  {
    w.reset();
    const RsvdRestartResult r = rsvd_restart(a, tau, k, 1);
    t.row()
        .cell("RSVD restarts")
        .cell(r.rank)
        .cell(w.seconds(), 3)
        .cell(r.error / anorm, 3)
        .cell(r.svd.u.size() + r.svd.v.size() + a.nnz())
        .cell(std::to_string(r.restarts) + " full re-sketches");
  }
  {
    w.reset();
    const RandQbBlockedResult r = randqb_b(a, k, tau);
    t.row()
        .cell("RandQB_b")
        .cell(r.rank)
        .cell(w.seconds(), 3)
        .cell(residual_fro(a, r.q, r.b) / anorm, 3)
        .cell(r.q.size() + r.b.size() + r.peak_dense_nnz)
        .cell("A densified: " + std::to_string(r.peak_dense_nnz) +
              " vs nnz(A) = " + std::to_string(a.nnz()));
  }

  t.print(std::cout);
  t.write_csv("baselines.csv");
  std::printf("\nwrote baselines.csv\n");
  return 0;
}
