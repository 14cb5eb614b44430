// Section IV ablation — asymptotic arithmetic complexity in practice.
//
// The paper derives: per-iteration cost of LU_CRTP ~ O(16 k^2 nnz(A^(i)))
// (dominated by column QR_TP) and of RandQB_EI ~ O(2 K nnz(A) + ...), and a
// crossover rule: LU_CRTP is cheaper while nnz(A^(i)) stays below a multiple
// of nnz(A). This bench measures per-iteration kernel times against the
// model terms on a fill-heavy matrix (M2') and a fill-light one (M1') and
// prints measured/model ratios, which should stay roughly flat if the
// asymptotic model holds.
//
//   ./bench_complexity [--scale=0.2] [--k=16] [--tau=1e-3]

#include <cmath>

#include "bench_util.hpp"
#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.2);
  const Index k = cli.get_int("k", 16);
  const double tau = cli.get_double("tau", 1e-3);
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header("Section IV: measured cost vs asymptotic model",
                      "complexity analysis of Section IV");

  Table t({"label", "iteration", "nnz(A^(i))", "iter time (s)",
           "time / (k^2 * nnz)  [x 1e9]"});
  for (const std::string label : {"M1", "M2"}) {
    const TestMatrix m = make_preset(label, scale);
    LuCrtpOptions o;
    o.block_size = k;
    o.tau = tau;
    o.max_rank = std::min(m.a.rows(), m.a.cols()) * 6 / 10;
    const LuCrtpResult r = lu_crtp(m.a, o);
    // Per-iteration times from the cumulative telemetry clock; the Schur
    // nnz history gives the model denominator (nnz before the iteration =
    // previous Schur nnz).
    long long prev_nnz = m.a.nnz();
    double prev_t = 0.0;
    for (const obs::IterationSample& s : r.telemetry) {
      const double dt = s.time_seconds - prev_t;
      prev_t = s.time_seconds;
      const double model = static_cast<double>(k) * static_cast<double>(k) *
                           static_cast<double>(prev_nnz);
      t.row()
          .cell(label + "'")
          .cell(s.iteration)
          .cell(prev_nnz)
          .cell(dt, 4)
          .cell(1e9 * dt / model, 3);
      prev_nnz = s.schur_nnz;
    }
  }
  t.print(std::cout);
  t.write_csv("complexity_lu.csv");

  // RandQB_EI side: per-iteration cost should track 2 K nnz(A) + power terms.
  std::printf("\nRandQB_EI per-iteration cost vs model (M2'):\n\n");
  const TestMatrix m2 = make_preset("M2", scale);
  Table q({"p", "iteration", "K", "iter time (s)",
           "time / (K * nnz(A)) [x 1e9]"});
  for (const int p : {0, 1}) {
    RandQbOptions ro;
    ro.block_size = k;
    ro.tau = tau;
    ro.power = p;
    ro.max_rank = std::min(m2.a.rows(), m2.a.cols()) * 6 / 10;
    const RandQbResult r = randqb_ei(m2.a, ro);
    double prev_t = 0.0;
    for (const obs::IterationSample& s : r.telemetry) {
      const double dt = s.time_seconds - prev_t;
      prev_t = s.time_seconds;
      const double model =
          static_cast<double>(s.rank) * static_cast<double>(m2.a.nnz());
      q.row()
          .cell(p)
          .cell(s.iteration)
          .cell(s.rank)
          .cell(dt, 4)
          .cell(1e9 * dt / model, 3);
    }
  }
  q.print(std::cout);
  q.write_csv("complexity_qb.csv");
  std::printf("\nwrote complexity_lu.csv, complexity_qb.csv\n");
  return 0;
}
