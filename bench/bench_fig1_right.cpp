// Fig. 1 (right) — fill-in progression: density of A^(i) after each
// LU_CRTP iteration for the analogs of M2-M5, with the block sizes of
// Table II (scaled).
//
//   ./bench_fig1_right [--scale=0.25] [--k=32] [--tau=1e-3]

#include "bench_util.hpp"
#include "core/lu_crtp.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.25);
  const Index k = cli.get_int("k", 32);
  const double tau = cli.get_double("tau", 1e-3);
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header("Fig. 1 (right): fill-in of A^(i) per LU_CRTP iteration",
                      "Fig. 1 right of the paper (matrices M2-M5)");

  Table t({"label", "iteration", "density nnz/(rows*cols)", "nnz(A^(i))"});
  for (const std::string label : {"M2", "M3", "M4", "M5"}) {
    const TestMatrix m = make_preset(label, scale);
    LuCrtpOptions o;
    o.block_size = k;
    o.tau = tau;
    o.max_rank = std::min(m.a.rows(), m.a.cols()) * 7 / 10;
    const LuCrtpResult r = lu_crtp(m.a, o);
    std::printf("%s' (%ld x %ld): start density %.5f, %ld iterations (%s)\n",
                label.c_str(), m.a.rows(), m.a.cols(), m.a.density(),
                r.iterations, to_string(r.status));
    for (const obs::IterationSample& s : r.telemetry) {
      t.row()
          .cell(label + "'")
          .cell(s.iteration)
          .cell(s.fill_density, 4)
          .cell(s.schur_nnz);
    }
  }
  std::printf("\n");
  t.print(std::cout);
  t.write_csv("fig1_right.csv");
  std::printf("\nwrote fig1_right.csv\n");
  return 0;
}
