// Section VI-B orthogonality-loss experiment: "Despite reorthogonalization,
// RandQB_EI experienced a slight loss of orthogonality in the approximate
// basis Q_K over the iterations. With i = 1, ||Q^T Q - I||_inf was in the
// range 1e-15 to 1e-14 and increased by about one order of magnitude" by the
// final iteration. This bench measures ||Q_K^T Q_K - I||_inf after the first
// iteration and at convergence for every test matrix.
//
//   ./bench_orthogonality [--scale=0.25] [--k=16]

#include "bench_util.hpp"
#include "core/randqb_ei.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.25);
  const Index k = cli.get_int("k", 16);
  const std::vector<std::string> labels = bench::requested_labels(cli);
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header("Orthogonality loss of Q_K over RandQB_EI iterations",
                      "Section VI-B text (||Q^T Q - I||_inf growth)");

  Table t({"label", "tau", "its", "rank", "loss after i=1", "loss at exit",
           "growth factor"});
  for (const auto& label : labels) {
    const TestMatrix m = make_preset(label, scale);
    const auto taus = preset_tau_grid(label);
    const double tau = taus.back();

    RandQbOptions first;
    first.block_size = k;
    first.tau = 0.0;
    first.max_rank = k;  // exactly one iteration
    first.power = 1;
    const RandQbResult r1 = randqb_ei(m.a, first);

    RandQbOptions full = first;
    full.tau = tau;
    full.max_rank = std::min(m.a.rows(), m.a.cols()) * 9 / 10;
    const RandQbResult rf = randqb_ei(m.a, full);
    const double loss1 = orth_loss(r1.q), lossf = orth_loss(rf.q);

    t.row()
        .cell(label + "'")
        .cell(sci(tau, 0))
        .cell(rf.iterations)
        .cell(rf.rank)
        .cell(sci(loss1, 2))
        .cell(sci(lossf, 2))
        .cell(lossf / std::max(loss1, 1e-300), 2);
  }
  t.print(std::cout);
  t.write_csv("orthogonality.csv");
  std::printf("\nwrote orthogonality.csv\n");
  return 0;
}
