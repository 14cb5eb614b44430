// The paper's stated future work (Section VI-B): "these experiments still
// motivate the development of an efficient parallel implementation of
// RandUBV". This bench delivers exactly that experiment: distributed
// RandUBV vs distributed RandQB_EI (p = 0, the configuration the paper says
// RandUBV does "roughly the same amount of work" as) across rank counts —
// iterations, virtual runtime and scaling.
//
//   ./bench_future_ubv [--scale=0.25] [--k=16] [--np=1,2,4,8,16]
//                      [--matrices=M1,M3,M5]

#include "bench_util.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/randubv_dist.hpp"

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.25);
  const Index k = cli.get_int("k", 16);
  const auto nps = cli.get_int_list("np", {1, 2, 4, 8, 16});
  std::vector<std::string> labels = {"M1", "M3", "M5"};
  if (cli.has("matrices")) labels = bench::requested_labels(cli);
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header(
      "Future work: parallel RandUBV vs parallel RandQB_EI (p = 0)",
      "Section VI-B outlook of the paper");

  Table t({"label", "np", "its_ubv", "t_ubv (s)", "speedup_ubv", "its_qb",
           "t_qb (s)", "speedup_qb", "ubv/qb time"});
  for (const auto& label : labels) {
    const TestMatrix m = make_preset(label, scale);
    const auto taus = preset_tau_grid(label);
    const double tau = taus[taus.size() > 1 ? taus.size() - 2 : 0];
    const Index budget = std::min(m.a.rows(), m.a.cols()) * 9 / 10;
    std::printf("running %s' (%ld x %ld), tau = %.0e ...\n", label.c_str(),
                m.a.rows(), m.a.cols(), tau);

    double base_ubv = 0.0, base_qb = 0.0;
    for (const long long np : nps) {
      if (np * k > std::min(m.a.rows(), m.a.cols())) break;
      RandUbvOptions uo;
      uo.block_size = k;
      uo.tau = tau;
      uo.max_rank = budget;
      const DistRandUbvResult ubv = randubv_dist(m.a, uo, static_cast<int>(np));

      RandQbOptions qo;
      qo.block_size = k;
      qo.tau = tau;
      qo.power = 0;
      qo.max_rank = budget;
      const DistRandQbResult qb = randqb_ei_dist(m.a, qo, static_cast<int>(np));

      if (np == nps.front()) {
        base_ubv = ubv.virtual_seconds;
        base_qb = qb.virtual_seconds;
      }
      t.row()
          .cell(label + "'")
          .cell(static_cast<long long>(np))
          .cell(ubv.result.iterations)
          .cell(ubv.virtual_seconds, 3)
          .cell(base_ubv / ubv.virtual_seconds, 3)
          .cell(qb.result.iterations)
          .cell(qb.virtual_seconds, 3)
          .cell(base_qb / qb.virtual_seconds, 3)
          .cell(ubv.virtual_seconds / qb.virtual_seconds, 3);
    }
  }
  std::printf("\n");
  t.print(std::cout);
  t.write_csv("future_ubv.csv");
  std::printf("\nwrote future_ubv.csv\n");
  return 0;
}
