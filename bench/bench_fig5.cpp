// Fig. 5 — runtime breakdown of the computational kernels in LU_CRTP and
// ILUT_CRTP for M2' at tau = 1e-3, sweeping the number of simulated ranks
// and the block size. Kernel times are accumulated over all iterations and
// the maximum across ranks is reported, exactly as in the paper's figure:
// each run is traced, and obs::kernel_seconds folds its compute events.
//
//   ./bench_fig5 [--scale=0.2] [--k=8,16,32] [--np=4,8,16,32] [--tau=1e-3]

#include "bench_util.hpp"
#include "core/lu_crtp_dist.hpp"

namespace {

/// The kernels of LU_CRTP/ILUT_CRTP the figure plots.
const std::vector<std::string> kDetKernels = {
    "col_qrtp", "col_qr", "row_qrtp", "row_perm", "solve_a21", "schur",
    "threshold"};

}  // namespace

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.2);
  const double tau = cli.get_double("tau", 1e-3);
  const auto ks = cli.get_int_list("k", {8, 16, 32});
  const auto nps = cli.get_int_list("np", {4, 8, 16, 32});
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header(
      "Fig. 5: kernel breakdown of LU_CRTP / ILUT_CRTP (M2', tau = 1e-3)",
      "Fig. 5 of the paper");

  const TestMatrix m = make_preset("M2", scale);
  const Index n = std::min(m.a.rows(), m.a.cols());
  std::printf("M2' is %ld x %ld with %ld nnz\n", m.a.rows(), m.a.cols(),
              m.a.nnz());

  Table csv({"method", "k", "np", "kernel", "seconds"});
  for (const long long k : ks) {
    for (const long long np : nps) {
      if (np * k > n) continue;  // paper: stop once np*k exceeds the size
      for (const bool ilut : {false, true}) {
        LuCrtpOptions o;
        o.block_size = k;
        o.tau = tau;
        o.max_rank = n * 7 / 10;
        if (ilut) o.threshold = ThresholdMode::kIlut;
        const DistLuResult d = lu_crtp_dist(m.a, o, static_cast<int>(np),
                                            {.collect_trace = true});
        std::printf("\n%s  k=%lld np=%lld  total %.4fs  (%ld its, %s)\n",
                    ilut ? "ILUT_CRTP" : "LU_CRTP  ", k, np,
                    d.virtual_seconds, d.result.iterations,
                    to_string(d.result.status));
        const auto kernels = obs::kernel_seconds(d.trace);
        obs::print_kernel_breakdown(std::cout, kernels, kDetKernels,
                                    d.virtual_seconds);
        for (const auto& [name, secs] : kernels)
          csv.row()
              .cell(ilut ? "ILUT_CRTP" : "LU_CRTP")
              .cell(k)
              .cell(np)
              .cell(name)
              .cell(secs, 5);
      }
    }
  }
  csv.write_csv("fig5.csv");
  std::printf("\nwrote fig5.csv\n");
  return 0;
}
