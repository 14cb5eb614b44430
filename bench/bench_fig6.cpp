// Fig. 6 — runtime breakdown of the computational kernels in RandQB_EI for
// M2' at tau = 1e-3, sweeping the number of simulated ranks, the block size
// and the power parameter p in {0, 2}. Each run is traced, and
// obs::kernel_seconds folds its compute events into the max-over-ranks
// per-kernel seconds.
//
//   ./bench_fig6 [--scale=0.2] [--k=8,16,32] [--np=4,8,16,32] [--tau=1e-3]

#include "bench_util.hpp"
#include "core/randqb_ei_dist.hpp"

namespace {

/// The kernels of RandQB_EI the figure plots.
const std::vector<std::string> kRandKernels = {
    "spmm", "orth", "power", "reorth", "b_update", "error_check"};

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
      "Fig. 6: kernel breakdown of RandQB_EI (M2', tau = 1e-3, p in {0,2})",
      "Fig. 6 of the paper");

  const TestMatrix m = make_preset("M2", scale);
  const Index n = std::min(m.a.rows(), m.a.cols());
  std::printf("M2' is %ld x %ld with %ld nnz\n", m.a.rows(), m.a.cols(),
              m.a.nnz());

  Table csv({"p", "k", "np", "kernel", "seconds"});
  for (const long long k : ks) {
    for (const long long np : nps) {
      if (np * k > n) continue;
      for (const int p : {0, 2}) {
        RandQbOptions o;
        o.block_size = k;
        o.tau = tau;
        o.power = p;
        o.max_rank = n * 7 / 10;
        const DistRandQbResult d = randqb_ei_dist(
            m.a, o, static_cast<int>(np), {.collect_trace = true});
        std::printf("\nRandQB_EI p=%d  k=%lld np=%lld  total %.4fs  (%ld its)\n",
                    p, k, np, d.virtual_seconds, d.result.iterations);
        const auto kernels = obs::kernel_seconds(d.trace);
        obs::print_kernel_breakdown(std::cout, kernels, kRandKernels,
                                    d.virtual_seconds);
        for (const auto& [name, secs] : kernels)
          csv.row().cell(p).cell(k).cell(np).cell(name).cell(secs, 5);
      }
    }
  }
  csv.write_csv("fig6.csv");
  std::printf("\nwrote fig6.csv\n");
  return 0;
}
