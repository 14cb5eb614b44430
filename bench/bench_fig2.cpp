// Fig. 2 — runtime vs approximation quality for M3' and M4', plus the
// "minimum rank required" (exact, from the generator's spectrum — the
// paper's TSVD reference) and the rank the methods actually used.
//
// Each method runs once to the tightest tolerance; the telemetry supplies
// (runtime, achieved-quality, rank) triples per iteration.
//
//   ./bench_fig2 [--scale=0.2] [--np=8] [--k=32] [--tau_min=1e-3]
//                [--matrices=M3,M4]

#include "bench_util.hpp"
#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei_dist.hpp"
#include "dense/svd.hpp"

namespace {

using namespace lra;

void emit_series(Table& t, const std::string& label, const std::string& method,
                 const obs::TelemetrySeries& series, Index n,
                 const std::vector<double>& sigma) {
  for (const obs::IterationSample& s : series) {
    const Index min_rank = min_rank_for_tolerance(sigma, s.indicator_rel);
    t.row()
        .cell(label + "'")
        .cell(method)
        .cell(s.time_seconds, 4)
        .cell(sci(s.indicator_rel, 2))
        .cell(s.rank)
        .cell(100.0 * static_cast<double>(s.rank) / static_cast<double>(n), 3)
        .cell(100.0 * static_cast<double>(min_rank) / static_cast<double>(n), 3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.25);
  const int np = static_cast<int>(cli.get_int("np", 8));
  const Index k = cli.get_int("k", 16);
  const double tau_min = cli.get_double("tau_min", 1e-3);
  std::vector<std::string> labels = {"M3", "M4"};
  if (cli.has("matrices")) labels = bench::requested_labels(cli);
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header("Fig. 2: runtime vs approximation quality (M3', M4')",
                      "Fig. 2 of the paper");

  Table t({"label", "method", "time (s)", "achieved rel. error", "rank K",
           "K as % of n", "min rank required (% of n)"});
  for (const auto& label : labels) {
    const TestMatrix m = make_preset(label, scale);
    const Index budget = std::min(m.a.rows(), m.a.cols()) * 9 / 10;
    std::printf("running %s' (%ld x %ld) ...\n", label.c_str(), m.a.rows(),
                m.a.cols());

    for (int p = 0; p <= 2; ++p) {
      RandQbOptions ro;
      ro.block_size = k;
      ro.tau = tau_min;
      ro.power = p;
      ro.max_rank = budget;
      const DistRandQbResult qb = randqb_ei_dist(m.a, ro, np);
      emit_series(t, label, "RandQB_EI p=" + std::to_string(p),
                  qb.result.telemetry, m.a.cols(), m.sigma);
    }
    LuCrtpOptions lo;
    lo.block_size = k;
    lo.tau = tau_min;
    lo.max_rank = budget;
    const DistLuResult lu = lu_crtp_dist(m.a, lo, np);
    emit_series(t, label, "LU_CRTP", lu.result.telemetry, m.a.cols(),
                m.sigma);

    LuCrtpOptions io = lo;
    io.threshold = ThresholdMode::kIlut;
    io.estimated_iterations = lu.result.iterations;
    const DistLuResult il = lu_crtp_dist(m.a, io, np);
    emit_series(t, label, "ILUT_CRTP", il.result.telemetry, m.a.cols(),
                m.sigma);
  }
  std::printf("\n");
  t.print(std::cout);
  t.write_csv("fig2.csv");
  std::printf("\nwrote fig2.csv\n");
  return 0;
}
