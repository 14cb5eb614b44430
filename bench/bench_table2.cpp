// Table II — runtime per correct digit. For each test matrix and tolerance:
// iteration counts of RandUBV and RandQB_EI (p = 0, 1, 2), iterations and
// runtime of LU_CRTP, runtime of ILUT_CRTP, the factor-nnz ratio and the
// threshold mu determined by (24).
//
// Runtimes are the virtual-time parallel runtimes of the distributed engines
// (np ranks on the simulated interconnect). RandQB_EI / LU_CRTP / RandUBV are
// each run once per matrix at the tightest tolerance; the per-tau rows are
// read off their convergence telemetry (the methods are tau-oblivious except
// for stopping). ILUT_CRTP is rerun per tau because mu depends on tau. "-" marks
// non-convergence within the rank budget, as in the paper.
//
//   ./bench_table2 [--scale=0.25] [--np=8] [--k=32] [--matrices=M1,...]
//                  [--report=table2.jsonl]

#include <cmath>

#include "bench_util.hpp"
#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei_dist.hpp"
#include "core/randubv.hpp"

namespace {

using namespace lra;

// First iteration whose indicator is below tau, or -1.
long long its_for_tau(const obs::TelemetrySeries& series, double tau) {
  for (const obs::IterationSample& s : series)
    if (s.indicator_rel < tau) return s.iteration;
  return -1;
}

// The sample of iteration `its` (1-based, as returned by its_for_tau).
const obs::IterationSample& at_iteration(const obs::TelemetrySeries& series,
                                         long long its) {
  return series[static_cast<std::size_t>(its - 1)];
}

std::string time_cell(const obs::TelemetrySeries& series, long long its) {
  if (its < 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g",
                at_iteration(series, its).time_seconds);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lra;
  using bench::or_dash;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.35);
  const int np = static_cast<int>(cli.get_int("np", 8));
  const Index k = cli.get_int("k", 16);
  bench::configure_threads(cli);

  const std::vector<std::string> labels = bench::requested_labels(cli);
  auto report = bench::open_report(cli, "bench_table2");
  cli.reject_unread();
  // With a report open, the distributed runs collect traces so every summary
  // record embeds the solver phase breakdown (same schema as the profiler's
  // profile_phase records). Tracing never changes the modeled clocks.
  SimOptions sim;
  sim.collect_trace = report != nullptr;

  bench::print_header("Table II: runtime per correct digit",
                      "Table II of the paper");
  std::printf("np = %d simulated ranks, block size k = %ld, scale = %.2f\n\n",
              np, k, scale);

  Table t({"label", "tau", "its_ubv", "its_p0", "time_p0", "its_p1", "time_p1",
           "its_p2", "time_p2", "its_lu", "time_lu", "time_ilut", "ratio_nnz",
           "mu"});

  for (const auto& label : labels) {
    const TestMatrix m = make_preset(label, scale);
    const auto taus = preset_tau_grid(label);
    const double tau_min = taus.back();
    // Cap the rank budget: the paper reports "-" where a method did not
    // converge "within a reasonable number of iterations".
    const Index budget = std::min(m.a.rows(), m.a.cols()) * 9 / 10;
    std::printf("running %s' (%ld x %ld, %ld nnz) ...\n", label.c_str(),
                m.a.rows(), m.a.cols(), m.a.nnz());

    // --- RandUBV (sequential; the paper reports only its iteration counts) ---
    RandUbvOptions uo;
    uo.block_size = k;
    uo.tau = tau_min;
    uo.max_rank = budget;
    const RandUbvResult ubv = randubv(m.a, uo);
    bench::report_run(report.get(), label, "randubv", 1, tau_min, ubv);

    // --- RandQB_EI with p = 0, 1, 2 ---
    std::vector<DistRandQbResult> qb;
    for (int p = 0; p <= 2; ++p) {
      RandQbOptions ro;
      ro.block_size = k;
      ro.tau = tau_min;
      ro.power = p;
      ro.max_rank = budget;
      qb.push_back(randqb_ei_dist(m.a, ro, np, sim));
      bench::report_run(report.get(), label,
                        "randqb_ei(p=" + std::to_string(p) + ")", np, tau_min,
                        qb.back());
    }

    // --- LU_CRTP ---
    LuCrtpOptions lo;
    lo.block_size = k;
    lo.tau = tau_min;
    lo.max_rank = budget;
    const DistLuResult lu = lu_crtp_dist(m.a, lo, np, sim);
    bench::report_run(report.get(), label, "lu_crtp", np, tau_min, lu);

    for (const double tau : taus) {
      const long long its_lu = its_for_tau(lu.result.telemetry, tau);

      // ILUT_CRTP per tau; u = LU_CRTP's iteration count at this tau (the
      // paper's convention). Skipped ("-") when LU_CRTP needs <= 1 iteration:
      // thresholding never engages before the second iteration.
      std::string time_ilut = "-", ratio_nnz = "-", mu = "-";
      if (its_lu > 1) {
        LuCrtpOptions io = lo;
        io.tau = tau;
        io.threshold = ThresholdMode::kIlut;
        io.estimated_iterations = its_lu;
        const DistLuResult il = lu_crtp_dist(m.a, io, np, sim);
        bench::report_run(report.get(), label, "ilut_crtp", np, tau, il);
        if (il.result.status == Status::kConverged) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.3g", il.virtual_seconds);
          time_ilut = buf;
          const long long lu_nnz =
              at_iteration(lu.result.telemetry, its_lu).factor_nnz;
          std::snprintf(buf, sizeof(buf), "%.1f",
                        static_cast<double>(lu_nnz) /
                            static_cast<double>(il.result.l.nnz() +
                                                il.result.u.nnz()));
          ratio_nnz = buf;
          mu = sci(il.result.mu, 1);
        }
      }

      const long long i0 = its_for_tau(qb[0].result.telemetry, tau);
      const long long i1 = its_for_tau(qb[1].result.telemetry, tau);
      const long long i2 = its_for_tau(qb[2].result.telemetry, tau);
      t.row()
          .cell(label + "'")
          .cell(sci(tau, 0))
          .cell(or_dash(its_for_tau(ubv.telemetry, tau)))
          .cell(or_dash(i0))
          .cell(time_cell(qb[0].result.telemetry, i0))
          .cell(or_dash(i1))
          .cell(time_cell(qb[1].result.telemetry, i1))
          .cell(or_dash(i2))
          .cell(time_cell(qb[2].result.telemetry, i2))
          .cell(or_dash(its_lu))
          .cell(time_cell(lu.result.telemetry, its_lu))
          .cell(time_ilut)
          .cell(ratio_nnz)
          .cell(mu);
    }
  }
  std::printf("\n");
  t.print(std::cout);
  t.write_csv("table2.csv");
  std::printf("\nwrote table2.csv\n");
  if (report)
    std::printf("wrote %s (%d records)\n", cli.get("report", "").c_str(),
                report->records());
  return 0;
}
