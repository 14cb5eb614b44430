// Fig. 4 — strong scaling. Left plot analog: M2' with small k to a tight
// tolerance. Right plot analog: M4' and M5' with a larger k. Speedups over
// np = 1 of the virtual-time parallel runtimes for RandQB_EI (p = 1),
// LU_CRTP and ILUT_CRTP.
//
//   ./bench_fig4 [--scale=0.2] [--np=1,2,4,8,16,32] [--k_left=16]
//                [--k_right=32] [--tau_left=1e-4] [--tau_right=1e-3]
//                [--report=fig4.jsonl] [--threads=N]
//
// The left-plot (M2') np = 2 sweep point runs with tracing on: its report
// summaries carry per-phase cost breakdowns and the full profile /
// profile_rank / profile_phase records with what-if projections (see
// EXPERIMENTS.md). The process exits nonzero if any traced run violates the
// profiler's conservation or what-if ordering invariants.

#include "bench_util.hpp"
#include "core/lu_crtp_dist.hpp"
#include "core/randqb_ei_dist.hpp"

namespace {

using namespace lra;

int g_profile_failures = 0;  // conservation / what-if violations

// Emit the full profiler block for one traced sweep-point run and count any
// conservation / what-if-ordering violation as a harness failure.
template <typename DistResult>
void profile_run(obs::ReportWriter* report, const char* method,
                 const std::string& label, int np, const DistResult& d) {
  if (d.trace.empty()) return;
  const std::string run = "fig4:" + label + ":" + method + ":np" +
                          std::to_string(np);
  if (!bench::report_profile(report, d.trace, run)) {
    std::fprintf(stderr, "PROFILE FAIL: invariants violated for %s\n",
                 run.c_str());
    ++g_profile_failures;
  }
}

void scaling_block(Table& t, const TestMatrix& m, Index k, double tau,
                   const std::vector<long long>& nps,
                   obs::ReportWriter* report, bool profile_point) {
  std::printf("running %s' (%ld x %ld), k = %ld, tau = %.0e ...\n",
              m.label.c_str(), m.a.rows(), m.a.cols(), k, tau);
  const Index budget = std::min(m.a.rows(), m.a.cols()) * 9 / 10;
  double base_qb = 0.0, base_lu = 0.0, base_il = 0.0;
  Index lu_its = 0;
  for (const long long np : nps) {
    if (np * k > std::min(m.a.rows(), m.a.cols())) break;  // as in Fig. 5
    // One sweep point (np = 2 of the profiled block) runs with tracing on so
    // the report carries per-phase breakdowns and what-if projections. Traces
    // never change the modeled clocks, so speedups are unaffected.
    SimOptions sim;
    sim.collect_trace = profile_point && np == 2;
    RandQbOptions ro;
    ro.block_size = k;
    ro.tau = tau;
    ro.power = 1;
    ro.max_rank = budget;
    const DistRandQbResult dqb =
        randqb_ei_dist(m.a, ro, static_cast<int>(np), sim);
    const double t_qb = dqb.virtual_seconds;
    bench::report_run(report, m.label, "randqb_ei(p=1)",
                      static_cast<int>(np), tau, dqb);
    profile_run(report, "randqb_ei", m.label, static_cast<int>(np), dqb);

    LuCrtpOptions lo;
    lo.block_size = k;
    lo.tau = tau;
    lo.max_rank = budget;
    const DistLuResult lu = lu_crtp_dist(m.a, lo, static_cast<int>(np), sim);
    if (np == nps.front()) lu_its = lu.result.iterations;
    bench::report_run(report, m.label, "lu_crtp", static_cast<int>(np), tau,
                      lu);
    profile_run(report, "lu_crtp", m.label, static_cast<int>(np), lu);

    LuCrtpOptions io = lo;
    io.threshold = ThresholdMode::kIlut;
    io.estimated_iterations = lu_its;
    const DistLuResult il = lu_crtp_dist(m.a, io, static_cast<int>(np), sim);
    const double t_il = il.virtual_seconds;
    bench::report_run(report, m.label, "ilut_crtp", static_cast<int>(np),
                      tau, il);
    profile_run(report, "ilut_crtp", m.label, static_cast<int>(np), il);

    if (np == nps.front()) {
      base_qb = t_qb;
      base_lu = lu.virtual_seconds;
      base_il = t_il;
    }
    t.row()
        .cell(m.label + "'")
        .cell(static_cast<long long>(np))
        .cell(base_qb / t_qb, 3)
        .cell(base_lu / lu.virtual_seconds, 3)
        .cell(base_il / t_il, 3)
        .cell(t_qb, 3)
        .cell(lu.virtual_seconds, 3)
        .cell(t_il, 3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.2);
  const auto nps = cli.get_int_list("np", {1, 2, 4, 8, 16, 32});
  const Index k_left = cli.get_int("k_left", 16);
  const Index k_right = cli.get_int("k_right", 32);
  const double tau_left = cli.get_double("tau_left", 1e-4);
  const double tau_right = cli.get_double("tau_right", 1e-3);
  bench::configure_threads(cli);
  auto report = bench::open_report(cli, "bench_fig4");
  cli.reject_unread();

  bench::print_header("Fig. 4: strong scaling (speedup over np = 1)",
                      "Fig. 4 of the paper (left: M2; right: M4, M5)");

  Table t({"label", "np", "speedup RandQB_EI", "speedup LU_CRTP",
           "speedup ILUT_CRTP", "t_qb (s)", "t_lu (s)", "t_ilut (s)"});

  scaling_block(t, make_preset("M2", scale), k_left, tau_left, nps,
                report.get(), /*profile_point=*/true);
  scaling_block(t, make_preset("M4", scale), k_right, tau_right, nps,
                report.get(), /*profile_point=*/false);
  scaling_block(t, make_preset("M5", scale), k_right, tau_right, nps,
                report.get(), /*profile_point=*/false);

  std::printf("\n");
  t.print(std::cout);
  t.write_csv("fig4.csv");
  std::printf("\nwrote fig4.csv\n");
  if (report)
    std::printf("wrote %s (%d records)\n", cli.get("report", "").c_str(),
                report->records());
  if (g_profile_failures > 0) {
    std::fprintf(stderr, "profile invariants: %d failure(s)\n",
                 g_profile_failures);
    return 1;
  }
  return 0;
}
