// Ablation 4 (DESIGN.md) — termination criterion for LU_CRTP.
//
// Grigori et al. stop when |R^(i)(k,k)| falls below a tolerance, which does
// NOT guarantee the fixed-precision criterion (1); the paper replaces it
// with the error indicator ||A^(i+1)||_F (eq. 9). This bench runs LU_CRTP
// under both rules on matrices with different spectra and reports the rank
// chosen and the actually achieved error: the |R(k,k)| rule over- or
// under-shoots depending on the spectrum, the indicator rule never does.
//
//   ./bench_ablation_stop [--n=400] [--k=16] [--tau=1e-2]

#include <cmath>

#include "bench_util.hpp"
#include "core/lu_crtp.hpp"
#include "gen/givens_spray.hpp"
#include "gen/spectrum.hpp"

namespace {

using namespace lra;

// Emulate the |R(k,k)| stopping rule on top of the indicator-driven engine:
// run to a deep tolerance recording the trace, then find the iteration at
// which the trailing-pivot proxy drops below tau * |R^(1)(1,1)|. Since the
// engine does not expose per-iteration R(k,k), we use the equivalent
// spectral proxy: sigma_K(LU block) ~ indicator gain per iteration.
struct RuleOutcome {
  Index rank;
  double achieved;  // relative error at that rank
};

// The run's final (rank, relative indicator), for when neither rule fires.
RuleOutcome last_outcome(const LuCrtpResult& r) {
  return {r.rank,
          r.telemetry.empty() ? 1.0 : r.telemetry.back().indicator_rel};
}

RuleOutcome indicator_rule(const LuCrtpResult& r, double tau) {
  for (const obs::IterationSample& s : r.telemetry)
    if (s.indicator_rel < tau) return {s.rank, s.indicator_rel};
  return last_outcome(r);
}

RuleOutcome pivot_rule(const LuCrtpResult& r, const std::vector<double>& sigma,
                       double tau) {
  // |R^(i)(k,k)| tracks sigma_{K}(A); the rule stops when it dips below
  // tau * sigma_1. Evaluate on the exact spectrum (available for sprays).
  for (const obs::IterationSample& s : r.telemetry) {
    if (s.rank < static_cast<Index>(sigma.size()) &&
        sigma[static_cast<std::size_t>(s.rank)] < tau * sigma[0])
      return {s.rank, s.indicator_rel};
  }
  return last_outcome(r);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const Index n = cli.get_int("n", 400);
  const Index k = cli.get_int("k", 16);
  const double tau = cli.get_double("tau", 1e-2);
  bench::configure_threads(cli);
  cli.reject_unread();

  bench::print_header("Ablation: |R(k,k)| stop vs error-indicator stop (9)",
                      "Section II-B2 of the paper");

  struct Case {
    const char* name;
    std::vector<double> sigma;
  };
  // Three regimes:
  //  * benign geometric decay - the rules agree;
  //  * a wide plateau just below tau*sigma_1 - the pivot rule stops as soon
  //    as one plateau value appears although the plateau's collective
  //    Frobenius mass still violates (1) (under-shoot);
  //  * slow decay with no value below tau*sigma_1 until very deep - the
  //    pivot rule keeps going long after (1) is satisfied (over-shoot).
  std::vector<double> plateau(n, 1e-8);
  for (Index i = 0; i < 10; ++i) plateau[i] = 1.0 - 0.02 * i;
  for (Index i = 10; i < std::min<Index>(n, 250); ++i)
    plateau[i] = 0.5 * tau;  // each value passes the pivot test ...
  std::vector<double> slow = geometric_spectrum(n, 1.0, 0.995);
  const std::vector<Case> cases = {
      {"geometric decay", geometric_spectrum(n, 1.0, 0.95)},
      {"plateau below tau*s1", plateau},
      {"slow decay, no gap", slow},
  };

  Table t({"spectrum", "rule", "rank chosen", "achieved rel. error",
           "meets tau?"});
  for (const auto& c : cases) {
    const CscMatrix a = givens_spray(
        c.sigma,
        {.left_passes = 2, .right_passes = 2, .bandwidth = 0, .seed = 88});
    LuCrtpOptions o;
    o.block_size = k;
    o.tau = 1e-8;  // deep run; the rules are evaluated on the trace
    o.max_rank = n * 9 / 10;
    const LuCrtpResult r = lu_crtp(a, o);

    const RuleOutcome ind = indicator_rule(r, tau);
    const RuleOutcome piv = pivot_rule(r, c.sigma, tau);
    t.row()
        .cell(c.name)
        .cell("indicator (9)")
        .cell(ind.rank)
        .cell(sci(ind.achieved, 2))
        .cell(ind.achieved < tau ? "yes" : "NO");
    t.row()
        .cell(c.name)
        .cell("|R(k,k)| < tau*|R(1,1)|")
        .cell(piv.rank)
        .cell(sci(piv.achieved, 2))
        .cell(piv.achieved < tau ? "yes" : "NO");
  }
  t.print(std::cout);
  t.write_csv("ablation_stop.csv");
  std::printf("\nThe pivot rule certifies a spectral-gap condition, not the "
              "Frobenius criterion (1); the indicator rule is what makes the "
              "LU_CRTP-vs-RandQB_EI comparison fair.\nwrote ablation_stop.csv\n");
  return 0;
}
