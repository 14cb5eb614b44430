#pragma once
// Differential oracle: run the sequential and simulated-distributed engines
// of a solver on the same generated matrix and cross-check them, with and
// without an installed fault plan.
//
// Checks and their documented tolerances (see EXPERIMENTS.md, HARNESS):
//
//   sequential vs clean distributed
//     * at nranks == 1 the decision fields are bitwise identical (status,
//       rank, iterations and the exit indicator as exact doubles): both
//       engines run the method's one SPMD body, the sequential one as the
//       single rank of the in-process context;
//     * at nranks > 1 termination statuses are identical and rank decisions
//       agree within one block (|K_seq - K_dist| <= block_size: the engines
//       pivot/sketch over different data layouts, so they may stop one
//       panel apart, never more);
//     * both converged results are *honest*: the dense exact error satisfies
//       ||A - H W||_F <= 1.1 * max(tau * ||A||_F, indicator) (the shared
//       ExpectHonestBound from the robustness tests);
//     * the distributed run's comm counters satisfy every cross-rank
//       invariant (CommStats::check_invariants) and the run is not aborted.
//     At nranks > 1 error indicators are NOT compared across engines:
//     tournament pivoting over a reduction tree may select different pivots
//     than the one-rank tournament, and TSQR reassociates sums — both
//     engines only promise the honesty bound above.
//
//   clean distributed vs benign-faulted distributed (the plan with its
//   flip clause removed: delay / dup / straggle only)
//     * decision fields are bitwise identical (status, rank, iterations and
//       the exit indicator as exact doubles): benign faults move virtual
//       clocks, never payloads;
//     * comm invariants hold, the run is not aborted, and delivered payload
//       byte counts match the clean run exactly.
//     Virtual times are not compared between separate runs: compute spans
//     charge measured CPU time, which is noisy across runs by design.
//
//   flip-faulted distributed (the full plan, when flip_prob > 0)
//     * if at least one corruption was injected, the run reports
//       Status::kCommFault and CommStats::aborted — never a crash;
//     * if the decision streams injected none, the result is bitwise
//       identical to the clean run;
//     * comm invariants hold in both cases (they are abort-aware).

#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "sim/repro.hpp"

namespace lra::sim {

/// The canonical honesty bound shared by the robustness, property and
/// harness tests: a converged result's dense exact error must satisfy
///   ||A - H W||_F <= 1.1 * max(tau * ||A||_F, indicator + 1e-300).
/// The 1.1 absorbs floating-point slack in the indicator recurrences; the
/// 1e-300 keeps the bound meaningful when the indicator underflows to zero.
inline double honest_error_bound(double tau, double anorm_f,
                                 double indicator) {
  const double ind = indicator + 1e-300;
  return 1.1 * (tau * anorm_f > ind ? tau * anorm_f : ind);
}

/// Uniform decision digest of one engine run (either execution mode).
struct SolverDigest {
  Status status = Status::kMaxIterations;
  Index rank = 0;
  Index iterations = 0;
  double indicator = 0.0;    // absolute, at exit
  double anorm_f = 0.0;
  double exact_error = -1.0; // dense ||A - H W||_F; -1 when not computed
  double virtual_seconds = 0.0;  // 0 for the sequential engine
  obs::CommStats comm;           // empty for the sequential engine
};

/// Run the config's solver sequentially. Computes the dense exact error
/// when the run converged.
SolverDigest run_sequential(const CscMatrix& a, const ReproConfig& cfg);

/// Run the config's distributed solver under `plan` (pass a default-
/// constructed plan for a clean run). Never throws on injected faults:
/// detected corruption surfaces as Status::kCommFault in the digest.
SolverDigest run_distributed(const CscMatrix& a, const ReproConfig& cfg,
                             const FaultPlan& plan);

struct OracleReport {
  bool pass = true;
  std::vector<std::string> failures;  // human-readable, empty iff pass

  SolverDigest seq;    // sequential engine
  SolverDigest clean;  // distributed, no faults
  bool ran_benign = false;
  SolverDigest benign;  // distributed, plan minus flips
  bool ran_flip = false;
  SolverDigest flip;    // distributed, full plan
  std::uint64_t flips_injected = 0;  // corruptions injected in the flip run

  void fail(std::string msg) {
    pass = false;
    failures.push_back(std::move(msg));
  }
};

/// Execute the full differential oracle for one config (matrix built from
/// the recipe; fault stages only when cfg.faults enables them).
OracleReport run_differential_oracle(const ReproConfig& cfg);

/// One-line human-readable summary ("PASS method=... rank=...", or the
/// first failure).
std::string summarize(const OracleReport& r);

}  // namespace lra::sim
