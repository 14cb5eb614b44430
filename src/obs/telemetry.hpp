#pragma once
// Unified per-iteration convergence telemetry emitted by every solver
// (sequential and distributed): one sample per iteration carrying the
// accumulated rank, the relative error indicator against the fixed-precision
// target tau, the clock at the step (virtual seconds on simulated ranks,
// wall seconds since the call for the sequential entry points), and — for
// the LU-family
// methods — the Schur-complement fill diagnostics. This is the one
// per-iteration series of every result type: the raw data behind the
// paper's fill and accuracy-vs-cost figures (Figs. 1-3, Table II), surfaced
// uniformly through LowRankApprox and the JSONL run reports.

#include <vector>

namespace lra::obs {

struct IterationSample {
  long long iteration = 0;      // 1-based
  long long rank = 0;           // accumulated rank K after the iteration
  double indicator_rel = 0.0;   // error indicator relative to ||A||_F
  double tau = 0.0;             // fixed-precision target in force
  double time_seconds = 0.0;    // cumulative; virtual (dist) or wall (seq)
  // LU-family Schur-complement diagnostics; negative = not applicable.
  long long schur_nnz = -1;
  double fill_density = -1.0;
  long long factor_nnz = -1;
};

using TelemetrySeries = std::vector<IterationSample>;

}  // namespace lra::obs
