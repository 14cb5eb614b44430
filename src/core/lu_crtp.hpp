#pragma once
// Fixed-precision truncated LU with column/row tournament pivoting
// (LU_CRTP, Algorithm 2 of the paper) and its incomplete thresholded
// variant (ILUT_CRTP, Algorithm 3). Both are driven by the same SPMD body
// (core/lu_crtp.cpp), which lu_crtp runs as the single rank of the
// in-process context and lu_crtp_dist on simulated ranks; ILUT_CRTP adds
// the dropping step and perturbation accounting.

#include <vector>

#include "core/termination.hpp"
#include "obs/telemetry.hpp"
#include "sparse/csc.hpp"
#include "sparse/permute.hpp"

namespace lra {

enum class ColamdMode { kOff, kFirst, kEvery };
enum class ThresholdMode { kNone, kIlut, kAggressive };

struct LuCrtpOptions {
  Index block_size = 32;        // k
  double tau = 1e-3;            // fixed-precision tolerance
  Index max_rank = -1;          // stop once K reaches this (-1: min(m, n))
  ColamdMode colamd = ColamdMode::kFirst;
  ThresholdMode threshold = ThresholdMode::kNone;
  /// Estimated iteration count u in the mu heuristic (24); <= 0 means
  /// "derive from max_rank / k" as a coarse default.
  Index estimated_iterations = 0;
  /// Threshold control phi (22); <= 0 selects phi = tau * |R^(1)(1,1)| as in
  /// the paper's experiments.
  double phi = 0.0;
  /// Compute L21 from the panel's orthogonal factors (Q21 Q11^{-1}) instead
  /// of A21 A11^{-1}; better conditioned but introduces extra small entries
  /// (the stability alternative referenced in Sections II-B3 and VI-A).
  bool stable_l = false;
};

struct LuCrtpResult {
  Status status = Status::kMaxIterations;
  Index rank = 0;        // K
  Index iterations = 0;  // i
  double anorm_f = 0.0;
  double indicator = 0.0;      // E_det = ||A^(i+1)||_F at exit
  double r11_first = 0.0;      // |R^(1)(1,1)|, the ||A||_2 proxy (23)

  CscMatrix l;    // m x K, unit diagonal block on top
  CscMatrix u;    // K x n
  Perm row_perm;  // P_r: row_perm[new] = old, so (P_r A P_c)(i,j) =
  Perm col_perm;  // A(row_perm[i], col_perm[j]) ~= (L U)(i, j)

  // ILUT bookkeeping.
  double mu = 0.0;                    // the mu heuristic (24), kept after
                                      // threshold control stops dropping
  double t_norm_sq = 0.0;             // sum of ||T~^(j)||_F^2 (22)
  Index dropped_entries = 0;
  bool threshold_control_hit = false;  // line 10 of Algorithm 3 fired

  /// Per-iteration convergence telemetry incl. the fill-in diagnostics of
  /// Fig. 1 and Table II: density and nnz of the Schur complement A^(i+1),
  /// and the cumulative nnz(L) + nnz(U), after each iteration (virtual time
  /// for lu_crtp_dist; for lu_crtp, wall time since the call, COLAMD
  /// included).
  obs::TelemetrySeries telemetry;
};

/// Run LU_CRTP (or ILUT_CRTP when opts.threshold != kNone) on `a`.
LuCrtpResult lu_crtp(const CscMatrix& a, const LuCrtpOptions& opts);

/// Exact approximation error ||P_r A P_c - L U||_F (dense verification;
/// intended for tests and small matrices).
double lu_crtp_exact_error(const CscMatrix& a, const LuCrtpResult& r);

}  // namespace lra
