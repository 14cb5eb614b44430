#pragma once
// Thresholding kernels for ILUT_CRTP: measure which small entries of the
// Schur complement a threshold would remove and the perturbation mass they
// carry (Section III). They only measure; the caller prunes at the returned
// cutoff once the threshold control has accepted the drop.

#include "sparse/csc.hpp"

namespace lra {

struct DropResult {
  Index dropped = 0;        // number of entries to remove
  double fro_sq = 0.0;      // ||T^(i)||_F^2 of the removed entries
  double cutoff = 0.0;      // largest removed magnitude: a.prune(cutoff)
                            // removes exactly these entries
};

/// The entries with 0 < |value| < mu. Returns the perturbation statistics
/// required by the threshold control (22).
DropResult drop_below(const CscMatrix& a, double mu);

/// Aggressive variant (paper, Section VI-A): sort the entries smaller than
/// `phi` in magnitude and drop from the smallest up while the accumulated
/// squared Frobenius mass (including `budget_used_sq` from earlier
/// iterations) stays strictly below phi^2.
DropResult drop_budgeted(const CscMatrix& a, double phi,
                         double budget_used_sq);

}  // namespace lra
