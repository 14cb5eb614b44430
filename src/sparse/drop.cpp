#include "sparse/drop.hpp"

#include <algorithm>
#include <cmath>

namespace lra {

DropResult drop_below(const CscMatrix& a, double mu) {
  DropResult res;
  if (mu <= 0.0) return res;
  for (double v : a.values()) {
    const double av = std::fabs(v);
    if (av < mu && av > 0.0) {
      ++res.dropped;
      res.fro_sq += v * v;
      res.cutoff = std::max(res.cutoff, av);
    }
  }
  // prune() removes |v| <= tol, so the largest dropped magnitude removes
  // exactly the counted entries (strict < mu above, <= cutoff there, and
  // cutoff < mu).
  return res;
}

DropResult drop_budgeted(const CscMatrix& a, double phi,
                         double budget_used_sq) {
  DropResult res;
  const double budget_sq = phi * phi;
  if (budget_used_sq >= budget_sq) return res;

  std::vector<double> cand;
  for (double v : a.values()) {
    const double av = std::fabs(v);
    if (av > 0.0 && av < phi) cand.push_back(av);
  }
  std::sort(cand.begin(), cand.end());

  double acc = budget_used_sq;
  for (double av : cand) {
    if (acc + av * av >= budget_sq) break;
    acc += av * av;
    res.cutoff = av;
  }
  if (res.cutoff == 0.0) return res;
  // Count exactly what prune(cutoff) removes: duplicated magnitudes at the
  // cutoff can be more entries than the loop above accepted.
  for (double v : a.values()) {
    const double av = std::fabs(v);
    if (av > 0.0 && av <= res.cutoff) {
      ++res.dropped;
      res.fro_sq += v * v;
    }
  }
  return res;
}

}  // namespace lra
