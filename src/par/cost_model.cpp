#include "par/cost_model.hpp"

namespace lra {
namespace {

/// `stages` sequential hops of `bytes` each: seconds stages * p2p(bytes),
/// split stages * alpha and (stages * beta) * bytes. Keep this operation
/// order; it fixes the exact doubles the clocks charge and traces record.
Cost staged(const CostModel& cm, double stages, std::size_t bytes) {
  const double b = static_cast<double>(bytes);
  return {stages * (cm.alpha + cm.beta * b), stages * cm.alpha,
          stages * cm.beta * b};
}

}  // namespace

int CostModel::ceil_log2(int p) {
  int l = 0;
  int v = 1;
  while (v < p) {
    v <<= 1;
    ++l;
  }
  return l;
}

Cost CostModel::p2p(std::size_t bytes) const {
  const double b = beta * static_cast<double>(bytes);
  return {alpha + b, alpha, b};
}

Cost CostModel::tree(int nranks, std::size_t bytes) const {
  if (nranks <= 1) return {};
  return staged(*this, static_cast<double>(ceil_log2(nranks)), bytes);
}

Cost CostModel::allreduce(int nranks, std::size_t bytes) const {
  if (nranks <= 1) return {};
  return staged(*this, 2.0 * static_cast<double>(ceil_log2(nranks)), bytes);
}

Cost CostModel::allgather(int nranks, std::size_t total_bytes) const {
  if (nranks <= 1) return {};
  return staged(*this, static_cast<double>(ceil_log2(nranks)), total_bytes);
}

}  // namespace lra
