#pragma once
// Alpha-beta (latency-bandwidth) communication cost model used to advance
// virtual clocks in the simulated message-passing runtime. Defaults roughly
// match a commodity HPC interconnect (2 us latency, ~1.25 GB/s effective
// per-link bandwidth), i.e. the class of machine (VSC4) used in the paper.
//
// This is the one network model of the runtime: every collective runs a
// binomial-tree schedule (ceil(log2 P) latency stages, the full payload on
// every hop), and each operation is priced by exactly one function below.

#include <cstddef>

namespace lra {

/// One modeled operation: the seconds charged to the virtual clock, and
/// their latency/bandwidth split for the profiler's what-if projections
/// (alpha = 0 / beta = 0). `seconds` is the exact charged double; the split
/// is informational, and alpha_t + beta_t equals it only up to rounding.
struct Cost {
  double seconds = 0.0;
  double alpha_t = 0.0;  // latency share, seconds
  double beta_t = 0.0;   // bandwidth share, seconds
};

struct CostModel {
  double alpha = 2.0e-6;  // per-message latency, seconds
  double beta = 8.0e-10;  // per-byte transfer time, seconds

  /// Point-to-point message of `bytes`: alpha + beta * bytes.
  Cost p2p(std::size_t bytes) const;
  /// Tree-structured bcast/barrier over P ranks moving `bytes` per stage:
  /// ceil(log2 P) sequential message steps.
  Cost tree(int nranks, std::size_t bytes) const;
  /// Allreduce: reduce up + broadcast down, the full payload crossing a link
  /// on each of the 2*ceil(log2 P) stages.
  Cost allreduce(int nranks, std::size_t bytes) const;
  /// Allgather: ceil(log2 P) stages, the full concatenated payload on the
  /// critical path of every stage (pessimistic, like the reference runtime
  /// this model grew from).
  Cost allgather(int nranks, std::size_t total_bytes) const;

  static int ceil_log2(int p);
};

}  // namespace lra
