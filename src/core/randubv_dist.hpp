#pragma once
// Distributed-memory RandUBV — the paper's explicitly stated future work
// ("these experiments motivate the development of an efficient parallel
// implementation of RandUBV", Section VI-B). Layout mirrors the distributed
// RandQB_EI: A and U are 1D row-distributed over m, V is row-distributed
// over n; every orthonormalization is an allgather-TSQR; the block products
// A V and A^T U are local SpMMs followed by an allreduce. The SPMD body lives
// in core/randubv.cpp and is the one RandUBV: randubv runs it as a single
// in-process rank.

#include <map>
#include <string>

#include "core/randubv.hpp"
#include "par/simcomm.hpp"

namespace lra {

struct DistRandUbvResult {
  RandUbvResult result;           // factors assembled on return
  double virtual_seconds = 0.0;   // max over ranks of the final clock
  std::map<std::string, double> kernel_seconds;  // max over ranks
  obs::CommStats comm;                 // per-rank comm counters (always on)
  std::vector<obs::RankTrace> trace;   // per-rank spans (collect_trace only)
};

/// Primary overload: bundled runtime options (cost model, tracing, and an
/// optional deterministic fault plan). A payload corruption injected by the
/// plan and detected by the transport aborts the run and is reported as
/// Status::kCommFault — with virtual times, comm counters and traces
/// collected up to the abort — never as a crash.
DistRandUbvResult randubv_dist(const CscMatrix& a, const RandUbvOptions& opts,
                               int nranks, const SimOptions& sim);

/// Legacy fault-free overload.
inline DistRandUbvResult randubv_dist(const CscMatrix& a,
                                      const RandUbvOptions& opts, int nranks,
                                      CostModel cm = {},
                                      bool collect_trace = false) {
  return randubv_dist(a, opts, nranks, SimOptions{cm, collect_trace, {}});
}

}  // namespace lra
