#pragma once
// Distributed-memory RandQB_EI on the virtual-time runtime (Section V of the
// paper; the original uses Elemental + MPI). Data layout: A and Q_K are
// 1D row-distributed, B_K is column-distributed; orthonormalization uses the
// allgather-TSQR scheme (local QR, allgather of the k x k R factors,
// redundant small QR, local Q update) — the standard communication-avoiding
// tall-skinny QR for this layout. The SPMD body lives in core/randqb_ei.cpp
// and is the one RandQB_EI: randqb_ei runs it as a single in-process rank.

#include <map>
#include <string>

#include "core/randqb_ei.hpp"
#include "par/simcomm.hpp"

namespace lra {

struct DistRandQbResult {
  RandQbResult result;            // factors assembled on return
  double virtual_seconds = 0.0;   // max over ranks of the final clock
  std::map<std::string, double> kernel_seconds;  // max over ranks
  obs::CommStats comm;                 // per-rank comm counters (always on)
  std::vector<obs::RankTrace> trace;   // per-rank spans (collect_trace only)
};

/// Primary overload: bundled runtime options (cost model, tracing, and an
/// optional deterministic fault plan). A payload corruption injected by the
/// plan and detected by the transport aborts the run and is reported as
/// Status::kCommFault — with virtual times, comm counters and traces
/// collected up to the abort — never as a crash. ErrorNorm::kSpectral needs
/// the whole matrix on one rank: at nranks > 1 it throws
/// std::invalid_argument.
DistRandQbResult randqb_ei_dist(const CscMatrix& a, const RandQbOptions& opts,
                                int nranks, const SimOptions& sim);

/// Legacy fault-free overload.
inline DistRandQbResult randqb_ei_dist(const CscMatrix& a,
                                       const RandQbOptions& opts, int nranks,
                                       CostModel cm = {},
                                       bool collect_trace = false) {
  return randqb_ei_dist(a, opts, nranks, SimOptions{cm, collect_trace, {}});
}

}  // namespace lra
