#pragma once
// Distributed-memory RandQB_EI on the virtual-time runtime (Section V of the
// paper; the original uses Elemental + MPI). Data layout: A and Q_K are
// 1D row-distributed, B_K is column-distributed; orthonormalization uses the
// allgather-TSQR scheme (local QR, allgather of the k x k R factors,
// redundant small QR, local Q update) — the standard communication-avoiding
// tall-skinny QR for this layout. The SPMD body lives in core/randqb_ei.cpp
// and is the one RandQB_EI: randqb_ei runs it as a single in-process rank.

#include "core/randqb_ei.hpp"
#include "par/simcomm.hpp"

namespace lra {

using DistRandQbResult = SimRun<RandQbResult>;

/// Run on `nranks` simulated ranks under `sim` (see SimRun for what a run
/// returns, a detected fault included).
DistRandQbResult randqb_ei_dist(const CscMatrix& a, const RandQbOptions& opts,
                                int nranks, const SimOptions& sim = {});

}  // namespace lra
