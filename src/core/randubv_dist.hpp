#pragma once
// Distributed-memory RandUBV — the paper's explicitly stated future work
// ("these experiments motivate the development of an efficient parallel
// implementation of RandUBV", Section VI-B). Layout mirrors the distributed
// RandQB_EI: A and U are 1D row-distributed over m, V is row-distributed
// over n; every orthonormalization is an allgather-TSQR; the block products
// A V and A^T U are local SpMMs followed by an allreduce. The SPMD body lives
// in core/randubv.cpp and is the one RandUBV: randubv runs it as a single
// in-process rank.

#include "core/randubv.hpp"
#include "par/simcomm.hpp"

namespace lra {

using DistRandUbvResult = SimRun<RandUbvResult>;

/// Run on `nranks` simulated ranks under `sim` (see SimRun for what a run
/// returns, a detected fault included).
DistRandUbvResult randubv_dist(const CscMatrix& a, const RandUbvOptions& opts,
                               int nranks, const SimOptions& sim = {});

}  // namespace lra
