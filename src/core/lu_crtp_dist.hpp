#pragma once
// Distributed-memory LU_CRTP / ILUT_CRTP on the virtual-time runtime
// (Section V of the paper). Layout: A^(i) and U_K are distributed by columns
// (cyclic), L_K by rows. Column QR_TP runs as a two-stage reduction tree;
// the k selected columns are QR-factored on one process and the orthogonal
// factor is broadcast; the row tournament runs on row slices of Q; the
// A21 A11^{-1} solve is scattered over ranks and allgathered; the Schur
// update is embarrassingly parallel over local columns. The SPMD body lives
// in core/lu_crtp.cpp and is the one LU_CRTP: lu_crtp runs it as a single
// in-process rank.

#include "core/lu_crtp.hpp"
#include "par/simcomm.hpp"

namespace lra {

using DistLuResult = SimRun<LuCrtpResult>;

/// Run on `nranks` simulated ranks under `sim` (see SimRun for what a run
/// returns, a detected fault included). ColamdMode::kEvery needs the whole
/// matrix on one rank: at nranks > 1 it throws std::invalid_argument.
DistLuResult lu_crtp_dist(const CscMatrix& a, const LuCrtpOptions& opts,
                          int nranks, const SimOptions& sim = {});

}  // namespace lra
