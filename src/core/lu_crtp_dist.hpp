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

#include <map>
#include <string>

#include "core/lu_crtp.hpp"
#include "par/simcomm.hpp"

namespace lra {

struct DistLuResult {
  LuCrtpResult result;            // factors + permutations, assembled
  double virtual_seconds = 0.0;   // max over ranks of the final clock
  std::map<std::string, double> kernel_seconds;  // max over ranks
  obs::CommStats comm;                 // per-rank comm counters (always on)
  std::vector<obs::RankTrace> trace;   // per-rank spans (collect_trace only)
};

/// Primary overload: bundled runtime options (cost model, tracing, and an
/// optional deterministic fault plan). A payload corruption injected by the
/// plan and detected by the transport aborts the run and is reported as
/// Status::kCommFault — with virtual times, comm counters and traces
/// collected up to the abort — never as a crash. ColamdMode::kEvery needs
/// the whole matrix on one rank: at nranks > 1 it throws
/// std::invalid_argument.
DistLuResult lu_crtp_dist(const CscMatrix& a, const LuCrtpOptions& opts,
                          int nranks, const SimOptions& sim);

/// Legacy fault-free overload.
inline DistLuResult lu_crtp_dist(const CscMatrix& a, const LuCrtpOptions& opts,
                                 int nranks, CostModel cm = {},
                                 bool collect_trace = false) {
  return lu_crtp_dist(a, opts, nranks, SimOptions{cm, collect_trace, {}});
}

}  // namespace lra
