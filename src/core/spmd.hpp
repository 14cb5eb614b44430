#pragma once
// What the methods' SPMD bodies share. Each method (RandQB_EI, RandUBV,
// LU_CRTP/ILUT_CRTP) is written once, as a body run on a RankCtx: the
// sequential entry point runs it as the single rank of the in-process
// context, the `_dist` entry point on the ranks of a SimWorld (see
// par/simcomm.hpp). This header holds the input prologue both entry points
// run first, the 1D slices of the row and column layouts, the allgather-TSQR,
// the replication of a distributed block, and the SimWorld run. Internal to
// src/core.

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/termination.hpp"
#include "par/simcomm.hpp"
#include "sparse/csc.hpp"

namespace lra::spmd {

/// The input check every entry point runs before any work. Records ||A||_F
/// in `res` and returns true when there is something to iterate on. A
/// non-finite norm stops with Status::kInvalidInput (the indicator is the
/// non-finite norm itself); a zero matrix is converged at rank 0. Either way
/// the run has no iterations.
template <typename Result>
bool admit(const CscMatrix& a, Result& res) {
  res.anorm_f = a.frobenius_norm();
  res.indicator = res.anorm_f;
  if (!std::isfinite(res.anorm_f)) {
    res.status = Status::kInvalidInput;
    return false;
  }
  if (res.anorm_f == 0.0) {
    res.status = Status::kConverged;
    return false;
  }
  return true;
}

/// Contiguous 1D partition of `n` items over `p` ranks; rank r's share.
struct Slice {
  Index begin, end;
  Index size() const { return end - begin; }
};
Slice slice_of(Index n, int p, int r);

/// Rows `rows` of `a`: `a` itself when the slice holds every row, else a
/// copy kept in `storage`.
const CscMatrix& row_block(const CscMatrix& a, Slice rows, CscMatrix& storage);

/// Elementwise sum of `m` over all ranks, in place.
void allreduce_inplace(RankCtx& ctx, Matrix& m);

/// Allgather-TSQR of the row-distributed tall matrix whose rows on this rank
/// are `y_loc` (kk columns): a rank-local PanelQR, an allgather of the R
/// factors, a redundant QR of the stacked R's, and Q_loc = Q1_loc * Q2_block.
/// On one rank the stacked R is already triangular (every tau = 0, Q2 = I
/// exactly), so the in-process context returns the rank-local factorization
/// as it is: no allgather, no second QR and no Q1 * Q2 product. A simulated
/// single rank keeps the reduction, so its virtual time models the same
/// algorithm as P > 1; the bits are the same either way.
struct TsqrOut {
  Matrix q_loc;  // this rank's rows of Q
  Matrix r;      // kk x kk upper triangular, replicated
};
TsqrOut tsqr(RankCtx& ctx, Matrix y_loc, Index kk, const std::string& kernel);

/// Replicate a row-distributed block (slice_of over `total_rows`, rank
/// order) on every rank, in the "replicate" phase. Split into post and wait
/// halves so callers can slot independent work into the transfer.
CollRequest ireplicate(RankCtx& ctx, Matrix loc);
Matrix wait_replicate(RankCtx& ctx, CollRequest& req, Index total_rows,
                      Index cols);
Matrix replicate(RankCtx& ctx, Matrix loc, Index total_rows);

/// The final factor gathers, in the caller's phase ("assemble"): a
/// row-distributed block, and a column-distributed one (slice_of over
/// `total_cols`, rank order), exchanged at no modeled cost. The paper's
/// runtimes exclude them, and LU_CRTP's gather is uncharged the same way.
Matrix gather_rows(RankCtx& ctx, Matrix loc, Index total_rows);
Matrix gather_cols(RankCtx& ctx, Matrix loc, Index total_cols);

/// Run `body(ctx)` on `nranks` simulated ranks and fill the runtime fields
/// of `out`; rank 0 writes `out.result`, whose anorm_f admit() has set. A
/// payload corruption detected by the transport, or rejected by ByteReader's
/// bounds checks (reachable only with a fault plan installed), ends the run
/// as Status::kCommFault with the virtual times, comm counters and traces
/// collected up to the abort — never as a crash.
template <typename Result, typename Body>
void run_world(SimRun<Result>& out, int nranks, const SimOptions& sim,
               Body&& body) {
  SimWorld world(nranks, sim);
  try {
    world.run(body);
  } catch (const sim::CommFaultError&) {
    out.result.status = Status::kCommFault;
  } catch (const std::out_of_range&) {
    if (!world.fault_plan()) throw;
    out.result.status = Status::kCommFault;
  }
  out.virtual_seconds = world.elapsed_virtual();
  out.comm = world.comm_stats();
  out.trace = world.take_trace();
}

/// The `_dist` entry points' check of options that need the whole matrix on
/// one rank.
inline void require_one_rank(bool needed, int nranks, const char* what) {
  if (needed && nranks > 1)
    throw std::invalid_argument(std::string(what) +
                                " needs the whole matrix on one rank; it is "
                                "not available at nranks = " +
                                std::to_string(nranks));
}

}  // namespace lra::spmd
