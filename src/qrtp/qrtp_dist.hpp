#pragma once
// Distributed QR_TP (Section V of the paper): a binary reduction tree across
// ranks. Stage 1 (local): each rank reduces its own columns to k winners
// without communication. Stage 2 (global): log2(P) rounds in which paired
// ranks play off their k winners. The final winners (indices and column
// data) are broadcast to every rank.

#include <string>

#include "par/simcomm.hpp"
#include "qrtp/panel.hpp"

namespace lra {

/// Column tournament. `local` holds this rank's candidate columns (full row
/// dimension, global column ids). Returns the replicated winner set
/// (<= k columns). `kernel` labels the compute time for the Figs. 5-6
/// breakdown ("col_qrtp" / "row_qrtp").
CandidateColumns qr_tp_dist(RankCtx& ctx, const CandidateColumns& local,
                            Index k, const std::string& kernel);

/// The same tournament over this rank's candidates given as the columns of
/// `cols` with global ids `global_index` — no copy of the candidate matrix.
CandidateColumns qr_tp_dist(RankCtx& ctx, const CscMatrix& cols,
                            std::span<const Index> global_index, Index k,
                            const std::string& kernel);

/// Row tournament on a row-distributed dense Q (m_loc x k slice per rank).
/// `global_rows[i]` is the global id of local row i. Returns the replicated
/// <= k winning global row ids.
std::vector<Index> qr_tp_rows_dist(RankCtx& ctx, const Matrix& q_local,
                                   std::span<const Index> global_rows, Index k,
                                   const std::string& kernel);

}  // namespace lra
