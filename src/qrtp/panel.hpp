#pragma once
// Panel kernels for tournament pivoting: select the k "most linearly
// independent" columns from a small candidate set via rank-revealing QRCP on
// a row-compressed dense panel, plus (de)serialization of sparse candidate
// columns for the distributed tournament.

#include <cstddef>
#include <span>
#include <vector>

#include "dense/matrix.hpp"
#include "par/simcomm.hpp"
#include "sparse/csc.hpp"

namespace lra {

/// A set of candidate columns carrying their original (global) indices.
struct CandidateColumns {
  std::vector<Index> global_index;  // one per column of `cols`
  CscMatrix cols;                   // full row dimension, sparse
};

/// One tournament node: select up to k winners among the columns `ids` of
/// `a`. The dense panel for the QRCP is filled straight from those columns
/// over their nonempty rows only, so the cost is O(nnz-rows x (2k)^2) rather
/// than O(m (2k)^2) — this is what makes tournament pivoting viable on
/// sparse panels (cf. SuiteSparseQR in the paper's implementation). Returns
/// the winning ids.
std::vector<Index> select_k(const CscMatrix& a, std::span<const Index> ids,
                            Index k);

/// Dense variant used by the row tournament on Q_k^T (a is w x ncand; the
/// candidates are the columns of a). Returns positions into `global_index`.
std::vector<Index> select_k_dense(const Matrix& a,
                                  std::span<const Index> global_index, Index k);

/// Serialize candidates for a tournament message; layout is
/// [ncols][rows][nnz per col...][rowind...][values...][global ids...].
std::vector<std::byte> pack_candidates(const CandidateColumns& cand);
CandidateColumns unpack_candidates(const std::vector<std::byte>& bytes);

/// Merge two candidate sets (column-wise concatenation).
CandidateColumns merge(const CandidateColumns& a, const CandidateColumns& b);

}  // namespace lra
