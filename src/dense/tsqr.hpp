#pragma once
// Tall-skinny QR (Demmel et al., communication-avoiding QR). The form here
// factors a tall matrix by row blocks on the pool (PanelQR in dense/qr.hpp
// uses it for tall panels); the solvers' allgather-TSQR (core/spmd.hpp)
// runs the same two-stage scheme with the R-reduction done across ranks.

#include "dense/matrix.hpp"

namespace lra {

struct TsqrResult {
  Matrix q;  // m x n, orthonormal columns
  Matrix r;  // n x n, upper triangular
};

/// Factor a = q * r using a two-stage TSQR with row blocks of `block_rows`
/// rows (the last block may be smaller). Requires rows >= cols.
TsqrResult tsqr(const Matrix& a, Index block_rows);

}  // namespace lra
