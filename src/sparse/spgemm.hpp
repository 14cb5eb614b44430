#pragma once
// Sparse x sparse products and sums (Gustavson's algorithm, column-wise for
// CSC). The Schur-complement update of LU_CRTP is built from these.

#include "sparse/csc.hpp"

namespace lra {

/// C = A * B (both sparse). Entries that cancel to exactly zero are stored
/// (they are structural fill-in positions).
CscMatrix spgemm(const CscMatrix& a, const CscMatrix& b);

/// C = alpha * A + beta * B (shapes must match).
CscMatrix spadd(const CscMatrix& a, const CscMatrix& b, double alpha = 1.0,
                double beta = 1.0);

/// C = A - L * U where L (m x k) and U (k x n) are sparse — the fused
/// Schur-complement kernel. One accumulation pass per column: A(:, j) is
/// scattered first, then -L(:, k) U(k, j) for U's nonzeros in row order.
/// Unlike spgemm, it stores no exact cancellation: only entries with
/// |value| > 0 are kept, so exact zeros and NaN are dropped, as a
/// prune(0.0) of the accumulated result would drop them.
CscMatrix schur_update(const CscMatrix& a, const CscMatrix& l,
                       const CscMatrix& u);

}  // namespace lra
