#pragma once
// Sparse x sparse products and sums (Gustavson's algorithm, column-wise for
// CSC). The Schur-complement update of LU_CRTP is built from these.
//
// spgemm and schur_update share one assembly: each pool slice computes a run
// of output columns with its own sparse accumulator and appends them to one
// row and one value buffer (in the Schur update started at A's counts for
// those columns, which S's columns hold up to cancellation, and grown from
// there); the column counts become the column pointers and the slices are
// copied into place. A column gathers in row order by sorting its own row
// list, or, when it holds more than m / 8 rows, by scanning the rows. Every
// entry keeps the serial loop's accumulation order, so the bits do not
// depend on the pool width or on which path a column takes.

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
/// scattered first, then -L(:, k) U(k, j) for U's nonzeros in row order,
/// each product rounded before it is added. Unlike spgemm, it stores no
/// exact cancellation: only entries with |value| > 0 are kept, so exact
/// zeros and NaN are dropped, as a prune(0.0) of the accumulated result
/// would drop them. That lets a column whose bound nnz A(:, j) + sum
/// nnz L(:, k) over U(:, j) exceeds m / 8 accumulate in a dense array
/// without marks: the rows L does not reach only ever receive exact zeros.
/// An L column with more than m / 4 nonzeros enters such a column by a dense
/// axpy when its U entry is finite.
CscMatrix schur_update(const CscMatrix& a, const CscMatrix& l,
                       const CscMatrix& u);

}  // namespace lra
