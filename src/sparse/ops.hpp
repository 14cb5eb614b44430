#pragma once
// Sparse-dense kernels: SpMV, SpMM and their transposes — the workhorses of
// RandQB_EI (A*Omega, A^T*Q) and of residual checks in tests.
//
// Threading: every kernel here runs on the global ThreadPool (par/pool.hpp)
// with static slicing over a grid that is a pure function of the input shape,
// so results are bitwise identical at any thread count. Small inputs (below a
// fixed work threshold) run inline with zero pool overhead, and inside
// SimWorld ranks the kernels always degrade to serial loops so the
// virtual-time accounting is unaffected.
//
// Kernels: the SpMM family processes kSpmmNb = 4 output columns per pass
// over A's index/value arrays, vectorized on support/simd.hpp, and fuses
// each multiply-add where the ISA has FMA. Each element keeps the term order
// of the reference kernels in tests/reference_kernels.hpp (within their ULP
// bound), and the kernel tests pin the bits exactly against the scalar
// emulation of these chains (ref::simd_chain_spmm / simd_chain_spmm_t).
//
// Allocation: the `_into` entry points reshape a caller-owned output buffer
// in place (no heap traffic once the buffer has grown to the working-set
// size); the value-returning wrappers remain for call sites that want a fresh
// Matrix. Scratch inside the kernels comes from the per-thread workspace
// arena (support/workspace.hpp), never from per-call vectors.

#include "dense/matrix.hpp"
#include "sparse/csc.hpp"

namespace lra {

/// Sparse matrix-vector product y = A x.
///
/// @param a  CSC matrix; columns need not be sorted.
/// @param x  Input vector of length a.cols(); caller-owned, not aliased by y.
/// @param y  Output vector of length a.rows(); overwritten.
/// @pre  x != y (no aliasing); both non-null for non-empty a.
/// @note Parallel over a fixed column-chunk grid when the matrix is large
///       enough; per-chunk partial vectors are combined serially in chunk
///       order, so the bits never depend on the worker count (for large
///       inputs they differ from the historical serial loop by normal
///       floating-point reassociation, like residual_fro). Small inputs take
///       the seed serial loop bit-for-bit.
void spmv(const CscMatrix& a, const double* x, double* y);

/// Transposed product y = A^T x.
///
/// @param x  Input of length a.rows().
/// @param y  Output of length a.cols(); overwritten.
/// @pre  x != y.
/// @note Parallel over output elements (independent dots accumulated in the
///       seed order) — bitwise identical to the serial loop at any width.
void spmv_t(const CscMatrix& a, const double* x, double* y);

/// C = A * B with dense B.
///
/// @param a  m x p sparse matrix.
/// @param b  p x n dense matrix.
/// @return Freshly allocated m x n dense result.
/// @pre  a.cols() == b.rows().
/// @note Parallel over columns of C on the global pool; deterministic
///       (bitwise identical to the serial loop) at any worker count.
Matrix spmm(const CscMatrix& a, const Matrix& b);

/// C = A * B into a caller-owned buffer: `c` is reshaped to m x n (reusing
/// its allocation when large enough) and overwritten.
/// @pre  `c` aliases neither `a` nor `b`.
void spmm_into(Matrix& c, const CscMatrix& a, const Matrix& b);

/// C = A^T * B with dense B.
///
/// @param a  m x p sparse matrix (used transposed: p x m).
/// @param b  m x n dense matrix.
/// @return Freshly allocated p x n dense result.
/// @pre  a.rows() == b.rows().
/// @note Parallel over columns of C; deterministic at any worker count.
Matrix spmm_t(const CscMatrix& a, const Matrix& b);

/// C = A^T * B into a caller-owned buffer (reshaped to p x n).
/// @pre  `c` aliases neither `a` nor `b`.
void spmm_t_into(Matrix& c, const CscMatrix& a, const Matrix& b);

/// Residual ||A - H W||_F without materializing H W: processed in column
/// blocks so peak extra memory is O(m * block).
///
/// @param h  m x K dense left factor.
/// @param w  K x n dense right factor.
/// @pre  h.rows() == a.rows(), w.cols() == a.cols(), h.cols() == w.rows().
/// @note Parallel reduction over a fixed column-chunk grid: the summation
///       order — and hence the returned bits — is independent of the worker
///       count (but differs from the historical single-accumulator serial
///       sum by normal floating-point reassociation). Per-chunk scratch
///       comes from the worker's arena, not the heap.
double residual_fro(const CscMatrix& a, const Matrix& h, const Matrix& w);

/// A restricted to the given row subset, densified.
///
/// @param rows  Strictly increasing row indices (a view; not retained after
///              the call returns).
/// @return Freshly allocated rows.size() x a.cols() matrix.
/// @pre  Every element of `rows` is in [0, a.rows()); `rows` is sorted
///       ascending without duplicates.
Matrix dense_row_subset(const CscMatrix& a, std::span<const Index> rows);

}  // namespace lra
