#pragma once
// BLAS-like dense kernels on column-major Matrix, hand-written (no external
// BLAS dependency). GEMM runs one vectorized kernel family on
// support/simd.hpp: packed, register-tiled micro-kernels whose multiply-adds
// are fused where the build's ISA has FMA. Its results are deterministic,
// within a documented ULP bound of the reference kernels in
// tests/reference_kernels.hpp, and bitwise equal to the scalar emulation of
// its chains there (ref::simd_chain_gemm).
//
// The kernels tile only over output rows/columns and never split an
// element's k chain, so each output element accumulates its k terms in the
// same order at any thread count and under any valid tile geometry (see
// ARCHITECTURE.md, "The kernel layer").

#include "dense/matrix.hpp"

namespace lra {

enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C. Shapes must conform; C must already
/// have the result shape.
void gemm(Matrix& c, const Matrix& a, const Matrix& b, double alpha = 1.0,
          double beta = 0.0, Trans ta = Trans::kNo, Trans tb = Trans::kNo);

/// Convenience wrappers returning a fresh matrix.
Matrix matmul(const Matrix& a, const Matrix& b);      // A * B
Matrix matmul_tn(const Matrix& a, const Matrix& b);   // A^T * B
Matrix matmul_nt(const Matrix& a, const Matrix& b);   // A * B^T

/// In-place product wrappers: reshape `c` to the result shape (reusing its
/// allocation when it is already large enough) and overwrite it with the
/// product. The solver hot loops call these with loop-carried buffers so
/// steady-state iterations do not touch the heap.
void matmul_into(Matrix& c, const Matrix& a, const Matrix& b);     // C = A*B
void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b);  // C = A^T*B

/// y = alpha * op(A) * x + beta * y (x, y are n x 1 / m x 1 matrices stored
/// as raw vectors).
void gemv(double* y, const Matrix& a, const double* x, double alpha = 1.0,
          double beta = 0.0, Trans ta = Trans::kNo);

/// axpy on raw ranges: y += alpha * x, each entry y[i] + alpha * x[i] with
/// the multiply and the add rounded separately (the scalar loop's bits).
void axpy(Index n, double alpha, const double* x, double* y) noexcept;

/// Euclidean norm / dot product of raw ranges.
double nrm2(Index n, const double* x) noexcept;
double dot(Index n, const double* x, const double* y) noexcept;

}  // namespace lra
