#pragma once
// BLAS-like dense kernels on column-major Matrix, hand-written (no external
// BLAS dependency). GEMM runs one of two vectorized kernel families
// on support/simd.hpp, selected at runtime by support/kernel_variant.hpp:
//
//   * simd        — packed, register-tiled micro-kernels with hardware FMA
//                   where the build's ISA has it; deterministic, and within
//                   a documented ULP bound of the reference kernels.
//   * simd-strict — the same tiling with two-rounding multiply-adds (and
//                   whole-k scalar dots for A^T*B); bitwise identical to the
//                   reference kernels in tests/reference_kernels.hpp (for
//                   A*B and A*B^T on inputs without exact zeros or
//                   non-finite values: the reference skips terms whose dense
//                   multiplier is 0.0, the strict kernels multiply through).
//
// Both families tile only over output rows/columns and never split a k
// reduction, so each output element accumulates its k terms in the same
// ascending order at any thread count and under any autotuned tile geometry
// (see ARCHITECTURE.md, "The kernel layer").

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
void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b);  // C = A*B^T

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
