#pragma once
// Householder QR factorization (unpivoted) of a dense matrix, the reflector
// kernels it shares with QRCP (dense/qrcp.hpp), the panel QR shape rule, and
// the orthonormalization helper `orth` used throughout RandQB_EI.

#include <optional>

#include "dense/matrix.hpp"

namespace lra {

/// Householder reflector for x (length n): overwrites x(1:) with v(1:)
/// (v(0) = 1 is implicit) and returns beta such that
/// (I - tau v v^T) x = (beta, 0, ..., 0)^T. tau = 0 when x(1:) is zero.
double make_reflector(Index n, double* x, double& tau);

/// Applies (I - tau v v^T) to A(r0 : r0+len, j0 : j1), where v has `len`
/// entries (v(0) = 1 implicit; v(1:) read from v + 1). Every column keeps its
/// own in-order dot chain — in a vector lane on AVX2, where the columns are
/// the lanes — so the bits equal a column-at-a-time update on every ISA and
/// whatever the sweep width. The one sweep HouseholderQR, QRCP and the left
/// reflectors of bidiagonalize share.
void apply_reflector(const double* v, Index len, double tau, Matrix& a,
                     Index r0, Index j0, Index j1);

/// In-place Householder QR: A = Q R with Q stored as reflectors.
class HouseholderQR {
 public:
  explicit HouseholderQR(Matrix a);

  Index rows() const { return qr_.rows(); }
  Index cols() const { return qr_.cols(); }

  /// Thin orthonormal factor Q (m x min(m,n)).
  Matrix thin_q() const;
  /// Upper-triangular/trapezoidal factor R (min(m,n) x n).
  Matrix r() const;

 private:
  Matrix qr_;                 // reflectors below diagonal, R on/above
  std::vector<double> tau_;   // reflector scaling factors
};

/// QR of a panel by the one shape rule every orthonormalization follows.
/// Tall-skinny panels (>= 2048 rows and >= 8x as many rows as columns) go
/// through the 16-block pool TSQR; every other panel through one-shot
/// Householder. The block grid is a function of the shape only, so Q and R
/// are bitwise identical at any thread count. R is formed on construction
/// and Q on demand, so a caller can hand R to its peers before it pays for
/// the Householder backtransform.
class PanelQR {
 public:
  explicit PanelQR(Matrix a);

  /// Upper-triangular/trapezoidal R (min(m, n) x n).
  const Matrix& r() const { return r_; }
  /// Thin orthonormal Q (m x min(m, n)); call once.
  Matrix take_q();

 private:
  std::optional<HouseholderQR> one_shot_;
  Matrix q_;  // TSQR panels form Q together with R
  Matrix r_;
};

/// Orthonormal basis of range(A) via PanelQR: returns thin Q with exactly
/// min(m, n) columns (matches `orth` in Algorithm 1 of the paper; rank
/// deficiency yields an orthonormal completion, which is harmless for the QB
/// iteration because the corresponding B rows carry no weight).
Matrix orth(const Matrix& a);

}  // namespace lra
