#pragma once
// Householder QR factorization (unpivoted) of a dense matrix, the panel QR
// shape rule, and the orthonormalization helper `orth` used throughout
// RandQB_EI.

#include <optional>

#include "dense/matrix.hpp"

namespace lra {

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

  /// b := Q^T b (applies all reflectors; b has m rows).
  void apply_qt(Matrix& b) const;
  /// b := Q b.
  void apply_q(Matrix& b) const;

  /// Least-squares solve min ||A x - b||_2 (requires m >= n, full rank).
  Matrix solve(const Matrix& b) const;

  const Matrix& packed() const { return qr_; }

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
