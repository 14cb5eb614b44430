#include "dense/qr.hpp"

#include <cmath>

#include "dense/blas.hpp"
#include "dense/tsqr.hpp"
#include "support/simd.hpp"

namespace lra {

double make_reflector(Index n, double* x, double& tau) {
  if (n <= 1) {
    tau = 0.0;
    return n == 1 ? x[0] : 0.0;
  }
  const double alpha = x[0];
  const double xnorm = nrm2(n - 1, x + 1);
  if (xnorm == 0.0) {
    tau = 0.0;
    return alpha;
  }
  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  for (Index i = 1; i < n; ++i) x[i] *= inv;
  return beta;
}

namespace {

// c[0] -= s and c[i] -= s * v[i] for i in [1, len): element-wise, so the
// vector lanes along rows give the bits of the scalar loop.
void rank1_update(const double* v, Index len, double s, double* c) {
  using simd::VecD;
  c[0] -= s;
  const VecD sv = VecD::broadcast(s);
  Index i = 1;
  for (; i + simd::kWidth <= len; i += simd::kWidth)
    (VecD::load(c + i) - sv * VecD::load(v + i)).store(c + i);
  for (; i < len; ++i) c[i] -= s * v[i];
}

#if defined(LRA_SIMD_ISA_AVX2)
// (p[0], p[1], q[0], q[1]).
inline __m256d load_pair(const double* p, const double* q) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(p)),
                              _mm_loadu_pd(q), 1);
}

// The dots s_j = c_j[0] + v[1] c_j[1] + ... + v[len-1] c_j[len-1] of 4 * G
// columns at once, the lanes of accumulator g holding columns 4g .. 4g+3.
// Each block of four rows forms its products column-wise, transposes them
// 4 x 4 in registers and adds them row by row in ascending order, so every
// lane runs its column's scalar chain: same products, same adds, same order
// (multiply and add stay separate roundings). The tail rows finish in scalar
// code, in order.
template <int G>
void column_dots(const double* v, Index len, double* const* c, double* s) {
  __m256d acc[G];
  LRA_UNROLL
  for (int g = 0; g < G; ++g)
    acc[g] = _mm256_setr_pd(c[4 * g][0], c[4 * g + 1][0], c[4 * g + 2][0],
                            c[4 * g + 3][0]);
  Index i = 1;
  for (; i + 4 <= len; i += 4) {
    const __m256d v01 = load_pair(v + i, v + i);
    const __m256d v23 = load_pair(v + i + 2, v + i + 2);
    LRA_UNROLL
    for (int g = 0; g < G; ++g) {
      double* const* cg = c + 4 * g;
      // Rows i, i+1 (then i+2, i+3) of columns 0, 2 and of columns 1, 3.
      const __m256d p02 = _mm256_mul_pd(load_pair(cg[0] + i, cg[2] + i), v01);
      const __m256d p13 = _mm256_mul_pd(load_pair(cg[1] + i, cg[3] + i), v01);
      const __m256d q02 =
          _mm256_mul_pd(load_pair(cg[0] + i + 2, cg[2] + i + 2), v23);
      const __m256d q13 =
          _mm256_mul_pd(load_pair(cg[1] + i + 2, cg[3] + i + 2), v23);
      acc[g] = _mm256_add_pd(acc[g], _mm256_unpacklo_pd(p02, p13));  // row i
      acc[g] = _mm256_add_pd(acc[g], _mm256_unpackhi_pd(p02, p13));
      acc[g] = _mm256_add_pd(acc[g], _mm256_unpacklo_pd(q02, q13));
      acc[g] = _mm256_add_pd(acc[g], _mm256_unpackhi_pd(q02, q13));
    }
  }
  LRA_UNROLL
  for (int g = 0; g < G; ++g) _mm256_storeu_pd(s + 4 * g, acc[g]);
  for (int t = 0; t < 4 * G; ++t)
    for (Index r = i; r < len; ++r) s[t] += v[r] * c[t][r];
}

// Applies the reflector to the 4 * G columns starting at j.
template <int G>
void reflect_columns(const double* v, Index len, double tau, Matrix& a,
                     Index r0, Index j) {
  double* c[4 * G];
  double s[4 * G];
  for (int t = 0; t < 4 * G; ++t) c[t] = a.col(j + t) + r0;
  column_dots<G>(v, len, c, s);
  for (int t = 0; t < 4 * G; ++t) rank1_update(v, len, s[t] * tau, c[t]);
}
#endif

}  // namespace

void apply_reflector(const double* v, Index len, double tau, Matrix& a,
                     Index r0, Index j0, Index j1) {
  Index j = j0;
#if defined(LRA_SIMD_ISA_AVX2)
  // Sixteen, then eight, then four columns per sweep with the lanes across
  // columns: up to four independent vector chains hide the add latency that
  // bounds a single chain.
  for (; j + 16 <= j1; j += 16) reflect_columns<4>(v, len, tau, a, r0, j);
  if (j + 8 <= j1) {
    reflect_columns<2>(v, len, tau, a, r0, j);
    j += 8;
  }
  if (j + 4 <= j1) {
    reflect_columns<1>(v, len, tau, a, r0, j);
    j += 4;
  }
#else
  // Four columns per sweep over v: the four independent dot chains hide the
  // add latency that a single chain is bound by.
  for (; j + 4 <= j1; j += 4) {
    double* c0 = a.col(j) + r0;
    double* c1 = a.col(j + 1) + r0;
    double* c2 = a.col(j + 2) + r0;
    double* c3 = a.col(j + 3) + r0;
    double s0 = c0[0], s1 = c1[0], s2 = c2[0], s3 = c3[0];
    for (Index i = 1; i < len; ++i) {
      const double vi = v[i];
      s0 += vi * c0[i];
      s1 += vi * c1[i];
      s2 += vi * c2[i];
      s3 += vi * c3[i];
    }
    rank1_update(v, len, s0 * tau, c0);
    rank1_update(v, len, s1 * tau, c1);
    rank1_update(v, len, s2 * tau, c2);
    rank1_update(v, len, s3 * tau, c3);
  }
#endif
  for (; j < j1; ++j) {
    double* cj = a.col(j) + r0;
    double s = cj[0];
    for (Index i = 1; i < len; ++i) s += v[i] * cj[i];
    rank1_update(v, len, s * tau, cj);
  }
}

HouseholderQR::HouseholderQR(Matrix a) : qr_(std::move(a)) {
  const Index m = qr_.rows(), n = qr_.cols();
  const Index kmax = std::min(m, n);
  tau_.assign(static_cast<std::size_t>(kmax), 0.0);
  for (Index k = 0; k < kmax; ++k) {
    double* ck = qr_.col(k) + k;
    const double beta = make_reflector(m - k, ck, tau_[k]);
    if (tau_[k] != 0.0) apply_reflector(ck, m - k, tau_[k], qr_, k, k + 1, n);
    qr_(k, k) = beta;
  }
}

Matrix HouseholderQR::thin_q() const {
  const Index m = qr_.rows();
  const Index k = std::min(m, qr_.cols());
  Matrix q(m, k);
  for (Index j = 0; j < k; ++j) q(j, j) = 1.0;
  // Accumulate reflectors back to front.
  for (Index p = k - 1; p >= 0; --p) {
    if (tau_[p] != 0.0)
      apply_reflector(qr_.col(p) + p, m - p, tau_[p], q, p, p, k);
  }
  return q;
}

Matrix HouseholderQR::r() const {
  const Index k = std::min(qr_.rows(), qr_.cols());
  Matrix r(k, qr_.cols());
  for (Index j = 0; j < qr_.cols(); ++j)
    for (Index i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = qr_(i, j);
  return r;
}

PanelQR::PanelQR(Matrix a) {
  // Tall-skinny panels (the randomized solvers' hot path) go through TSQR so
  // the stage-1 block factorizations run on the thread pool. Short or
  // near-square panels keep the one-shot Householder path (no parallelism to
  // win there, and other callers rely on its exact bits for small panels).
  constexpr Index kTsqrBlocks = 16;
  if (a.cols() > 0 && a.rows() >= 8 * a.cols() && a.rows() >= 2048) {
    const Index block_rows =
        std::max(a.cols(), (a.rows() + kTsqrBlocks - 1) / kTsqrBlocks);
    TsqrResult f = tsqr(a, block_rows);
    q_ = std::move(f.q);
    r_ = std::move(f.r);
  } else {
    one_shot_.emplace(std::move(a));
    r_ = one_shot_->r();
  }
}

Matrix PanelQR::take_q() {
  return one_shot_ ? one_shot_->thin_q() : std::move(q_);
}

Matrix orth(const Matrix& a) {
  if (a.empty()) return Matrix(a.rows(), 0);
  return PanelQR(a).take_q();
}

}  // namespace lra
