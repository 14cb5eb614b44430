#include "dense/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "par/pool.hpp"
#include "support/autotune.hpp"
#include "support/simd.hpp"
#include "support/workspace.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define LRA_RESTRICT __restrict
#else
#define LRA_RESTRICT
#endif

namespace lra {
namespace {

// Below this many multiply-adds the fork-join overhead beats the speedup.
constexpr Index kForkWork = Index{1} << 16;

// Grain for a pool split of `range` indices of an m x k x n product: run the
// whole range inline below kForkWork. Elements of C are disjoint outputs and
// each accumulates its k terms in a fixed order in every kernel below, so
// splitting C's rows or columns across threads is bitwise identical to the
// serial execution at any thread count.
Index gemm_grain(Index m, Index k, Index n, Index range) {
  return m * k * n < kForkWork ? range + 1 : 1;
}

// Runs block(ilo, ihi, jlo, jhi) on the pool over the parts of C (m x n) of
// an m x k x n product. With `rows` and at least one `strip`-row strip per
// thread, the parts are contiguous runs of strips (ilo a multiple of
// `strip`); otherwise they are runs of columns. The choice reads only the
// shape and the thread count.
template <typename Block>
void split_c(Index m, Index k, Index n, Index strip, bool rows,
             const Block& block) {
  ThreadPool& pool = ThreadPool::global();
  const Index strips = (m + strip - 1) / strip;
  if (rows && strips >= pool.num_threads()) {
    pool.parallel_ranges(Index{0}, strips, "gemm",
                         gemm_grain(m, k, n, strips),
                         [&](Index slo, Index shi, int /*slice*/) {
                           block(slo * strip, std::min(shi * strip, m), 0, n);
                         });
  } else {
    pool.parallel_ranges(Index{0}, n, "gemm", gemm_grain(m, k, n, n),
                         [&](Index jlo, Index jhi, int /*slice*/) {
                           block(0, m, jlo, jhi);
                         });
  }
}

// C(mxn) += A^T(k x m) * B^T(n x k). Not on any hot path: a plain loop.
void gemm_tt_naive(Matrix& c, const Matrix& a, const Matrix& b, double alpha) {
  const Index m = a.cols(), n = b.rows(), k = a.rows();
  ThreadPool::global().parallel_for(
      Index{0}, n, "gemm",
      [&](Index j) {
        double* cj = c.col(j);
        for (Index p = 0; p < k; ++p) {
          const double w = alpha * b(j, p);
          if (w == 0.0) continue;
          for (Index i = 0; i < m; ++i) cj[i] += w * a(p, i);
        }
      },
      gemm_grain(m, k, n, n));
}

// ---------------------------------------------------------------------------
// SIMD (vectorized) kernels on support/simd.hpp, with the compiled tile
// geometry of support/autotune.hpp. Each multiply-add is simd::fmadd: a
// single-rounding fused op where the ISA has FMA, the two-rounding chain
// elsewhere. NOT bitwise comparable to the reference kernels
// (tests/reference_kernels.hpp): gated by the ULP bound in bench_kernels and
// test_kernels_simd, and pinned exactly by the scalar chain emulation there
// (ref::simd_chain_gemm).
//
// Determinism across geometry and threads: the micro-tile loads its C block,
// accumulates one KC slab in ascending-p order with one multiply-add per
// term, and stores back — load/store round-trips are exact and k is never
// split, so each element's chain is the same for every valid (mc, kc, mv,
// nr), every thread count, and every full-tile/edge-tile assignment. A
// different tile could therefore change speed, never results.
// ---------------------------------------------------------------------------

// The compiled tile in this TU's SIMD width: kMc x kKc packed A panels of
// kMr-row strips, and a kMr x kNr register micro-tile.
constexpr KernelConfig kTile = kernel_config();
constexpr Index kMc = kTile.mc;
constexpr Index kKc = kTile.kc;
constexpr Index kMr = Index{kTile.mv} * simd::kWidth;
constexpr Index kNr = kTile.nr;
static_assert(kTile.mv >= 1 && kTile.nr >= 1 && kKc >= 1,
              "empty GEMM micro-tile");
static_assert(kMc % kMr == 0,
              "mc must be a multiple of the micro-tile strip mv * width");
// The micro-kernel holds mv * nr vector accumulators; 16 is the x86-64
// register file, beyond which every extra accumulator spills.
static_assert(kTile.mv * kTile.nr <= 16,
              "the micro-tile's mv * nr accumulators exceed 16 registers");

Index round_up(Index x, Index to) { return (x + to - 1) / to * to; }

// (MV*width x NR) register tile over one packed A strip and one packed B
// micro-panel, on the C block at c (column stride ldc). The B values arrive
// already multiplied by alpha, so each term is one broadcast from memory and
// one multiply-add, fmadd(a, alpha * b, c): the B term of every chain is the
// rounded alpha * b wherever it is formed.
template <int MV, int NR>
void micro_simd(Index kc, const double* LRA_RESTRICT ap,
                const double* LRA_RESTRICT bp, double* c, Index ldc) {
  using simd::VecD;
  constexpr int kW = simd::kWidth;
  constexpr Index kStride = MV * kW;
  VecD acc[NR][MV];
  LRA_UNROLL
  for (int j = 0; j < NR; ++j)
    LRA_UNROLL
    for (int v = 0; v < MV; ++v) acc[j][v] = VecD::load(c + j * ldc + v * kW);
  for (Index p = 0; p < kc; ++p) {
    const double* LRA_RESTRICT as = ap + p * kStride;
    const double* LRA_RESTRICT bs = bp + p * NR;
    VecD av[MV];
    LRA_UNROLL
    for (int v = 0; v < MV; ++v) av[v] = VecD::load(as + v * kW);
    LRA_UNROLL
    for (int j = 0; j < NR; ++j) {
      const VecD w = VecD::broadcast(bs[j]);
      LRA_UNROLL
      for (int v = 0; v < MV; ++v)
        acc[j][v] = simd::fmadd(av[v], w, acc[j][v]);
    }
  }
  LRA_UNROLL
  for (int j = 0; j < NR; ++j)
    LRA_UNROLL
    for (int v = 0; v < MV; ++v) acc[j][v].store(c + j * ldc + v * kW);
}

// Edge tile (mr < kMr rows or nr < kNr columns): the same vector
// micro-kernel on a zero-padded copy of the C tile. The packed A strip and B
// micro-panel are zero-padded too, so every element inside mr x nr runs the
// full tile's chain; the padding lanes are computed and dropped.
void micro_edge(Index kc, Index mr, Index nr, const double* LRA_RESTRICT ap,
                const double* LRA_RESTRICT bp, double* c, Index ldc) {
  alignas(64) double tile[kNr * kMr] = {};
  for (Index j = 0; j < nr; ++j)
    for (Index r = 0; r < mr; ++r) tile[j * kMr + r] = c[j * ldc + r];
  micro_simd<kTile.mv, kTile.nr>(kc, ap, bp, tile, kMr);
  for (Index j = 0; j < nr; ++j)
    for (Index r = 0; r < mr; ++r) c[j * ldc + r] = tile[j * kMr + r];
}

// B-column panel width: columns jb0..jb0+kGemmJb of op(B)'s current k-slab
// are packed once and reused across every A panel.
constexpr Index kGemmJb = 256;

// Pack A(i0:i1, k0:k1) strip-major: strips of kMr rows, rows past i1 padded
// with zeros so the micro-kernels can always read full strips.
void pack_a_panel(double* LRA_RESTRICT dst, const Matrix& a, Index i0,
                  Index i1, Index k0, Index k1) {
  for (Index is = i0; is < i1; is += kMr) {
    const Index mr = std::min(kMr, i1 - is);
    for (Index p = k0; p < k1; ++p) {
      const double* ap = a.col(p) + is;
      for (Index r = 0; r < mr; ++r) dst[r] = ap[r];
      for (Index r = mr; r < kMr; ++r) dst[r] = 0.0;
      dst += kMr;
    }
  }
}

// Pack alpha * op(B)(k0:k1, j0:j1) into kNr-column micro-panels, p-major
// within each: panel q holds columns j0 + q*kNr onward, entry (p, jj) at
// dst[q*kc*kNr + p*kNr + jj], columns past j1 zero. op(B)(p, j) is B(p, j)
// for nn, a run of column j; for nt (kBT) it is B(j, p), so each depth reads
// nr contiguous values of B's column p.
template <bool kBT>
void pack_b_panel(double* LRA_RESTRICT dst, const Matrix& b, Index j0,
                  Index j1, Index k0, Index k1, double alpha) {
  for (Index j = j0; j < j1; j += kNr) {
    const Index nr = std::min(kNr, j1 - j);
    for (Index p = k0; p < k1; ++p) {
      for (Index jj = 0; jj < nr; ++jj)
        dst[jj] = alpha * (kBT ? b(j + jj, p) : b(p, j + jj));
      for (Index jj = nr; jj < kNr; ++jj) dst[jj] = 0.0;
      dst += kNr;
    }
  }
}

// Shared simd nn / nt driver, tiled over output rows/columns with the
// compiled geometry; the transposes differ only in how B is packed. Packing
// does not touch the accumulation chain, so the determinism argument above
// covers both.
//
// The work is split over threads by output columns, except for narrow
// products (n <= kGemmJb, one B panel: the randomized solvers' m x K times
// K x k blocks) with at least one mr-strip of rows per thread. Those split
// over contiguous runs of mr-strips instead, so each thread packs only its
// own rows of A rather than all of it. Neither split reorders any element's
// k chain.
template <bool kBT>
void gemm_nn_nt_simd(Matrix& c, const Matrix& a, const Matrix& b,
                     double alpha) {
  const Index m = a.rows(), k = a.cols();
  const Index n = kBT ? b.rows() : b.cols();
  const Index ldc = c.rows();
  // C(ilo:ihi, jlo:jhi); ilo is a multiple of kMr.
  const auto block = [&](Index ilo, Index ihi, Index jlo, Index jhi) {
    // Pack buffers sized to this block's product, capped at one tile.
    const Index kcap = std::min(kKc, k);
    Workspace::Scope scope;
    double* apack = scope.doubles(static_cast<std::size_t>(
        round_up(std::min(kMc, ihi - ilo), kMr) * kcap));
    double* bpack = scope.doubles(static_cast<std::size_t>(
        round_up(std::min(kGemmJb, jhi - jlo), kNr) * kcap));
    for (Index k0 = 0; k0 < k; k0 += kKc) {
      const Index k1 = std::min(k0 + kKc, k);
      const Index kc = k1 - k0;
      for (Index jb0 = jlo; jb0 < jhi; jb0 += kGemmJb) {
        const Index jb1 = std::min(jb0 + kGemmJb, jhi);
        pack_b_panel<kBT>(bpack, b, jb0, jb1, k0, k1, alpha);
        for (Index i0 = ilo; i0 < ihi; i0 += kMc) {
          const Index i1 = std::min(i0 + kMc, ihi);
          pack_a_panel(apack, a, i0, i1, k0, k1);
          for (Index j = jb0; j < jb1; j += kNr) {
            const Index nr = std::min(kNr, jb1 - j);
            const double* bp = bpack + (j - jb0) * kc;
            const double* ap = apack;
            for (Index is = i0; is < i1; is += kMr, ap += kc * kMr) {
              const Index mr = std::min(kMr, i1 - is);
              double* cp = c.col(j) + is;
              if (mr == kMr && nr == kNr) {
                micro_simd<kTile.mv, kTile.nr>(kc, ap, bp, cp, ldc);
              } else {
                micro_edge(kc, mr, nr, ap, bp, cp, ldc);
              }
            }
          }
        }
      }
    }
  };
  split_c(m, k, n, kMr, n <= kGemmJb, block);
}

// The simd tn chain of one element C(i, j) += alpha * dot(A(:, i), B(:, j)):
// width lane accumulators from zero over p < kv (lane l takes p = l mod
// width, one multiply-add per term, ascending), the fixed-order horizontal
// sum, then the scalar tail p >= kv, then one scaled accumulate.
//
// The register tile is kTnMr columns of A by up to 3 of B over k-slabs of
// kTnKc: a slab of a kTnMr-column strip of A (8 KB) stays in L1 while the
// tile walks every column of B, and the lane accumulators wait in a
// per-strip buffer between slabs. Slab edges are multiples of the width, so
// every lane still sees its terms in ascending order, and the load/store
// round-trip between slabs is exact: the chain is the one above, whatever
// the tile, the slab or the thread count.
constexpr Index kTnMr = 4;
constexpr Index kTnNr = 3;
constexpr Index kTnKc = 256;
static_assert(kTnKc % simd::kWidth == 0,
              "tn slab edges must fall on lane boundaries");

// MR x NC tile over the slab [p0, p1) of the vector part. Column i of the
// tile is A's column a + i*lda, column j is B's column b + j*ldb; the lane
// accumulator of element (i, j) sits at acc + (j*kTnMr + i) * width.
template <int MR, int NC>
void micro_tn_slab(Index p0, Index p1, const double* LRA_RESTRICT a, Index lda,
                   const double* LRA_RESTRICT b, Index ldb,
                   double* LRA_RESTRICT acc) {
  using simd::VecD;
  constexpr int kW = simd::kWidth;
  VecD s[MR][NC];
  LRA_UNROLL
  for (int i = 0; i < MR; ++i)
    LRA_UNROLL
    for (int j = 0; j < NC; ++j)
      s[i][j] = VecD::load(acc + (j * kTnMr + i) * kW);
  for (Index p = p0; p < p1; p += kW) {
    VecD bv[NC];
    LRA_UNROLL
    for (int j = 0; j < NC; ++j) bv[j] = VecD::load(b + j * ldb + p);
    LRA_UNROLL
    for (int i = 0; i < MR; ++i) {
      const VecD av = VecD::load(a + i * lda + p);
      LRA_UNROLL
      for (int j = 0; j < NC; ++j)
        s[i][j] = simd::fmadd(av, bv[j], s[i][j]);
    }
  }
  LRA_UNROLL
  for (int i = 0; i < MR; ++i)
    LRA_UNROLL
    for (int j = 0; j < NC; ++j) s[i][j].store(acc + (j * kTnMr + i) * kW);
}

// One slab of MR rows of C against columns jlo..jhi, in kTnNr-column tiles
// and one narrower tile for the last 1 or 2 columns.
static_assert(kTnNr == 3, "tn_slab_row's edge tiles cover 1 or 2 columns");
template <int MR>
void tn_slab_row(Index p0, Index p1, const double* a, Index lda,
                 const Matrix& b, Index jlo, Index jhi, double* acc) {
  constexpr Index kStep = kTnMr * simd::kWidth;
  const Index ldb = b.rows();
  Index j = jlo;
  for (; j + kTnNr <= jhi; j += kTnNr)
    micro_tn_slab<MR, kTnNr>(p0, p1, a, lda, b.col(j), ldb,
                             acc + (j - jlo) * kStep);
  if (jhi - j == 2) {
    micro_tn_slab<MR, 2>(p0, p1, a, lda, b.col(j), ldb,
                         acc + (j - jlo) * kStep);
  } else if (jhi - j == 1) {
    micro_tn_slab<MR, 1>(p0, p1, a, lda, b.col(j), ldb,
                         acc + (j - jlo) * kStep);
  }
}

// A's columns are the outer loop in kTnMr-column strips, so A is streamed
// once per call; the pool splits C by runs of those strips (rows of C) when
// each thread gets one, else by columns.
void gemm_tn_simd(Matrix& c, const Matrix& a, const Matrix& b, double alpha) {
  constexpr int kW = simd::kWidth;
  const Index m = a.cols(), k = a.rows(), n = b.cols();
  const Index lda = a.rows();
  const Index kv = k - k % kW;  // the lanes' share of every chain
  // C(ilo:ihi, jlo:jhi).
  const auto block = [&](Index ilo, Index ihi, Index jlo, Index jhi) {
    const Index nb = jhi - jlo;
    Workspace::Scope scope;
    double* acc = scope.doubles(static_cast<std::size_t>(nb * kTnMr * kW));
    for (Index i0 = ilo; i0 < ihi; i0 += kTnMr) {
      const Index mr = std::min(kTnMr, ihi - i0);
      std::fill(acc, acc + nb * kTnMr * kW, 0.0);
      for (Index p0 = 0; p0 < kv; p0 += kTnKc) {
        const Index p1 = std::min(p0 + kTnKc, kv);
        if (mr == kTnMr) {
          tn_slab_row<kTnMr>(p0, p1, a.col(i0), lda, b, jlo, jhi, acc);
        } else {
          for (Index r = 0; r < mr; ++r)
            tn_slab_row<1>(p0, p1, a.col(i0 + r), lda, b, jlo, jhi,
                           acc + r * kW);
        }
      }
      for (Index j = jlo; j < jhi; ++j) {
        const double* bj = b.col(j);
        for (Index r = 0; r < mr; ++r) {
          const double* ai = a.col(i0 + r);
          double s = simd::hsum_ordered(
              simd::VecD::load(acc + ((j - jlo) * kTnMr + r) * kW));
          // The scalar tail: simd::fmadd's rounding, one term at a time.
          for (Index p = kv; p < k; ++p)
            s = simd::kHasFma ? std::fma(ai[p], bj[p], s) : ai[p] * bj[p] + s;
          c(i0 + r, j) += alpha * s;
        }
      }
    }
  };
  split_c(m, k, n, kTnMr, true, block);
}

}  // namespace

void gemm(Matrix& c, const Matrix& a, const Matrix& b, double alpha,
          double beta, Trans ta, Trans tb) {
  const Index m = (ta == Trans::kNo) ? a.rows() : a.cols();
  const Index ka = (ta == Trans::kNo) ? a.cols() : a.rows();
  const Index kb = (tb == Trans::kNo) ? b.rows() : b.cols();
  const Index n = (tb == Trans::kNo) ? b.cols() : b.rows();
  assert(ka == kb);
  (void)kb;
  assert(c.rows() == m && c.cols() == n);
  (void)m;
  (void)n;

  if (beta == 0.0) {
    for (Index j = 0; j < c.cols(); ++j) {
      double* cj = c.col(j);
      for (Index i = 0; i < c.rows(); ++i) cj[i] = 0.0;
    }
  } else if (beta != 1.0) {
    c.scale(beta);
  }
  if (alpha == 0.0 || ka == 0) return;

  if (ta == Trans::kNo && tb == Trans::kNo) {
    gemm_nn_nt_simd<false>(c, a, b, alpha);
  } else if (ta == Trans::kYes && tb == Trans::kNo) {
    gemm_tn_simd(c, a, b, alpha);
  } else if (ta == Trans::kNo && tb == Trans::kYes) {
    gemm_nn_nt_simd<true>(c, a, b, alpha);
  } else {
    gemm_tt_naive(c, a, b, alpha);
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm(c, a, b);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  gemm(c, a, b, 1.0, 0.0, Trans::kYes, Trans::kNo);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  gemm(c, a, b, 1.0, 0.0, Trans::kNo, Trans::kYes);
  return c;
}

void matmul_into(Matrix& c, const Matrix& a, const Matrix& b) {
  c.reshape(a.rows(), b.cols());
  gemm(c, a, b);
}

void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b) {
  c.reshape(a.cols(), b.cols());
  gemm(c, a, b, 1.0, 0.0, Trans::kYes, Trans::kNo);
}

void gemv(double* y, const Matrix& a, const double* x, double alpha,
          double beta, Trans ta) {
  const Index m = (ta == Trans::kNo) ? a.rows() : a.cols();
  if (beta == 0.0) {
    for (Index i = 0; i < m; ++i) y[i] = 0.0;
  } else if (beta != 1.0) {
    for (Index i = 0; i < m; ++i) y[i] *= beta;
  }
  if (ta == Trans::kNo) {
    for (Index j = 0; j < a.cols(); ++j) {
      const double w = alpha * x[j];
      if (w == 0.0) continue;
      axpy(a.rows(), w, a.col(j), y);
    }
  } else {
    for (Index j = 0; j < a.cols(); ++j)
      y[j] += alpha * dot(a.rows(), a.col(j), x);
  }
}

void axpy(Index n, double alpha, const double* x, double* y) noexcept {
  // VecD lanes with multiply and add as two roundings: each entry is the
  // scalar loop's y[i] + alpha * x[i].
  using simd::VecD;
  const VecD av = VecD::broadcast(alpha);
  Index i = 0;
  for (; i + simd::kWidth <= n; i += simd::kWidth)
    simd::madd(VecD::load(x + i), av, VecD::load(y + i)).store(y + i);
  for (; i < n; ++i) y[i] += alpha * x[i];
}

double nrm2(Index n, const double* x) noexcept {
  // Two-pass scaled norm to avoid overflow/underflow on extreme inputs.
  double mx = 0.0;
  for (Index i = 0; i < n; ++i) mx = std::max(mx, std::fabs(x[i]));
  if (mx == 0.0) return 0.0;
  double s = 0.0;
  const double inv = 1.0 / mx;
  for (Index i = 0; i < n; ++i) {
    const double v = x[i] * inv;
    s += v * v;
  }
  return mx * std::sqrt(s);
}

double dot(Index n, const double* x, const double* y) noexcept {
  double s = 0.0;
  for (Index i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

}  // namespace lra
