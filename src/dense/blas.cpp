#include "dense/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "par/pool.hpp"
#include "support/autotune.hpp"
#include "support/kernel_variant.hpp"
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
// each accumulates its k terms in ascending order in both variants below, so
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

// C(mxn) += A^T(k x m) * B^T(n x k). Not on any hot path: both variants share
// this plain loop.
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

// Strict A^T*B (the simd-strict tn path): the reference kernel computes each
// C(i,j) as a full-k dot (accumulated from 0.0 in a register) and then
// performs a single `c += alpha * dot`. To reproduce those bits this kernel
// keeps whole-k scalar dot accumulators too — vector-lane accumulators would
// re-associate the reduction — and register-tiles 4x4 over (i,j) with no KC
// slabbing, quartering the traffic over A's and B's columns. There is no
// zero-skip in the reference tn kernel, so this path is bitwise identical to
// it for every input.
constexpr Index kGemmTnTile = 4;

void micro_tn_4x4(Index k, const double* LRA_RESTRICT a0,
                  const double* LRA_RESTRICT a1, const double* LRA_RESTRICT a2,
                  const double* LRA_RESTRICT a3, const double* LRA_RESTRICT b0,
                  const double* LRA_RESTRICT b1, const double* LRA_RESTRICT b2,
                  const double* LRA_RESTRICT b3, double alpha,
                  double* LRA_RESTRICT c0, double* LRA_RESTRICT c1,
                  double* LRA_RESTRICT c2, double* LRA_RESTRICT c3) {
  double s[kGemmTnTile][kGemmTnTile] = {};
  for (Index p = 0; p < k; ++p) {
    const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
    const double bv0 = b0[p], bv1 = b1[p], bv2 = b2[p], bv3 = b3[p];
    s[0][0] += av0 * bv0;
    s[1][0] += av1 * bv0;
    s[2][0] += av2 * bv0;
    s[3][0] += av3 * bv0;
    s[0][1] += av0 * bv1;
    s[1][1] += av1 * bv1;
    s[2][1] += av2 * bv1;
    s[3][1] += av3 * bv1;
    s[0][2] += av0 * bv2;
    s[1][2] += av1 * bv2;
    s[2][2] += av2 * bv2;
    s[3][2] += av3 * bv2;
    s[0][3] += av0 * bv3;
    s[1][3] += av1 * bv3;
    s[2][3] += av2 * bv3;
    s[3][3] += av3 * bv3;
  }
  c0[0] += alpha * s[0][0];
  c0[1] += alpha * s[1][0];
  c0[2] += alpha * s[2][0];
  c0[3] += alpha * s[3][0];
  c1[0] += alpha * s[0][1];
  c1[1] += alpha * s[1][1];
  c1[2] += alpha * s[2][1];
  c1[3] += alpha * s[3][1];
  c2[0] += alpha * s[0][2];
  c2[1] += alpha * s[1][2];
  c2[2] += alpha * s[2][2];
  c2[3] += alpha * s[3][2];
  c3[0] += alpha * s[0][3];
  c3[1] += alpha * s[1][3];
  c3[2] += alpha * s[2][3];
  c3[3] += alpha * s[3][3];
}

void gemm_tn_strict(Matrix& c, const Matrix& a, const Matrix& b,
                    double alpha) {
  const Index m = a.cols(), k = a.rows(), n = b.cols();
  ThreadPool::global().parallel_ranges(
      Index{0}, n, "gemm", gemm_grain(m, k, n, n),
      [&](Index jlo, Index jhi, int /*slice*/) {
        for (Index j0 = jlo; j0 < jhi; j0 += kGemmTnTile) {
          const Index nr = std::min(kGemmTnTile, jhi - j0);
          Index i0 = 0;
          if (nr == kGemmTnTile) {
            for (; i0 + kGemmTnTile <= m; i0 += kGemmTnTile) {
              micro_tn_4x4(k, a.col(i0), a.col(i0 + 1), a.col(i0 + 2),
                           a.col(i0 + 3), b.col(j0), b.col(j0 + 1),
                           b.col(j0 + 2), b.col(j0 + 3), alpha,
                           c.col(j0) + i0, c.col(j0 + 1) + i0,
                           c.col(j0 + 2) + i0, c.col(j0 + 3) + i0);
            }
          }
          // Remainder rows/columns: identical expression to the reference
          // kernel — a full-k dot, then one scaled accumulate.
          for (Index jj = 0; jj < nr; ++jj) {
            const double* bj = b.col(j0 + jj);
            double* cj = c.col(j0 + jj);
            for (Index i = i0; i < m; ++i)
              cj[i] += alpha * dot(k, a.col(i), bj);
          }
        }
      });
}

// ---------------------------------------------------------------------------
// SIMD (vectorized) kernels on support/simd.hpp, autotuned geometry from
// support/autotune.hpp. Two flavours share every code path via the kFma
// template flag:
//
//   simd         kFma = simd::kHasFma. Each multiply-add is a single-rounding
//                fused op (vector fmadd in full tiles, scalar std::fma in
//                edge tiles — the SAME rounding, so an element's bits do not
//                depend on which path computed it). NOT bitwise comparable
//                to the reference kernels (tests/reference_kernels.hpp);
//                gated by the ULP bound in bench_kernels and
//                test_kernels_simd.
//   simd-strict  kFma = false. Every multiply-add is the two-rounding
//                round(round(a*b) + c) chain of the reference kernels, so for
//                the nn/nt drivers each element reproduces their bits exactly
//                (zero-skip caveat aside: the reference skips terms whose
//                dense multiplier is exactly 0.0, these drivers multiply
//                through). The tn path is gemm_tn_strict above.
//
// Determinism across geometry and threads: the micro-tile loads its C block,
// accumulates one KC slab in ascending-p order with one multiply-add per
// term, and stores back — load/store round-trips are exact and k is never
// split, so each element's chain is the same for every valid (mc, kc, mv,
// nr), every thread count, and every full-tile/edge-tile assignment. The
// autotuner can therefore never change results, only speed.
// ---------------------------------------------------------------------------

// One multiply-add term, scalar: single-rounding when kFma, else the seed
// two-rounding chain. Mirrors simd::fmadd / simd::madd per lane.
template <bool kFma>
inline double scalar_madd(double a, double b, double c) {
  return kFma ? std::fma(a, b, c) : a * b + c;
}

using MicroFn = void (*)(Index kc, const double* LRA_RESTRICT ap,
                         const double* const* bcols, double alpha,
                         double* const* ccols);

// Full (MV*width x NR) register tile over one packed A strip.
template <int MV, int NR, bool kFma>
void micro_simd(Index kc, const double* LRA_RESTRICT ap,
                const double* const* bcols, double alpha,
                double* const* ccols) {
  using simd::VecD;
  constexpr int kW = simd::kWidth;
  constexpr Index kStride = MV * kW;
  VecD acc[NR][MV];
  LRA_UNROLL
  for (int j = 0; j < NR; ++j)
    LRA_UNROLL
    for (int v = 0; v < MV; ++v) acc[j][v] = VecD::load(ccols[j] + v * kW);
  for (Index p = 0; p < kc; ++p) {
    const double* LRA_RESTRICT as = ap + p * kStride;
    VecD av[MV];
    LRA_UNROLL
    for (int v = 0; v < MV; ++v) av[v] = VecD::load(as + v * kW);
    LRA_UNROLL
    for (int j = 0; j < NR; ++j) {
      const VecD w = VecD::broadcast(alpha * bcols[j][p]);
      LRA_UNROLL
      for (int v = 0; v < MV; ++v)
        acc[j][v] = kFma ? simd::fmadd(av[v], w, acc[j][v])
                         : simd::madd(av[v], w, acc[j][v]);
    }
  }
  LRA_UNROLL
  for (int j = 0; j < NR; ++j)
    LRA_UNROLL
    for (int v = 0; v < MV; ++v) acc[j][v].store(ccols[j] + v * kW);
}

// Widest strip any config can ask for (mv <= 4 vectors of width <= 4) and
// the widest column tile (nr <= 8).
constexpr Index kSimdMaxMr = 16;
constexpr Index kSimdMaxNr = 8;

// Edge tile (mr x nr with mr < stride or nr < the full tile): scalar loop
// with the same per-term expression as the vector tile, so edge and interior
// elements carry identical bits in both flavours.
template <bool kFma>
void micro_edge_simd(Index kc, Index mr, Index nr, Index stride,
                     const double* LRA_RESTRICT ap, const double* const* bcols,
                     double alpha, double* const* ccols) {
  double acc[kSimdMaxNr][kSimdMaxMr];
  for (Index jj = 0; jj < nr; ++jj)
    for (Index r = 0; r < mr; ++r) acc[jj][r] = ccols[jj][r];
  for (Index p = 0; p < kc; ++p) {
    const double* LRA_RESTRICT as = ap + p * stride;
    for (Index jj = 0; jj < nr; ++jj) {
      const double w = alpha * bcols[jj][p];
      for (Index r = 0; r < mr; ++r)
        acc[jj][r] = scalar_madd<kFma>(as[r], w, acc[jj][r]);
    }
  }
  for (Index jj = 0; jj < nr; ++jj)
    for (Index r = 0; r < mr; ++r) ccols[jj][r] = acc[jj][r];
}

// The micro-tile shapes the autotuner may pick. A config whose (mv, nr) has
// no instantiation falls back to the default shape (geometry is a pure perf
// knob, so remapping is observable only in speed).
struct MicroEntry {
  int mv, nr;
  MicroFn fma, strict;
};
constexpr MicroEntry kMicroTable[] = {
    {1, 4, micro_simd<1, 4, true>, micro_simd<1, 4, false>},
    {2, 4, micro_simd<2, 4, true>, micro_simd<2, 4, false>},
    {3, 4, micro_simd<3, 4, true>, micro_simd<3, 4, false>},
    {4, 4, micro_simd<4, 4, true>, micro_simd<4, 4, false>},
    {1, 8, micro_simd<1, 8, true>, micro_simd<1, 8, false>},
    {2, 6, micro_simd<2, 6, true>, micro_simd<2, 6, false>},
    {2, 8, micro_simd<2, 8, true>, micro_simd<2, 8, false>},
};

struct SimdGeom {
  Index mc, kc, mr, nr;
  MicroFn fn;
};

template <bool kFma>
SimdGeom simd_geom() {
  const KernelConfig& cfg = kernel_config();
  int mv = cfg.gemm.mv, nr = cfg.gemm.nr;
  const MicroEntry* hit = nullptr;
  for (const MicroEntry& e : kMicroTable)
    if (e.mv == mv && e.nr == nr) hit = &e;
  if (hit == nullptr) {
    mv = 2;
    nr = 4;
    hit = &kMicroTable[1];
  }
  const Index mr = static_cast<Index>(mv) * simd::kWidth;
  Index mc = cfg.gemm.mc;
  if (mc % mr != 0) mc += mr - mc % mr;  // keep strips tiling the row block
  return {mc, cfg.gemm.kc, mr, static_cast<Index>(nr),
          kFma ? hit->fma : hit->strict};
}

// Pack `nr` rows (j0..j0+nr-1) of B's k0:k1 slab into contiguous per-row
// arrays so the micro-kernels can walk them with unit stride. B(j..j+nr-1, p)
// is a contiguous run of B's column p, so each depth reads one short run.
void pack_b_rows(double* LRA_RESTRICT dst, const Matrix& b, Index j0,
                 Index nr, Index k0, Index k1) {
  const Index kc = k1 - k0;
  const Index ldb = b.rows();
  // Row-outer order: each destination row is a contiguous write stream, and
  // the strided source lines stay cached across consecutive rows.
  for (Index jj = 0; jj < nr; ++jj) {
    const double* q = b.data() + j0 + jj;
    double* LRA_RESTRICT d = dst + jj * kc;
    for (Index p = 0; p < kc; ++p) d[p] = q[(k0 + p) * ldb];
  }
}

// B-row panel width for the nt path: rows jb0..jb0+kGemmJb of the current
// k-slab are packed once and reused across every A-panel, so each B element
// is repacked only once per k-slab instead of once per (i0, j) tile.
constexpr Index kGemmJb = 256;

// Pack A(i0:i1, k0:k1) strip-major with a runtime strip height: strips of
// `stride` rows, rows past i1 padded with zeros so the micro-kernels can
// always read full strips.
void pack_a_panel(double* LRA_RESTRICT dst, const Matrix& a, Index i0,
                     Index i1, Index k0, Index k1, Index stride) {
  for (Index is = i0; is < i1; is += stride) {
    const Index mr = std::min(stride, i1 - is);
    for (Index p = k0; p < k1; ++p) {
      const double* ap = a.col(p) + is;
      for (Index r = 0; r < mr; ++r) dst[r] = ap[r];
      for (Index r = mr; r < stride; ++r) dst[r] = 0.0;
      dst += stride;
    }
  }
}

// Shared simd nn / nt driver, tiled over output rows/columns with autotuned
// geometry. The only difference between the transposes is how a column
// tile's B values are fetched: nn reads B's columns directly, nt (kBT) packs
// a kGemmJb-row panel of B into contiguous scratch first. Packing does not
// touch the accumulation chain, so the determinism argument above covers
// both.
//
// The work is split over threads by output columns, except for narrow
// products (n <= kGemmJb, one B panel: the randomized solvers' m x K times
// K x k blocks) with at least one mr-strip of rows per thread. Those split
// over contiguous runs of mr-strips instead, so each thread packs only its
// own rows of A rather than all of it. Neither split reorders any element's
// k chain.
template <bool kBT, bool kFma>
void gemm_nn_nt_simd(Matrix& c, const Matrix& a, const Matrix& b,
                     double alpha) {
  const Index m = a.rows(), k = a.cols();
  const Index n = kBT ? b.rows() : b.cols();
  const SimdGeom g = simd_geom<kFma>();
  // C(ilo:ihi, jlo:jhi); ilo is a multiple of g.mr.
  const auto block = [&](Index ilo, Index ihi, Index jlo, Index jhi) {
    Workspace::Scope scope;
    double* pack = scope.doubles(static_cast<std::size_t>(g.mc) * g.kc);
    double* bpack =
        kBT ? scope.doubles(static_cast<std::size_t>(kGemmJb) * g.kc)
            : nullptr;
    for (Index k0 = 0; k0 < k; k0 += g.kc) {
      const Index k1 = std::min(k0 + g.kc, k);
      const Index kc = k1 - k0;
      for (Index jb0 = jlo; jb0 < jhi; jb0 += kGemmJb) {
        const Index jb1 = std::min(jb0 + kGemmJb, jhi);
        if (kBT) pack_b_rows(bpack, b, jb0, jb1 - jb0, k0, k1);
        for (Index i0 = ilo; i0 < ihi; i0 += g.mc) {
          const Index i1 = std::min(i0 + g.mc, ihi);
          pack_a_panel(pack, a, i0, i1, k0, k1, g.mr);
          for (Index j = jb0; j < jb1; j += g.nr) {
            const Index nr = std::min(g.nr, jb1 - j);
            const double* bcols[kSimdMaxNr];
            double* ccols[kSimdMaxNr];
            for (Index jj = 0; jj < nr; ++jj)
              bcols[jj] = kBT ? bpack + (j - jb0 + jj) * kc
                              : b.col(j + jj) + k0;
            Index s = 0;
            for (Index is = i0; is < i1; is += g.mr, ++s) {
              const Index mr = std::min(g.mr, i1 - is);
              const double* ap = pack + s * kc * g.mr;
              for (Index jj = 0; jj < nr; ++jj)
                ccols[jj] = c.col(j + jj) + is;
              if (mr == g.mr && nr == g.nr) {
                g.fn(kc, ap, bcols, alpha, ccols);
              } else {
                micro_edge_simd<kFma>(kc, mr, nr, g.mr, ap, bcols, alpha,
                                      ccols);
              }
            }
          }
        }
      }
    }
  };
  split_c(m, k, n, g.mr, n <= kGemmJb, block);
}

// Canonical vectorized dot: one width-wide accumulator over ascending p, the
// fixed-order horizontal sum, then the scalar tail. Every simd tn element —
// interior tile or edge — reduces k through exactly this chain, so the bits
// are invariant under tiling and thread slicing. (Lane accumulators
// re-associate the reduction, which is why simd-strict routes tn through the
// scalar gemm_tn_strict instead.)
template <bool kFma>
double simd_dot(Index k, const double* LRA_RESTRICT x,
                const double* LRA_RESTRICT y) {
  using simd::VecD;
  constexpr int kW = simd::kWidth;
  VecD acc = VecD::zero();
  Index p = 0;
  for (; p + kW <= k; p += kW)
    acc = kFma ? simd::fmadd(VecD::load(x + p), VecD::load(y + p), acc)
               : simd::madd(VecD::load(x + p), VecD::load(y + p), acc);
  double s = simd::hsum_ordered(acc);
  for (; p < k; ++p) s = scalar_madd<kFma>(x[p], y[p], s);
  return s;
}

// 4x2 tn register tile: eight independent simd_dot chains sharing the a/b
// vector loads. Element (i, j) computes bit-identical to simd_dot(k, a_i,
// b_j) by construction.
template <bool kFma>
void micro_tn_simd(Index k, const double* LRA_RESTRICT a0,
                   const double* LRA_RESTRICT a1, const double* LRA_RESTRICT a2,
                   const double* LRA_RESTRICT a3, const double* LRA_RESTRICT b0,
                   const double* LRA_RESTRICT b1, double alpha,
                   double* LRA_RESTRICT c0, double* LRA_RESTRICT c1) {
  using simd::VecD;
  constexpr int kW = simd::kWidth;
  const double* acols[4] = {a0, a1, a2, a3};
  VecD acc[4][2];
  LRA_UNROLL
  for (int i = 0; i < 4; ++i)
    LRA_UNROLL
    for (int j = 0; j < 2; ++j) acc[i][j] = VecD::zero();
  Index p = 0;
  for (; p + kW <= k; p += kW) {
    const VecD bv0 = VecD::load(b0 + p);
    const VecD bv1 = VecD::load(b1 + p);
    LRA_UNROLL
    for (int i = 0; i < 4; ++i) {
      const VecD av = VecD::load(acols[i] + p);
      acc[i][0] = kFma ? simd::fmadd(av, bv0, acc[i][0])
                       : simd::madd(av, bv0, acc[i][0]);
      acc[i][1] = kFma ? simd::fmadd(av, bv1, acc[i][1])
                       : simd::madd(av, bv1, acc[i][1]);
    }
  }
  double s[4][2];
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 2; ++j) s[i][j] = simd::hsum_ordered(acc[i][j]);
  for (; p < k; ++p) {
    const double bv0 = b0[p], bv1 = b1[p];
    for (int i = 0; i < 4; ++i) {
      const double av = acols[i][p];
      s[i][0] = scalar_madd<kFma>(av, bv0, s[i][0]);
      s[i][1] = scalar_madd<kFma>(av, bv1, s[i][1]);
    }
  }
  for (int i = 0; i < 4; ++i) {
    c0[i] += alpha * s[i][0];
    c1[i] += alpha * s[i][1];
  }
}

// A's columns are the outer loop, so each 4-column strip of A is read from
// memory once and reused against every column pair of B while it is cache
// resident; A is streamed once per call, not once per column pair. The pool
// splits C by runs of those strips (rows of C) when each thread gets one.
template <bool kFma>
void gemm_tn_simd(Matrix& c, const Matrix& a, const Matrix& b, double alpha) {
  const Index m = a.cols(), k = a.rows(), n = b.cols();
  // C(ilo:ihi, jlo:jhi).
  const auto block = [&](Index ilo, Index ihi, Index jlo, Index jhi) {
    Index i0 = ilo;
    for (; i0 + 4 <= ihi; i0 += 4) {
      Index j0 = jlo;
      for (; j0 + 2 <= jhi; j0 += 2)
        micro_tn_simd<kFma>(k, a.col(i0), a.col(i0 + 1), a.col(i0 + 2),
                            a.col(i0 + 3), b.col(j0), b.col(j0 + 1), alpha,
                            c.col(j0) + i0, c.col(j0 + 1) + i0);
      for (; j0 < jhi; ++j0)
        for (Index i = i0; i < i0 + 4; ++i)
          c(i, j0) += alpha * simd_dot<kFma>(k, a.col(i), b.col(j0));
    }
    for (Index j = jlo; j < jhi; ++j)
      for (Index i = i0; i < ihi; ++i)
        c(i, j) += alpha * simd_dot<kFma>(k, a.col(i), b.col(j));
  };
  split_c(m, k, n, 4, true, block);
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

  const bool strict = kernel_variant() == KernelVariant::kSimdStrict;
  if (ta == Trans::kNo && tb == Trans::kNo) {
    if (strict) {
      gemm_nn_nt_simd<false, false>(c, a, b, alpha);
    } else {
      gemm_nn_nt_simd<false, simd::kHasFma>(c, a, b, alpha);
    }
  } else if (ta == Trans::kYes && tb == Trans::kNo) {
    if (strict) {
      gemm_tn_strict(c, a, b, alpha);
    } else {
      gemm_tn_simd<simd::kHasFma>(c, a, b, alpha);
    }
  } else if (ta == Trans::kNo && tb == Trans::kYes) {
    if (strict) {
      gemm_nn_nt_simd<true, false>(c, a, b, alpha);
    } else {
      gemm_nn_nt_simd<true, simd::kHasFma>(c, a, b, alpha);
    }
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

void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b) {
  c.reshape(a.rows(), b.rows());
  gemm(c, a, b, 1.0, 0.0, Trans::kNo, Trans::kYes);
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
