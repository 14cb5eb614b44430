#include "sparse/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "dense/blas.hpp"
#include "par/pool.hpp"
#include "support/simd.hpp"
#include "support/workspace.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define LRA_RESTRICT __restrict
#else
#define LRA_RESTRICT
#endif

namespace lra {
namespace {

// Forking is worth it only when the kernel moves enough data; below this
// many nnz-times-columns multiply-adds the fork-join overhead dominates.
constexpr Index kForkWork = Index{1} << 15;

// Column-block width of the SpMM quads: kSpmmNb output columns share one
// pass over A's index/value arrays, cutting index traffic NB-fold.
constexpr Index kSpmmNb = 4;

// The parallel spmv reduces over a fixed chunk grid whose geometry depends
// only on the matrix shape — never on the worker count — and combines the
// per-chunk partial vectors serially in chunk order, so the bits are
// identical at any thread count (though reassociated relative to the
// historical serial loop, like residual_fro).
constexpr Index kSpmvMaxChunks = 16;

void zero_fill(Matrix& c) {
  std::fill(c.data(), c.data() + c.size(), 0.0);
}

// ---- spmm: C = A * B ------------------------------------------------------

// One output column, seed loop: scan A once, scatter-accumulate into cc. Runs
// the quad grid's edge columns (n not a multiple of kSpmmNb).
void spmm_col_naive(const CscMatrix& a, const double* bc, double* cc) {
  for (Index j = 0; j < a.cols(); ++j) {
    const double w = bc[j];
    if (w == 0.0) continue;
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t p = 0; p < rows.size(); ++p) cc[rows[p]] += vals[p] * w;
  }
}

// ---- spmm_t: C = A^T * B --------------------------------------------------

// One output column of A^T * B: one dot per A column, ascending p from 0.0.
// Runs the quad grid's edge columns.
void spmm_t_col_naive(const CscMatrix& a, const double* bc, double* cc) {
  for (Index j = 0; j < a.cols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    double s = 0.0;
    for (std::size_t p = 0; p < rows.size(); ++p) s += vals[p] * bc[rows[p]];
    cc[j] = s;
  }
}

// ---------------------------------------------------------------------------
// SIMD sparse kernels (support/simd.hpp). As in dense/blas.cpp, every
// multiply-add is simd::fmadd, single-rounding where the ISA has FMA. The
// quads keep the reference kernels' (tests/reference_kernels.hpp) term order
// per element but not the spmm zero-skip: a quad multiplies through an exact
// zero of B. ref::simd_chain_spmm / simd_chain_spmm_t pin these chains
// exactly.
// ---------------------------------------------------------------------------

// spmm quad on an interleaved scratch column block: cpack[kSpmmNb*r + q]
// holds output column c0+q's row r, so the kSpmmNb accumulators of one A
// nonzero live in kSpmmNb/width consecutive vectors — one contiguous
// load/fmadd/store replaces kSpmmNb scattered cache-line touches. Lanes are
// distinct output elements; each still accumulates its terms in ascending
// (j, p) order.
void spmm_quad_simd(const CscMatrix& a, const Matrix& b, Matrix& c, Index c0,
                    double* LRA_RESTRICT cpack) {
  using simd::VecD;
  constexpr int kW = simd::kWidth;
  constexpr int kNV = static_cast<int>(kSpmmNb) / kW;
  const Index m = a.rows();
  std::fill(cpack, cpack + kSpmmNb * m, 0.0);
  const double* bq[kSpmmNb];
  for (Index q = 0; q < kSpmmNb; ++q) bq[q] = b.col(c0 + q);
  for (Index j = 0; j < a.cols(); ++j) {
    double wbuf[kSpmmNb];
    for (Index q = 0; q < kSpmmNb; ++q) wbuf[q] = bq[q][j];
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    VecD wv[kNV];
    LRA_UNROLL
    for (int v = 0; v < kNV; ++v) wv[v] = VecD::load(wbuf + v * kW);
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const VecD av = VecD::broadcast(vals[p]);
      double* LRA_RESTRICT cr = cpack + kSpmmNb * rows[p];
      LRA_UNROLL
      for (int v = 0; v < kNV; ++v) {
        VecD acc = VecD::load(cr + v * kW);
        acc = simd::fmadd(av, wv[v], acc);
        acc.store(cr + v * kW);
      }
    }
  }
  for (Index q = 0; q < kSpmmNb; ++q) {
    double* cc = c.col(c0 + q);
    for (Index i = 0; i < m; ++i) cc[i] = cpack[kSpmmNb * i + q];
  }
}

// spmm_t quad on an interleaved B block: bpack[kSpmmNb*r + q] = B(r, c0+q),
// packed once per quad (cost kSpmmNb*m, amortized over nnz). Per A column
// the kSpmmNb dots run in kNV vector accumulators; lane q's chain is the
// reference dot's term order — ascending p from 0.0.
void spmm_t_quad_simd(const CscMatrix& a, const Matrix& b, Matrix& c, Index c0,
                      double* LRA_RESTRICT bpack) {
  using simd::VecD;
  constexpr int kW = simd::kWidth;
  constexpr int kNV = static_cast<int>(kSpmmNb) / kW;
  const Index m = a.rows();
  for (Index q = 0; q < kSpmmNb; ++q) {
    const double* bc = b.col(c0 + q);
    for (Index r = 0; r < m; ++r) bpack[kSpmmNb * r + q] = bc[r];
  }
  for (Index j = 0; j < a.cols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    VecD acc[kNV];
    LRA_UNROLL
    for (int v = 0; v < kNV; ++v) acc[v] = VecD::zero();
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const VecD av = VecD::broadcast(vals[p]);
      const double* br = bpack + kSpmmNb * rows[p];
      LRA_UNROLL
      for (int v = 0; v < kNV; ++v)
        acc[v] = simd::fmadd(av, VecD::load(br + v * kW), acc[v]);
    }
    double t[kSpmmNb];
    for (int v = 0; v < kNV; ++v) acc[v].store(t + v * kW);
    for (Index q = 0; q < kSpmmNb; ++q) c.col(c0 + q)[j] = t[q];
  }
}

// Accumulate y[j0:j1)'s contribution of A's columns into y (no zeroing).
void spmv_cols_accum(const CscMatrix& a, const double* x, double* y, Index j0,
                     Index j1) {
  for (Index j = j0; j < j1; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t p = 0; p < rows.size(); ++p) y[rows[p]] += vals[p] * xj;
  }
}

}  // namespace

void spmv(const CscMatrix& a, const double* x, double* y) {
  const Index m = a.rows(), n = a.cols();
  for (Index i = 0; i < m; ++i) y[i] = 0.0;
  if (a.nnz() < kForkWork || n < 2) {
    // Small input: the seed serial loop, bit-for-bit.
    spmv_cols_accum(a, x, y, 0, n);
    return;
  }
  // Fixed chunk grid (pure function of n): each chunk accumulates its columns
  // into a private partial vector; partials are folded into y serially in
  // chunk order. Thread-count independent by construction.
  const Index chunk = (n + kSpmvMaxChunks - 1) / kSpmvMaxChunks;
  const Index nchunks = (n + chunk - 1) / chunk;
  Workspace::Scope scope;
  double* partial =
      scope.zeroed_doubles(static_cast<std::size_t>(nchunks) * m);
  ThreadPool::global().parallel_for(
      Index{0}, nchunks, "spmv",
      [&](Index ch) {
        spmv_cols_accum(a, x, partial + ch * m, ch * chunk,
                        std::min((ch + 1) * chunk, n));
      },
      Index{1});
  for (Index ch = 0; ch < nchunks; ++ch) {
    const double* pc = partial + ch * m;
    for (Index i = 0; i < m; ++i) y[i] += pc[i];
  }
}

void spmv_t(const CscMatrix& a, const double* x, double* y) {
  // Output elements are independent dot products accumulated in the seed
  // order — parallel over j, bitwise identical to the serial loop.
  const Index grain = a.nnz() < kForkWork ? a.cols() + 1 : 1;
  ThreadPool::global().parallel_for(
      Index{0}, a.cols(), "spmv_t",
      [&](Index j) {
        const auto rows = a.col_rows(j);
        const auto vals = a.col_values(j);
        double s = 0.0;
        for (std::size_t p = 0; p < rows.size(); ++p)
          s += vals[p] * x[rows[p]];
        y[j] = s;
      },
      grain);
}

void spmm_into(Matrix& c, const CscMatrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  c.reshape(a.rows(), b.cols());
  zero_fill(c);
  const Index n = b.cols();
  // Parallel over a fixed grid of kSpmmNb-column blocks (grid geometry
  // independent of the worker count). Within a column the accumulation runs
  // over A's columns in ascending order, so any thread count yields the same
  // bits. Edge blocks (n not a multiple of kSpmmNb — grid-determined, never
  // thread-determined) run the per-column loop.
  const Index nblocks = (n + kSpmmNb - 1) / kSpmmNb;
  const Index grain = a.nnz() * n < kForkWork ? nblocks + 1 : 1;
  ThreadPool::global().parallel_for(
      Index{0}, nblocks, "spmm",
      [&](Index blk) {
        const Index c0 = blk * kSpmmNb;
        const Index c1 = std::min(c0 + kSpmmNb, n);
        if (c1 - c0 == kSpmmNb) {
          Workspace::Scope scope;
          double* cpack =
              scope.doubles(static_cast<std::size_t>(kSpmmNb) * a.rows());
          spmm_quad_simd(a, b, c, c0, cpack);
        } else {
          for (Index col = c0; col < c1; ++col)
            spmm_col_naive(a, b.col(col), c.col(col));
        }
      },
      grain);
}

Matrix spmm(const CscMatrix& a, const Matrix& b) {
  Matrix c;
  spmm_into(c, a, b);
  return c;
}

void spmm_t_into(Matrix& c, const CscMatrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  c.reshape(a.cols(), b.cols());
  const Index n = b.cols();
  // Each output column depends on one column of b only: embarrassingly
  // parallel with bitwise-identical results per column. Every element is
  // overwritten, so no zero fill is needed.
  const Index nblocks = (n + kSpmmNb - 1) / kSpmmNb;
  const Index grain = a.nnz() * n < kForkWork ? nblocks + 1 : 1;
  ThreadPool::global().parallel_for(
      Index{0}, nblocks, "spmm_t",
      [&](Index blk) {
        const Index c0 = blk * kSpmmNb;
        const Index c1 = std::min(c0 + kSpmmNb, n);
        if (c1 - c0 == kSpmmNb) {
          Workspace::Scope scope;
          double* bpack =
              scope.doubles(static_cast<std::size_t>(kSpmmNb) * a.rows());
          spmm_t_quad_simd(a, b, c, c0, bpack);
        } else {
          for (Index col = c0; col < c1; ++col)
            spmm_t_col_naive(a, b.col(col), c.col(col));
        }
      },
      grain);
}

Matrix spmm_t(const CscMatrix& a, const Matrix& b) {
  Matrix c;
  spmm_t_into(c, a, b);
  return c;
}

double residual_fro(const CscMatrix& a, const Matrix& h, const Matrix& w) {
  assert(a.rows() == h.rows() && a.cols() == w.cols() &&
         h.cols() == w.rows());
  // Column-chunked ||A - H W||_F^2: each chunk accumulates its columns in
  // order with a private buffer; the fixed chunk grid plus in-order partial
  // summation keeps the result independent of the thread count.
  constexpr Index kChunkCols = 64;
  const double sum = ThreadPool::global().parallel_reduce_sum(
      Index{0}, a.cols(), "residual", kChunkCols, [&](Index j0, Index j1) {
        // The column buffer comes from the executing worker's arena: a bump
        // allocation the arena serves from the same block on every chunk, so
        // steady-state chunks never touch the heap (the seed code built a
        // fresh std::vector per chunk callback).
        Workspace::Scope scope;
        double* colbuf = scope.doubles(static_cast<std::size_t>(a.rows()));
        double s = 0.0;
        for (Index j = j0; j < j1; ++j) {
          // colbuf = H * W(:, j)
          gemv(colbuf, h, w.col(j));
          const auto rows = a.col_rows(j);
          const auto vals = a.col_values(j);
          for (std::size_t p = 0; p < rows.size(); ++p)
            colbuf[rows[p]] -= vals[p];
          for (Index i = 0; i < a.rows(); ++i) s += colbuf[i] * colbuf[i];
        }
        return s;
      });
  return std::sqrt(sum);
}

Matrix dense_row_subset(const CscMatrix& a, std::span<const Index> rows) {
  // Map global row -> compressed position.
  std::vector<Index> pos(static_cast<std::size_t>(a.rows()), -1);
  for (std::size_t r = 0; r < rows.size(); ++r) pos[rows[r]] = static_cast<Index>(r);
  Matrix c(static_cast<Index>(rows.size()), a.cols());
  for (Index j = 0; j < a.cols(); ++j) {
    const auto rr = a.col_rows(j);
    const auto vv = a.col_values(j);
    double* cj = c.col(j);
    for (std::size_t p = 0; p < rr.size(); ++p) {
      const Index q = pos[rr[p]];
      if (q >= 0) cj[q] = vv[p];
    }
  }
  return c;
}

}  // namespace lra
