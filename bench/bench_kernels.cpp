// bench_kernels — self-timed microbenchmarks of the two kernel variants
// (support/kernel_variant.hpp) against the reference kernels
// (tests/reference_kernels.hpp), with correctness gates.
//
// For each kernel (gemm_nn, gemm_tn, gemm_nt, spmm, spmm_t, dense_times_csc)
// and each reference shape (square GEMMs, plus the randomized solvers'
// narrow m x K times K x 32 products) the harness runs three legs — the
// reference (recorded as variant `naive`), simd and simd-strict — takes the
// median of --reps timed repetitions each, and gates:
//
//   * simd-strict must be bitwise identical to the reference (memcmp) — the
//     inputs are Gaussian, so the reference zero-skip never fires;
//   * simd must satisfy the documented ULP bound: per element,
//     |simd - ref| <= 4 * k_eff * eps * absref, where absref is the
//     reference kernel run on |inputs| (the standard gamma_k forward-error
//     envelope for a length-k_eff multiply-add chain, for both operand
//     orders, with 2x margin each).
//
// The Householder kernel (dense/qr's swept reflector, one kernel for both
// variants) gets two legs per shape, the one-column-at-a-time reference
// (`naive`) and the library (`simd`), at LU_CRTP's tournament node shape
// (QRCP of 1000 x 64 for 32 steps) and the randomized solvers' panel shape
// (HouseholderQR + thin_q of 1400 x 32); its gate is bitwise identity of R,
// Q and the pivots with the reference (memcmp). The Schur update
// (sparse/spgemm, also one kernel for both variants) gets the same two legs,
// the sorting reference and the library, at two LU_CRTP iterations of
// deterministic_seq (scale 0.5, 0.25 under --quick): a late M1' iteration
// and an ILUT_CRTP iteration on M2', where about two thirds of the columns
// take the dense accumulation; its gate is memcmp identity of the column
// pointers, rows and values.
//
// It writes one JSON document (default BENCH_kernels.json; schema
// bench_kernels/v2, see EXPERIMENTS.md) with a record per (kernel, shape,
// variant) and a header recording threads, the host ISA + cpu model, and the
// active autotune config — tools/bench_diff warn-and-skips when the
// reference ISA differs from the host's.
//
//   ./bench_kernels [--threads=N] [--reps=5] [--quick]
//                   [--out=BENCH_kernels.json]
//
// --quick shrinks the shapes for CI smoke runs. Exit status: 0 when every
// gate passed, 1 otherwise. The perf numbers are informational here; the
// regression gate lives in tools/bench_diff.
//
// Bytes-moved model (per leg): dense GEMM counts one read of each input and
// a read+write of C. spmm/spmm_t count one pass over A's value+index arrays
// per group of output columns (reference: one column per pass; simd:
// kSpmmNb columns) plus one read of B and a read+write of C.
// dense_times_csc charges the dense operand honestly: the reference streams
// a column of B per A nonzero (8*m*nnz), while the simd row-panel kernels
// pack B once (8*m*k) and re-read A per panel (apass * ceil(m/ib)); the
// per-nonzero panel reads are cache-resident by design and not charged.
// The Schur update S = A22 - X U12 counts 16 bytes (row + value) per entry
// of A22, U12 and S and per X entry it scatters (one per term of the sum,
// each also 2 flops), for both legs.

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/lu_crtp.hpp"
#include "dense/blas.hpp"
#include "dense/qr.hpp"
#include "dense/qrcp.hpp"
#include "gen/givens_spray.hpp"
#include "gen/presets.hpp"
#include "gen/spectrum.hpp"
#include "obs/json.hpp"
#include "reference_kernels.hpp"
#include "sparse/drop.hpp"
#include "sparse/ops.hpp"
#include "sparse/permute.hpp"
#include "sparse/spgemm.hpp"
#include "support/autotune.hpp"
#include "support/kernel_variant.hpp"
#include "support/simd.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace lra;

CscMatrix bench_sparse(Index n, int passes, Index bandwidth,
                       std::uint64_t seed = 5) {
  return givens_spray(geometric_spectrum(n, 1.0, 0.99),
                      {.left_passes = passes, .right_passes = passes,
                       .bandwidth = bandwidth, .seed = seed});
}

Matrix abs_matrix(const Matrix& x) {
  Matrix y = x;
  for (Index i = 0; i < y.size(); ++i) y.data()[i] = std::fabs(y.data()[i]);
  return y;
}

CscMatrix abs_csc(const CscMatrix& s) {
  CscMatrix t = s;
  for (double& v : t.values()) v = std::fabs(v);
  return t;
}

// Longest per-element accumulation chain of spmm's outputs: nonzeros in A's
// fullest row (each C(i, q) sums one term per nonzero of row i).
Index max_row_nnz(const CscMatrix& s) {
  std::vector<Index> count(static_cast<std::size_t>(s.rows()), 0);
  for (Index j = 0; j < s.cols(); ++j)
    for (const Index r : s.col_rows(j)) ++count[static_cast<std::size_t>(r)];
  Index mx = 0;
  for (const Index c : count) mx = std::max(mx, c);
  return mx;
}

Index max_col_nnz(const CscMatrix& s) {
  Index mx = 0;
  for (Index j = 0; j < s.cols(); ++j)
    mx = std::max(mx, static_cast<Index>(s.col_rows(j).size()));
  return mx;
}

// s(r0:r1, c0:c1) as a CSC matrix.
CscMatrix csc_block(const CscMatrix& s, Index r0, Index r1, Index c0,
                    Index c1) {
  std::vector<Index> colptr{0}, rowind;
  std::vector<double> values;
  for (Index j = c0; j < c1; ++j) {
    const auto rows = s.col_rows(j);
    const auto vals = s.col_values(j);
    for (std::size_t p = 0; p < rows.size(); ++p)
      if (rows[p] >= r0 && rows[p] < r1) {
        rowind.push_back(rows[p] - r0);
        values.push_back(vals[p]);
      }
    colptr.push_back(static_cast<Index>(rowind.size()));
  }
  return CscMatrix(r1 - r0, c1 - c0, std::move(colptr), std::move(rowind),
                   std::move(values));
}

struct SchurInputs {
  CscMatrix a22, x, u12;
};

// The Schur update of LU_CRTP iteration `it` (0-based), rebuilt from a run
// stopped at rank R = (it + 1) k: with B = P_r A P_c, whose trailing rows
// and columns keep the solver's working order, X = L(R:, R-k:R),
// U12 = U(R-k:R, R:) and A22 = B(R:, R:) - L(R:, :R-k) U(:R-k, R:), the
// working matrix of that iteration (under ILUT pruned at the run's mu, as
// the solver prunes it).
SchurInputs schur_inputs(const CscMatrix& a, LuCrtpOptions o, Index it) {
  const Index k = o.block_size, big_r = (it + 1) * k;
  // The full run's mu: its estimate of the iteration count is min(m, n)/k.
  o.estimated_iterations = std::min(a.rows(), a.cols()) / k;
  o.max_rank = big_r;
  const LuCrtpResult r = lu_crtp(a, o);
  if (r.rank != big_r) {
    std::fprintf(stderr, "bench_kernels: the run stopped at rank %ld < %ld\n",
                 static_cast<long>(r.rank), static_cast<long>(big_r));
    std::exit(1);
  }
  const CscMatrix b = permute(a, r.row_perm, r.col_perm);
  const Index m = a.rows(), n = a.cols(), r0 = big_r - k;
  SchurInputs in;
  in.x = csc_block(r.l, big_r, m, r0, big_r);
  in.u12 = csc_block(r.u, r0, big_r, big_r, n);
  in.a22 = schur_update(csc_block(b, big_r, m, big_r, n),
                        csc_block(r.l, big_r, m, 0, r0),
                        csc_block(r.u, 0, r0, big_r, n));
  if (o.threshold != ThresholdMode::kNone) {
    const DropResult dr = drop_below(in.a22, r.mu);
    if (dr.dropped > 0) in.a22.prune(dr.cutoff);
  }
  return in;
}

struct Row {
  std::string kernel;
  std::string shape;
  std::string variant;
  double seconds = 0.0;
  double gflops = 0.0;
  double bytes_moved = 0.0;
  double speedup_vs_naive = 1.0;
};

// Median-of-reps wall time of fn(), after one untimed warm-up call. The
// median is robust to the frequency/steal spikes of shared machines, which
// best-of-reps happily mistakes for kernel speed.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch clock;
    fn();
    samples.push_back(clock.seconds());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(),
                      static_cast<std::size_t>(x.size()) * sizeof(double)) == 0);
}

template <typename T>
bool bitwise_equal(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

bool bitwise_equal(const CscMatrix& x, const CscMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         bitwise_equal(x.colptr(), y.colptr()) &&
         bitwise_equal(x.rowind(), y.rowind()) &&
         bitwise_equal(x.values(), y.values());
}

// The documented FMA-path error envelope (see file header / ARCHITECTURE.md).
bool ulp_within_bound(const Matrix& ref, const Matrix& absref,
                      const Matrix& got, double keff) {
  const double tol = 4.0 * keff * DBL_EPSILON;
  for (Index i = 0; i < ref.size(); ++i) {
    const double d = std::fabs(got.data()[i] - ref.data()[i]);
    if (!(d <= tol * absref.data()[i])) return false;
  }
  return true;
}

// One kernel, three legs: the reference, then simd, then simd-strict. `run`
// must overwrite `out` completely with the active library variant; `run_ref`
// and `run_abs` run the reference kernel on the inputs and on |inputs| (the
// ULP gate's reference magnitude). bytes[] indexes {reference, simd,
// simd-strict}.
template <typename Fn, typename FnRef, typename FnAbs>
bool bench_case(std::vector<Row>& rows, const std::string& kernel,
                const std::string& shape, double flops, const double bytes[3],
                double keff, int reps, Matrix& out, Fn&& run, FnRef&& run_ref,
                FnAbs&& run_abs) {
  run_abs();
  const Matrix absref = out;

  double secs[3];
  secs[0] = time_median(reps, run_ref);
  const Matrix ref = out;
  set_kernel_variant(KernelVariant::kSimd);
  secs[1] = time_median(reps, run);
  const bool ulp_ok = ulp_within_bound(ref, absref, out, keff);
  set_kernel_variant(KernelVariant::kSimdStrict);
  secs[2] = time_median(reps, run);
  const bool bits_ok = bitwise_equal(ref, out);
  set_kernel_variant(KernelVariant::kSimd);

  // The reference leg keeps the name `naive`, so speedup_vs_naive and the
  // committed BENCH_kernels.json trajectory keep their meaning.
  const char* names[3] = {"naive", "simd", "simd-strict"};
  for (int v = 0; v < 3; ++v) {
    Row r{kernel, shape, names[v]};
    r.seconds = secs[v];
    r.gflops = flops / secs[v] * 1e-9;
    r.bytes_moved = bytes[v];
    r.speedup_vs_naive = secs[0] / secs[v];
    rows.push_back(r);
  }
  std::printf(
      "%-16s %-18s ref %7.2f  simd %7.2f  strict %7.2f GF/s  %s %s\n",
      kernel.c_str(), shape.c_str(), flops / secs[0] * 1e-9,
      flops / secs[1] * 1e-9, flops / secs[2] * 1e-9,
      bits_ok ? "bits ok" : "BIT MISMATCH", ulp_ok ? "ulp ok" : "ULP FAIL");
  return bits_ok && ulp_ok;
}

std::string shape3(Index m, Index k, Index n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

// One leg pair of a kernel that is one kernel for both variants (the
// Householder sweep, the Schur update): the reference, then the library
// (each run must leave its result in the captured outputs), gated on
// bitwise identity.
template <typename Fn, typename FnRef, typename Same>
bool bench_pair(std::vector<Row>& rows, const std::string& kernel,
                const std::string& shape, double flops, double bytes, int reps,
                Fn&& run, FnRef&& run_ref, Same&& same) {
  const double t_ref = time_median(reps, run_ref);
  const double t_lib = time_median(reps, run);
  const bool bits_ok = same();
  const char* names[2] = {"naive", "simd"};
  const double secs[2] = {t_ref, t_lib};
  for (int v = 0; v < 2; ++v) {
    Row r{kernel, shape, names[v]};
    r.seconds = secs[v];
    r.gflops = flops / secs[v] * 1e-9;
    r.bytes_moved = bytes;
    r.speedup_vs_naive = t_ref / secs[v];
    rows.push_back(r);
  }
  std::printf(
      "%-16s %-18s ref %7.2f  lib  %7.2f GF/s  (%.3f -> %.3f ms, %.2f -> "
      "%.2f GB/s)  %s\n",
      kernel.c_str(), shape.c_str(), flops / t_ref * 1e-9, flops / t_lib * 1e-9,
      t_ref * 1e3, t_lib * 1e3, bytes / t_ref * 1e-9, bytes / t_lib * 1e-9,
      bits_ok ? "bits ok" : "BIT MISMATCH");
  return bits_ok;
}

// Flops and bytes of the Householder legs count the reflector applications:
// one of length len to `cols` columns is 4 * len * cols flops and streams
// the columns three times (dot read, update read + write) plus v once.
// reflector_work sums them for reflectors k = 0 .. steps-1 (length m - k)
// applied to the columns [first(k), n).
template <typename First>
void reflector_work(Index m, Index n, Index steps, First&& first,
                    double& flops, double& bytes) {
  for (Index k = 0; k < steps; ++k) {
    const double len = static_cast<double>(m - k);
    const double cols = static_cast<double>(n - first(k));
    flops += 4.0 * len * cols;
    bytes += 8.0 * len * (3.0 * cols + 1.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lra;
  const Cli cli(argc, argv);
  const int threads = bench::configure_threads(cli);
  const int reps = static_cast<int>(cli.get_int("reps", 5));
  const bool quick = cli.has("quick");
  const std::string out_path = cli.get("out", "BENCH_kernels.json");
  // Sparse-leg geometry (see the sparse kernels below).
  const Index sn = cli.get_int("sparse-n", quick ? 512 : 8192);
  const int passes = static_cast<int>(cli.get_int("passes", quick ? 2 : 6));
  const Index bandwidth = cli.get_int("bandwidth", 0);
  cli.reject_unread();

  bench::print_header("Kernel microbenchmarks: reference vs simd variants",
                      "perf companion to the Section IV complexity model");
  std::printf("threads = %d, reps = %d%s, isa = %s, autotune: %s\n\n", threads,
              reps, quick ? " (--quick shapes)" : "", simd::simd_isa_name(),
              kernel_config_summary(kernel_config()).c_str());

  std::vector<Row> rows;
  bool all_ok = true;

  // Dense GEMM: one m x k x n product per leg, C = op(A) * op(B). Gaussian
  // inputs have no exact zeros, so the reference kernels' zero-skip never
  // fires and simd-strict must match bitwise.
  const auto gemm_leg = [&](const char* kernel, Index m, Index k, Index n,
                            Trans ta, Trans tb) {
    const Matrix a = ta == Trans::kNo ? Matrix::gaussian(m, k, 1)
                                      : Matrix::gaussian(k, m, 1);
    const Matrix b = tb == Trans::kNo ? Matrix::gaussian(k, n, 2)
                                      : Matrix::gaussian(n, k, 2);
    const Matrix aa = abs_matrix(a);
    const Matrix ab = abs_matrix(b);
    Matrix c(m, n);
    const double flops = 2.0 * m * k * n;
    // A + B read once, C in/out.
    const double bytes1 = 8.0 * (m * k + k * n + 2.0 * m * n);
    const double bytes[3] = {bytes1, bytes1, bytes1};
    all_ok &= bench_case(
        rows, kernel, shape3(m, k, n), flops, bytes, static_cast<double>(k),
        reps, c, [&] { gemm(c, a, b, 1.0, 0.0, ta, tb); },
        [&] { ref::gemm(c, a, b, 1.0, 0.0, ta, tb); },
        [&] { ref::gemm(c, aa, ab, 1.0, 0.0, ta, tb); });
  };
  const std::vector<Index> gemm_sizes =
      quick ? std::vector<Index>{128} : std::vector<Index>{256, 512};
  for (const Index n : gemm_sizes) {
    gemm_leg("gemm_nn", n, n, n, Trans::kNo, Trans::kNo);
    gemm_leg("gemm_tn", n, n, n, Trans::kYes, Trans::kNo);
    gemm_leg("gemm_nt", n, n, n, Trans::kNo, Trans::kYes);
  }
  // The randomized solvers' narrow products at randomized_seq's largest
  // shapes (M4' at scale 0.7: m = n = 2450, K = 1248, block k = 32), halved
  // under --quick: B * Omega (K x n times n x k), Q * X (m x K times K x k)
  // and Q^T * Y ((m x K)^T times m x k).
  const Index sm = quick ? 1225 : 2450, sbig = quick ? 624 : 1248, sblk = 32;
  gemm_leg("gemm_nn", sbig, sm, sblk, Trans::kNo, Trans::kNo);
  gemm_leg("gemm_nn", sm, sbig, sblk, Trans::kNo, Trans::kNo);
  gemm_leg("gemm_tn", sbig, sm, sblk, Trans::kYes, Trans::kNo);

  // Sparse kernels: an n x n givens spray, k dense columns. The simd
  // variants amortize the pass over A's value/index arrays across
  // kSpmmNb output columns — reflected in the bytes-moved model below. The
  // win appears once that stream outgrows the last-level cache, so the
  // reference matrix is deliberately dense-ish and large (~26M nonzeros;
  // override with --sparse-n / --passes / --bandwidth to probe other
  // regimes).
  const Index sk = 32;
  const CscMatrix s = bench_sparse(sn, passes, bandwidth);
  const CscMatrix sa = abs_csc(s);
  std::printf("sparse A: %ld x %ld, %ld nnz\n", s.rows(), s.cols(), s.nnz());
  const double nnz = static_cast<double>(s.nnz());
  const double apass = nnz * 16.0;  // values + idx
  const double groups_naive = static_cast<double>(sk);
  const double groups_quad = (sk + 3) / 4;  // kSpmmNb = 4
  const double dense_io = 8.0 * (3.0 * sn * sk);
  const double sflops = 2.0 * nnz * sk;

  {
    const Matrix b = Matrix::gaussian(sn, sk, 6);
    const Matrix ab = abs_matrix(b);
    Matrix c;
    const double bn = apass * groups_naive + dense_io;
    const double bq = apass * groups_quad + dense_io;
    const double bytes[3] = {bn, bq, bq};
    all_ok &= bench_case(
        rows, "spmm", shape3(sn, sn, sk), sflops, bytes,
        static_cast<double>(max_row_nnz(s)), reps, c,
        [&] { spmm_into(c, s, b); }, [&] { ref::spmm_into(c, s, b); },
        [&] { ref::spmm_into(c, sa, ab); });
    all_ok &= bench_case(
        rows, "spmm_t", shape3(sn, sn, sk), sflops, bytes,
        static_cast<double>(max_col_nnz(s)), reps, c,
        [&] { spmm_t_into(c, s, b); }, [&] { ref::spmm_t_into(c, s, b); },
        [&] { ref::spmm_t_into(c, sa, ab); });
  }
  {
    const Matrix b = Matrix::gaussian(sk, sn, 7);
    const Matrix ab = abs_matrix(b);
    Matrix c;
    // The reference streams a B column per nonzero; the simd row-panel packs
    // B once and re-reads A per panel (C rmw is charged once in both — it
    // stays cache-resident within a column).
    const Index ib = std::min<Index>(kernel_config().dtc.ib,
                                     Index{8} * simd::simd_width());
    const double npanels = std::ceil(static_cast<double>(sk) / ib);
    const double bstream = apass + 8.0 * sk * nnz + 2.0 * 8.0 * sk * sn;
    const double bpanel =
        apass * npanels + 8.0 * sk * sn + 2.0 * 8.0 * sk * sn;
    const double bytes[3] = {bstream, bpanel, bpanel};
    all_ok &= bench_case(
        rows, "dense_times_csc", shape3(sk, sn, sn), sflops, bytes,
        static_cast<double>(max_col_nnz(s)), reps, c,
        [&] { dense_times_csc_into(c, b, s); },
        [&] { ref::dense_times_csc_into(c, b, s); },
        [&] { ref::dense_times_csc_into(c, ab, sa); });
  }

  // Householder: QRCP at a tournament node (two 32-column candidate sets
  // over the active rows), and HouseholderQR + thin_q at a randomized
  // solver's panel.
  {
    const Index m = 1000, n = 64, steps = 32;
    const Matrix a = Matrix::gaussian(m, n, 8);
    double flops = 0.0, bytes = 0.0;
    reflector_work(m, n, steps, [](Index k) { return k + 1; }, flops, bytes);
    Matrix r_ref, r_lib;
    std::vector<Index> p_ref, p_lib;
    all_ok &= bench_pair(
        rows, "qrcp", shape3(m, n, steps), flops, bytes, reps,
        [&] {
          const QRCP f(a, steps);
          r_lib = f.r();
          p_lib = f.perm();
        },
        [&] { ref::qrcp(a, steps, &r_ref, &p_ref); },
        [&] { return bitwise_equal(r_ref, r_lib) && p_ref == p_lib; });
  }
  {
    const Index m = 1400, n = 32;
    const Matrix a = Matrix::gaussian(m, n, 9);
    double flops = 0.0, bytes = 0.0;
    reflector_work(m, n, n, [](Index k) { return k + 1; }, flops, bytes);
    reflector_work(m, n, n, [](Index k) { return k; }, flops, bytes);
    Matrix r_ref, q_ref, r_lib, q_lib;
    all_ok &= bench_pair(
        rows, "householder_qr", std::to_string(m) + "x" + std::to_string(n),
        flops, bytes, reps,
        [&] {
          const HouseholderQR f(a);
          r_lib = f.r();
          q_lib = f.thin_q();
        },
        [&] { ref::householder_qr(a, &r_ref, &q_ref); },
        [&] { return bitwise_equal(r_ref, r_lib) && bitwise_equal(q_ref, q_lib); });
  }

  // The Schur update at two deterministic_seq iterations (preset seed 1,
  // block size 32): LU_CRTP iteration 8 of 12 on M1' (tau 1e-3; 305 of its
  // 462 columns take the dense accumulation) and ILUT_CRTP iteration 3 of
  // 10 on M2' (tau 1e-2; 601 of 872).
  {
    const double scale = quick ? 0.25 : 0.5;
    struct SchurLeg {
      const char* label;
      ThresholdMode threshold;
      double tau;
      Index it;
    };
    const SchurLeg legs[] = {
        {"M1", ThresholdMode::kNone, 1e-3, quick ? 4 : 8},
        {"M2", ThresholdMode::kIlut, 1e-2, 3}};
    for (const SchurLeg& leg : legs) {
      LuCrtpOptions o;
      o.block_size = 32;
      o.tau = leg.tau;
      o.threshold = leg.threshold;
      const SchurInputs in =
          schur_inputs(make_preset(leg.label, scale, 1).a, o, leg.it);
      CscMatrix s_ref, s_lib;
      s_ref = ref::schur_update(in.a22, in.x, in.u12);
      double terms = 0.0;
      for (Index j = 0; j < in.u12.cols(); ++j)
        for (const Index c : in.u12.col_rows(j))
          terms += static_cast<double>(in.x.col_nnz(c));
      const double bytes =
          16.0 * (static_cast<double>(in.a22.nnz() + in.u12.nnz() +
                                      s_ref.nnz()) +
                  terms);
      std::printf(
          "schur %s' iteration %ld: A22 %ld nnz, X %ld nnz, U12 %ld nnz, "
          "S %ld nnz\n",
          leg.label, static_cast<long>(leg.it), static_cast<long>(in.a22.nnz()),
          static_cast<long>(in.x.nnz()), static_cast<long>(in.u12.nnz()),
          static_cast<long>(s_ref.nnz()));
      all_ok &= bench_pair(
          rows, "schur_update",
          shape3(in.a22.rows(), in.x.cols(), in.a22.cols()), 2.0 * terms, bytes,
          reps, [&] { s_lib = schur_update(in.a22, in.x, in.u12); },
          [&] { s_ref = ref::schur_update(in.a22, in.x, in.u12); },
          [&] { return bitwise_equal(s_ref, s_lib); });
    }
  }

  // Emit BENCH_kernels.json.
  std::string results = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    obs::JsonObj rec;
    rec.field("kernel", r.kernel)
        .field("shape", r.shape)
        .field("variant", r.variant)
        .field("seconds", r.seconds)
        .field("gflops", r.gflops)
        .field("bytes_moved", r.bytes_moved)
        .field("speedup_vs_naive", r.speedup_vs_naive);
    if (i) results += ',';
    results += rec.str();
  }
  results += ']';
  obs::JsonObj doc;
  doc.field("schema", "bench_kernels/v2")
      .field("threads", threads)
      .field("reps", reps)
      .field("quick", quick)
      .field("isa", simd::simd_isa_name())
      .field("cpu", simd::cpu_model_name())
      .field("simd_width", simd::simd_width())
      .field("autotune", kernel_config_summary(kernel_config()))
      .field("identity_ok", all_ok)
      .raw("results", results);
  std::ofstream out(out_path);
  out << doc.str() << '\n';
  std::printf("\nwrote %s (%zu rows), gates %s\n", out_path.c_str(),
              rows.size(), all_ok ? "ok" : "FAILED");
  return all_ok ? 0 : 1;
}
