#pragma once
// Portable f64 SIMD layer for the dense/sparse microkernels.
//
// One vector type, `simd::VecD`, is compiled per translation unit at the
// widest ISA the TU's compile flags allow:
//
//   * AVX2 + FMA — width 4, hardware fused multiply-add (the fast path; the
//     build enables it per-source-file on the kernel TUs when the compiler
//     supports -mavx2 -mfma and LRA_SIMD is ON).
//   * SSE2       — width 2, no hardware FMA (the x86-64 baseline).
//   * scalar     — width 1, plain doubles (any other target, or -DLRA_SIMD=OFF
//     which defines LRA_NO_SIMD).
//
// The kernels are written once against this interface; remainder lanes and
// tails are always handled by the caller, so VecD never needs masks.
//
// Numerical contract (see ARCHITECTURE.md, "SIMD microkernels"):
//
//   * fmadd(a, b, c) is a*b + c with a SINGLE rounding where the ISA has
//     hardware FMA, and falls back to madd() otherwise. The GEMM and SpMM
//     kernels (the `simd` contract) are built on it: deterministic — same
//     input, same shape, same bits at any thread count — but NOT bitwise
//     comparable to the reference kernels (tests/reference_kernels.hpp);
//     they are gated by a ULP/relative-error bound, and pinned exactly by
//     the scalar emulations of their chains there.
//   * madd(a, b, c) is round(round(a*b) + c) in every lane on every ISA —
//     exactly a scalar loop's chain, and fmadd's fallback. axpy, which must
//     reproduce its scalar loop bit for bit, is built on it.
//
// Each ISA's definitions live in a distinct inline namespace so that two TUs
// compiled at different widths never violate the ODR; code outside the
// kernel TUs must query the active width through the runtime functions in
// simd.cpp (simd_width/simd_isa_name), never through these types.
//
// Runtime safety: simd.cpp verifies at program startup (static initializer)
// that the CPU actually supports the ISA this library was compiled for, and
// aborts with a clear message instead of dying on an illegal instruction
// mid-solve.

// Full unrolling for the constant-trip register-tile loops of the simd
// micro-kernels. At -O2 GCC leaves those loops rolled, which keeps the
// accumulator arrays on the stack instead of in ymm registers and roughly
// halves GEMM throughput; the pragma (unlike a file-wide -O3/-funroll-loops)
// scopes the fix to exactly the loops that need it. 16 bounds every micro-tile dimension in use.
#if defined(__clang__)
#define LRA_UNROLL _Pragma("unroll")
#elif defined(__GNUC__)
#define LRA_UNROLL _Pragma("GCC unroll 16")
#else
#define LRA_UNROLL
#endif

#if !defined(LRA_NO_SIMD) && defined(__AVX2__) && defined(__FMA__)
#define LRA_SIMD_ISA_AVX2 1
#include <immintrin.h>
#elif !defined(LRA_NO_SIMD) && \
    (defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64))
#define LRA_SIMD_ISA_SSE2 1
#include <emmintrin.h>
#else
#define LRA_SIMD_ISA_SCALAR 1
#endif

namespace lra::simd {

#if defined(LRA_SIMD_ISA_AVX2)

inline namespace isa_avx2 {

inline constexpr int kWidth = 4;
inline constexpr bool kHasFma = true;
inline constexpr const char kIsaName[] = "avx2";

struct VecD {
  __m256d v;

  static VecD load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
  static VecD broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  static VecD zero() noexcept { return {_mm256_setzero_pd()}; }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }

  friend VecD operator+(VecD a, VecD b) noexcept {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend VecD operator-(VecD a, VecD b) noexcept {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend VecD operator*(VecD a, VecD b) noexcept {
    return {_mm256_mul_pd(a.v, b.v)};
  }
};

/// a*b + c, single rounding (hardware FMA).
inline VecD fmadd(VecD a, VecD b, VecD c) noexcept {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}

/// round(round(a*b) + c) — the seed kernels' two-rounding chain, per lane.
inline VecD madd(VecD a, VecD b, VecD c) noexcept {
  return {_mm256_add_pd(_mm256_mul_pd(a.v, b.v), c.v)};
}

/// Fixed-order horizontal sum: ((lane0 + lane1) + lane2) + lane3. The order
/// is part of the `simd` variant's determinism contract — every TU and every
/// call site reduces identically.
inline double hsum_ordered(VecD a) noexcept {
  alignas(32) double t[4];
  _mm256_store_pd(t, a.v);
  return ((t[0] + t[1]) + t[2]) + t[3];
}

}  // namespace isa_avx2

#elif defined(LRA_SIMD_ISA_SSE2)

inline namespace isa_sse2 {

inline constexpr int kWidth = 2;
inline constexpr bool kHasFma = false;
inline constexpr const char kIsaName[] = "sse2";

struct VecD {
  __m128d v;

  static VecD load(const double* p) noexcept { return {_mm_loadu_pd(p)}; }
  static VecD broadcast(double x) noexcept { return {_mm_set1_pd(x)}; }
  static VecD zero() noexcept { return {_mm_setzero_pd()}; }
  void store(double* p) const noexcept { _mm_storeu_pd(p, v); }

  friend VecD operator+(VecD a, VecD b) noexcept {
    return {_mm_add_pd(a.v, b.v)};
  }
  friend VecD operator-(VecD a, VecD b) noexcept {
    return {_mm_sub_pd(a.v, b.v)};
  }
  friend VecD operator*(VecD a, VecD b) noexcept {
    return {_mm_mul_pd(a.v, b.v)};
  }
};

inline VecD madd(VecD a, VecD b, VecD c) noexcept {
  return {_mm_add_pd(_mm_mul_pd(a.v, b.v), c.v)};
}

/// No hardware FMA on SSE2: fmadd degrades to the two-rounding chain.
inline VecD fmadd(VecD a, VecD b, VecD c) noexcept { return madd(a, b, c); }

inline double hsum_ordered(VecD a) noexcept {
  alignas(16) double t[2];
  _mm_store_pd(t, a.v);
  return t[0] + t[1];
}

}  // namespace isa_sse2

#else

inline namespace isa_scalar {

inline constexpr int kWidth = 1;
inline constexpr bool kHasFma = false;
inline constexpr const char kIsaName[] = "scalar";

struct VecD {
  double v;

  static VecD load(const double* p) noexcept { return {*p}; }
  static VecD broadcast(double x) noexcept { return {x}; }
  static VecD zero() noexcept { return {0.0}; }
  void store(double* p) const noexcept { *p = v; }

  friend VecD operator+(VecD a, VecD b) noexcept { return {a.v + b.v}; }
  friend VecD operator-(VecD a, VecD b) noexcept { return {a.v - b.v}; }
  friend VecD operator*(VecD a, VecD b) noexcept { return {a.v * b.v}; }
};

inline VecD madd(VecD a, VecD b, VecD c) noexcept {
  return {a.v * b.v + c.v};
}
inline VecD fmadd(VecD a, VecD b, VecD c) noexcept { return madd(a, b, c); }
inline double hsum_ordered(VecD a) noexcept { return a.v; }

}  // namespace isa_scalar

#endif

/// Runtime views of the compile-time selection (defined in simd.cpp, which
/// is compiled with the same per-file ISA flags as the kernel TUs). Safe to
/// call from any TU regardless of its own flags.
const char* simd_isa_name() noexcept;  ///< "avx2" | "sse2" | "scalar"
int simd_width() noexcept;             ///< f64 lanes: 4 | 2 | 1
bool simd_has_fma() noexcept;          ///< true only on the AVX2+FMA build

/// Host CPU model string ("model name" from /proc/cpuinfo on Linux,
/// "unknown" elsewhere). Recorded in bench/report headers so perf references
/// can be matched to the machine class that produced them.
const char* cpu_model_name() noexcept;

/// Aborts with a diagnostic if the host CPU cannot execute the ISA this
/// library was compiled for. Runs automatically at program startup; exposed
/// for tests.
void verify_simd_isa();

}  // namespace lra::simd
