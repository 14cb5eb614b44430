#pragma once
// Runtime switch between the two kernel families in dense/blas.cpp and
// sparse/ops.cpp, one per numerical contract:
//
//   simd        — the vectorized kernels on support/simd.hpp, using hardware
//                 FMA where the build's ISA has it. Deterministic (same
//                 input, same bits at any thread count / tile config), and
//                 gated against the reference kernels by a ULP bound, not
//                 bitwise identity. The default.
//   simd-strict — the same vectorized kernels restricted to the two-rounding
//                 mul+add chain with lane-sequential k-accumulation; bitwise
//                 identical to the reference kernels and what the
//                 determinism suite, the differential oracle, and the
//                 distributed solvers' bitwise tests pin. Without a SIMD ISA
//                 (-DLRA_SIMD=OFF) it is the scalar fallback at width 1.
//
// The reference kernels — the seed loops — are not a runtime variant: they
// live header-only in tests/reference_kernels.hpp, used by the kernel tests
// and bench_kernels.
//
// Both families are always compiled; the dispatch happens once per kernel
// call on a cached flag. Selection order: set_kernel_variant() (the
// --kernel-variant CLI flag), then the LRA_KERNEL_VARIANT environment
// variable, then the simd default.
//
// For inputs free of non-finite values and exact-zero entries in the dense
// operands, simd-strict reproduces the reference bits at any thread count
// (see the determinism notes in ARCHITECTURE.md): the kernels tile only over
// output rows/columns and never split a k-reduction, so each output element
// accumulates its terms in exactly the reference kernel's order. The one
// behavioural difference is that the reference GEMM skips multiply-adds
// whose dense multiplier is exactly 0.0, which can flip a -0.0 or suppress a
// NaN on degenerate inputs; the strict GEMM tiles multiply through (the
// strict sparse kernels keep the skip).

#include <string_view>

namespace lra {

enum class KernelVariant { kSimd, kSimdStrict };

/// All accepted --kernel-variant / LRA_KERNEL_VARIANT spellings.
inline constexpr char kKernelVariantNames[] = "simd|simd-strict";

/// Active variant (cached; first call consults LRA_KERNEL_VARIANT).
KernelVariant kernel_variant();

/// Override the variant (CLI / tests). Takes effect for subsequent kernel
/// calls; not synchronized with kernels already running on the pool.
void set_kernel_variant(KernelVariant v);

/// "simd" / "simd-strict" -> enum; false otherwise.
bool parse_kernel_variant(std::string_view text, KernelVariant* out);

const char* to_string(KernelVariant v);

}  // namespace lra
