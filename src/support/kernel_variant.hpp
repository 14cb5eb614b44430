#pragma once
// The name of the one kernel contract, `simd` (dense/blas.hpp,
// sparse/ops.hpp). The library's records write the constant; this getter
// stays only for solvebench/bench_solve.cpp, which prints
// to_string(kernel_variant()) in its provenance.

namespace lra {

enum class KernelVariant { kSimd };

inline KernelVariant kernel_variant() { return KernelVariant::kSimd; }

inline const char* to_string(KernelVariant) { return "simd"; }

}  // namespace lra
