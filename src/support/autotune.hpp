#pragma once
// The tile geometry of the simd GEMM drivers, fixed at compile time.
//
// The simd nn and nt drivers (dense/blas.cpp) pack A in mc x kc panels of
// (mv * width)-row strips and alpha * op(B) in nr-column micro-panels, and
// run one (mv * width) x nr register micro-tile over them. The values below
// are that geometry's one home; dense/blas.cpp checks them with
// static_asserts against its own SIMD width. The kernels' per-element
// accumulation chains do not depend on the tile (see ARCHITECTURE.md, "SIMD
// microkernels"), so a different tile would change speed, never bits.

#include <string>

namespace lra {

/// GEMM macro/micro tile geometry. The micro-tile is (mv * simd_width()) x
/// nr; mc/kc size the packed A panel.
struct KernelConfig {
  int mc = 120;  ///< rows per packed A panel (multiple of mv*width)
  int kc = 384;  ///< k-slab depth per packed A and B panel
  int mv = 3;    ///< SIMD vectors per micro-tile column strip
  int nr = 4;    ///< micro-tile columns
};

/// The compiled tile, for the benches, reports and tests that record it.
constexpr KernelConfig kernel_config() { return {}; }

/// One-line summary for headers and JSONL records, with mr = mv *
/// simd_width(): "mc=120 kc=384 mr=12 nr=4" on AVX2.
std::string kernel_config_summary(const KernelConfig& cfg);

}  // namespace lra
