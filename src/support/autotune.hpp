#pragma once
// Autotuned tile geometry for the SIMD kernel variants.
//
// The `simd` / `simd-strict` GEMM drivers and the packed row-panel
// dense_times_csc kernel read their blocking parameters from a process-wide
// KernelConfig instead of compile-time constants. The config resolves once,
// at first use, in this order:
//
//   1. set_kernel_config() — the `lra_cli tune` sweep and the tests.
//   2. The JSON cache file named by $LRA_AUTOTUNE_CACHE, if it parses,
//      matches this build's SIMD ISA, and passes validation.
//   3. Baked-in defaults for the compiled SIMD width.
//
// No file is read unless the environment names it: a cache left in the
// working directory (`lra_cli tune` writes `lra_autotune.json` there by
// default) never changes a later run behind its back.
//
// A cache produced on a different ISA (or a corrupted file) is rejected with
// a warning and the defaults are used — a stale cache can cost performance
// but can never change results: the simd kernels' per-element accumulation
// chains are invariant under every valid tile geometry (see ARCHITECTURE.md,
// "SIMD microkernels and autotuning"), so tuning is a pure perf knob.
//
// Cache file format (written by `lra_cli tune`, schema lra_autotune/v1):
//
//   {"schema":"lra_autotune/v1","isa":"avx2","cpu":"<model name>",
//    "gemm":{"mc":128,"kc":256,"mv":2,"nr":4},"dtc":{"ib":32}}

#include <string>

namespace lra {

/// GEMM macro/micro tile geometry for the simd drivers. The micro-tile is
/// (mv * simd_width()) x nr; mc/kc size the packed A panel.
struct GemmTile {
  int mc = 128;  ///< rows per packed A panel (multiple of mv*width)
  int kc = 256;  ///< k-slab depth per packed A panel
  int mv = 2;    ///< SIMD vectors per micro-tile column strip
  int nr = 4;    ///< micro-tile columns
};

/// Row-panel height of the packed dense_times_csc kernel (rows of the dense
/// operand kept in register accumulators per pass over A).
struct DtcTile {
  int ib = 0;  ///< 0 = resolve to 8 * simd_width() at load time
};

struct KernelConfig {
  GemmTile gemm;
  DtcTile dtc;
  std::string source = "defaults";  ///< "defaults", "tune", or the cache path
};

inline constexpr char kAutotuneSchema[] = "lra_autotune/v1";
inline constexpr char kAutotuneEnvVar[] = "LRA_AUTOTUNE_CACHE";
/// `lra_cli tune`'s default output path (never read implicitly).
inline constexpr char kAutotuneDefaultFile[] = "lra_autotune.json";

/// Baked-in defaults for the compiled SIMD width (also what invalid fields
/// fall back to).
KernelConfig default_kernel_config();

/// The active config (resolved on first call as documented above). The
/// returned reference is stable for the process lifetime.
const KernelConfig& kernel_config();

/// Install a config (validated; invalid configs are rejected and the current
/// one kept). Like set_kernel_variant, not synchronized with kernels already
/// running — call before launching work. Returns false on invalid input.
bool set_kernel_config(const KernelConfig& cfg, std::string* err = nullptr);

/// Drop any resolved/installed config; the next kernel_config() call
/// re-consults the environment. Test hook.
void reset_kernel_config();

/// Range/shape validation (mc % (mv*width) == 0, register-pressure caps...).
bool validate_kernel_config(const KernelConfig& cfg, std::string* err);

/// Load `path`, requiring schema + ISA match and passing validation.
/// Returns false with a reason in *err (file untouched on failure).
bool load_kernel_config_file(const std::string& path, KernelConfig* out,
                             std::string* err);

/// Write `cfg` (plus this build's schema/isa/cpu header) to `path`.
bool save_kernel_config_file(const std::string& path, const KernelConfig& cfg,
                             std::string* err);

/// One-line human/JSONL summary: "mc=128 kc=256 mr=8 nr=4 ib=32 (defaults)".
std::string kernel_config_summary(const KernelConfig& cfg);

}  // namespace lra
