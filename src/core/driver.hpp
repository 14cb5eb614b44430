#pragma once
// Unified fixed-precision driver — the single entry point a downstream user
// adopts: pick a method (or let the library pick), get back a uniform
// low-rank approximation object with apply/assemble/introspection.

#include <memory>
#include <string>
#include <variant>

#include "core/ilut_crtp.hpp"
#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "core/randubv.hpp"
#include "par/simcomm.hpp"

namespace lra {

/// Fixed-precision approximation method. kAuto resolves against the matrix
/// via choose_method() (heuristic on tau and sparsity; see driver.cpp).
enum class Method {
  kAuto,      // heuristic choice based on tau and sparsity (see driver.cpp)
  kRandQbEi,
  kLuCrtp,
  kIlutCrtp,
  kRandUbv,
};

/// Stable lowercase name of a method ("randqb_ei", ...); never null.
const char* to_string(Method m);
/// Parse a method name as printed by to_string() (plus "auto").
/// @throws std::invalid_argument on an unknown name.
Method method_from_string(const std::string& s);

/// Options shared by all methods. Fields irrelevant to the selected method
/// are ignored (e.g. `power` by the LU variants, `colamd` by RandQB_EI).
struct ApproxOptions {
  Method method = Method::kAuto;
  double tau = 1e-3;         ///< fixed-precision tolerance on ||A - H W||_F
  Index block_size = 32;     ///< panel/block size k
  int power = 1;             ///< power iterations (RandQB_EI only)
  std::uint64_t seed = 0x5eed;  ///< sketch RNG seed (randomized methods)
  Index max_rank = -1;       ///< rank budget; -1 means min(m, n)
  ColamdMode colamd = ColamdMode::kFirst;  ///< deterministic methods only
};

/// Uniform handle over any of the method-specific results.
///
/// Value-semantic: owns the factors of whichever method ran (a variant of
/// the method-specific result structs); copying copies the factors. The
/// `as_*()` accessors return pointers *into this object* — they are valid
/// only while the LowRankApprox is alive and must not be freed.
///
/// Thread-safety: all methods are const and safe to call concurrently after
/// construction; construction itself (via approximate()) uses the global
/// ThreadPool for the heavy kernels but returns a fully materialized,
/// thread-independent value.
class LowRankApprox {
 public:
  Method method() const { return method_; }
  Status status() const;
  Index rank() const;
  Index iterations() const;
  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  /// Error indicator at exit, absolute and relative to ||A||_F.
  double indicator() const;
  double indicator_rel() const;
  /// ||A||_F as the run measured it.
  double anorm_f() const;
  /// Dense exact ||A - H W||_F against the input `a` (verification only:
  /// it densifies the residual).
  double exact_error(const CscMatrix& a) const;
  /// Stored values in the factors (memory footprint proxy).
  Index factor_values() const;
  /// Per-iteration convergence telemetry, one sample per iteration. Uniform
  /// across all methods.
  const obs::TelemetrySeries& telemetry() const;

  /// y = (H W) x — apply the approximation to a vector.
  /// @param x  length cols(), caller-owned.  @param y  length rows(),
  /// overwritten.  @pre x != y.
  void apply(const double* x, double* y) const;
  /// y = (H W)^T x.
  /// @param x  length rows().  @param y  length cols(), overwritten.
  /// @pre x != y.
  void apply_transpose(const double* x, double* y) const;

  /// Densified factors (H: m x K, W: K x n). For the LU methods this folds
  /// the permutations back so that H W ~= A (not P_r A P_c).
  Matrix h_dense() const;
  Matrix w_dense() const;

  /// Access to the method-specific result. Returns null when a different
  /// method ran (as_lu() serves both LU_CRTP and ILUT_CRTP). The pointee is
  /// owned by this object; it is invalidated by destruction or assignment.
  const RandQbResult* as_randqb() const;
  const LuCrtpResult* as_lu() const;
  const RandUbvResult* as_ubv() const;

 private:
  friend LowRankApprox approximate(const CscMatrix&, const ApproxOptions&);
  friend SimRun<LowRankApprox> approximate(const CscMatrix&,
                                           const ApproxOptions&, int,
                                           const SimOptions&);
  Method method_ = Method::kRandQbEi;
  Index rows_ = 0, cols_ = 0;
  std::variant<RandQbResult, LuCrtpResult, RandUbvResult> result_;
};

/// Resolve Method::kAuto against the matrix (identity for explicit methods).
Method choose_method(const CscMatrix& a, const ApproxOptions& opts);

/// Auto resolution for the simulated-distributed engines. The paper's
/// parallel story (Sections V-VI) inverts the sequential trade-off: the
/// deterministic factorizations communicate less per unit of accuracy and
/// win at coarse-to-moderate tolerances, while RandQB_EI takes over at
/// tight tolerances where the CRTP accuracy stalls.
Method choose_method_dist(const CscMatrix& a, const ApproxOptions& opts);

/// Run the selected fixed-precision method on `a`.
///
/// @param a     Input matrix; read-only, not retained after the call.
/// @param opts  See ApproxOptions; kAuto picks the method via choose_method().
/// @return A self-contained LowRankApprox with status(), factors, and
///         telemetry; check status() == Status::kConverged before trusting
///         indicator_rel() <= tau.
/// @note Runs the heavy kernels on the global ThreadPool (configure with
///       --threads / LRA_NUM_THREADS); the result is bitwise identical at
///       any worker count.
LowRankApprox approximate(const CscMatrix& a, const ApproxOptions& opts = {});

/// The same run on `nranks` simulated ranks under `sim` (par/simcomm.hpp,
/// SimRun): the same options mapping, with kAuto resolved by
/// choose_method_dist().
SimRun<LowRankApprox> approximate(const CscMatrix& a, const ApproxOptions& opts,
                                  int nranks, const SimOptions& sim = {});

}  // namespace lra
