#pragma once
// Shared fixed-precision termination machinery (Section II of the paper):
// every method stops when its error indicator drops below tau * ||A||_F,
// which makes the methods directly comparable (the paper's uniform
// termination criterion).

namespace lra {

/// Frobenius tolerance below which the RandQB_EI indicator (4) is unreliable
/// in double precision (Theorem 3 of Yu/Gu/Li, quoted in the paper).
inline constexpr double kRandQbIndicatorFloor = 2.1e-7;

/// Outcome shared by all fixed-precision drivers.
enum class Status {
  kConverged,        // indicator < tau * ||A||_F
  kMaxIterations,    // ran out of iterations / rank budget
  kBreakdown,        // numerical breakdown (singular pivot block)
  kIndicatorFloor,   // tau below the double-precision indicator floor
  kCommFault,        // distributed run aborted on a detected payload
                     // corruption (sim/fault injection, CommFaultError)
  kInvalidInput,     // ||A||_F is not finite (NaN/Inf entries, or overflow);
                     // rank 0, no iterations
};

const char* to_string(Status s);

/// The exit indicator relative to ||A||_F: NaN for kInvalidInput (the norm
/// is not finite), 0 for a zero matrix.
double relative_indicator(Status s, double indicator, double anorm_f);

}  // namespace lra
