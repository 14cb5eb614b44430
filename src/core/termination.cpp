#include "core/termination.hpp"

#include <limits>

namespace lra {

const char* to_string(Status s) {
  switch (s) {
    case Status::kConverged:
      return "converged";
    case Status::kMaxIterations:
      return "max-iterations";
    case Status::kBreakdown:
      return "breakdown";
    case Status::kIndicatorFloor:
      return "indicator-floor";
    case Status::kCommFault:
      return "comm-fault";
    case Status::kInvalidInput:
      return "invalid-input";
  }
  return "unknown";
}

double relative_indicator(Status s, double indicator, double anorm_f) {
  if (s == Status::kInvalidInput)
    return std::numeric_limits<double>::quiet_NaN();
  return anorm_f > 0.0 ? indicator / anorm_f : 0.0;
}

}  // namespace lra
