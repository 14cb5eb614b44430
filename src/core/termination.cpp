#include "core/termination.hpp"

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

}  // namespace lra
