#pragma once
// Replayable harness configurations ("repro files").
//
// A ReproConfig pins down one differential-oracle run completely: the
// synthetic matrix recipe (gen/presets label, scale, seed), the solver and
// its options, the simulated-runtime shape (rank count, cost model) and the
// fault-plan spec. Configs serialize to a flat JSON object so a failing
// property-test case can be dumped to disk and re-executed with a single
//   lra_cli repro --file=FILE    (equivalently: lra_cli --repro=FILE)
// invocation. The JSON schema is documented in EXPERIMENTS.md (HARNESS).
//
// Files are read through obs/jsonin and held to exactly what to_json emits:
// one flat object, string and number values only (integer keys take integer
// literals), no nesting, no escapes, no duplicate keys. Anything else throws
// std::invalid_argument rather than guessing.

#include <string>

#include "core/driver.hpp"
#include "par/simcomm.hpp"
#include "sim/fault/fault.hpp"
#include "sparse/csc.hpp"

namespace lra::sim {

struct ReproConfig {
  // Matrix recipe (gen/presets).
  std::string matrix = "M1";      // Table I label "M1".."M6"
  double scale = 0.25;            // preset dimension multiplier
  std::uint64_t matrix_seed = 1;  // generator seed

  // Solver.
  Method method = Method::kLuCrtp;  // never kAuto in a repro file
  double tau = 1e-2;
  Index block_size = 8;
  int power = 1;                     // RandQB_EI only
  std::uint64_t solver_seed = 0x5eed;  // randomized sketches
  Index max_rank = -1;

  // Simulated runtime.
  int nranks = 4;
  CostModel cost{};
  std::string faults;  // sim/fault spec grammar; "" = no plan

  /// Parsed fault plan (disabled plan for an empty spec).
  FaultPlan fault_plan() const {
    return faults.empty() ? FaultPlan{} : parse_fault_spec(faults);
  }
  /// SimOptions for the distributed engines, with the plan installed.
  SimOptions sim_options(bool collect_trace = false) const {
    return SimOptions{cost, collect_trace, fault_plan()};
  }
};

/// Build the config's test matrix from its preset recipe.
CscMatrix build_matrix(const ReproConfig& c);

/// Flat single-object JSON of every field (canonical key order).
std::string to_json(const ReproConfig& c);

/// Inverse of to_json. Unknown keys are rejected; missing keys keep their
/// defaults. @throws std::invalid_argument on malformed input.
ReproConfig repro_from_json(const std::string& json);

/// File round trip. @throws std::runtime_error on I/O failure,
/// std::invalid_argument on malformed content.
ReproConfig load_repro_file(const std::string& path);
void save_repro_file(const std::string& path, const ReproConfig& c);

}  // namespace lra::sim
