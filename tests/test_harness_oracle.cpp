// Differential-oracle grid (ctest -L harness): every solver against a few
// Table I presets at fixed seeds, sequential vs simulated-distributed. On a
// failure the config is dumped as a repro file and the path printed, so the
// exact case replays with `lra_cli --repro=FILE`.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/oracle.hpp"
#include "sim/repro.hpp"

namespace lra::sim {
namespace {

using Case = std::tuple<Method, const char*>;

std::string dump_repro(const ReproConfig& c) {
  const std::string path = ::testing::TempDir() + "oracle_" +
                           std::string(to_string(c.method)) + "_" + c.matrix +
                           ".json";
  save_repro_file(path, c);
  return path;
}

void expect_oracle_passes(const ReproConfig& c) {
  const OracleReport rep = run_differential_oracle(c);
  if (rep.pass) return;
  const std::string path = dump_repro(c);
  ADD_FAILURE() << summarize(rep) << "\n  repro file: " << path
                << "\n  replay with: lra_cli --repro=" << path;
  for (const auto& f : rep.failures) ADD_FAILURE() << f;
}

class OracleGrid : public ::testing::TestWithParam<Case> {};

TEST_P(OracleGrid, SequentialAndDistributedAgree) {
  ReproConfig c;
  c.method = std::get<0>(GetParam());
  c.matrix = std::get<1>(GetParam());
  c.scale = 0.25;
  c.matrix_seed = 1;
  c.tau = 1e-2;
  c.block_size = 8;
  c.power = 1;
  c.solver_seed = 0x5eed;
  c.nranks = 4;
  expect_oracle_passes(c);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OracleGrid,
    ::testing::Combine(::testing::Values(Method::kRandQbEi, Method::kLuCrtp,
                                         Method::kIlutCrtp, Method::kRandUbv),
                       ::testing::Values("M1", "M2", "M4")));

TEST(OracleSingle, DupAndFlipSurfaceThroughInFlightRequests) {
  // lu_crtp's distributed panels pre-post every partner irecv of the
  // tournament reduction and park an indicator iallreduce in the shadow of
  // the pivot recording, so duplicate copies are dropped and flips detected
  // on *in-flight* SimRequests, not only on blocking receives. The oracle
  // requires the flip stage to end in Status::kCommFault (or, if the
  // decision streams injected nothing, bitwise equality with clean).
  ReproConfig c;
  c.method = Method::kLuCrtp;
  c.matrix = "M1";
  c.scale = 0.25;
  c.tau = 1e-2;
  c.block_size = 8;
  c.nranks = 4;
  c.faults = "seed=3;dup=0.6;flip=0.05";
  expect_oracle_passes(c);
}

TEST(OracleSingle, TightToleranceAndOddRankCount) {
  ReproConfig c;
  c.method = Method::kLuCrtp;
  c.matrix = "M3";
  c.scale = 0.25;
  c.tau = 1e-3;
  c.block_size = 8;
  c.nranks = 3;
  expect_oracle_passes(c);
}

TEST(OracleSingle, SingleRankDistributedMatchesSequential) {
  ReproConfig c;
  c.method = Method::kRandUbv;
  c.matrix = "M1";
  c.scale = 0.25;
  c.nranks = 1;
  expect_oracle_passes(c);
}

}  // namespace
}  // namespace lra::sim
