// Config shrinking and repro-file round trips (ctest -L harness). The
// shrinker is exercised with synthetic predicates (pure functions of the
// config) so minimality and determinism can be asserted exactly, without
// solver runtime in the loop.

#include <gtest/gtest.h>

#include <string>

#include "sim/repro.hpp"
#include "sim/shrink.hpp"

namespace lra::sim {
namespace {

ReproConfig complex_config() {
  ReproConfig c;
  c.matrix = "M3";
  c.scale = 0.8;
  c.matrix_seed = 77;
  c.method = Method::kRandQbEi;
  c.tau = 1e-3;
  c.block_size = 16;
  c.power = 2;
  c.solver_seed = 0xabcd;
  c.nranks = 8;
  c.faults = "seed=9;delay=0.4:8;dup=0.2;flip=0.1;straggle=0,3:4";
  return c;
}

TEST(Shrink, FindsMinimalConfigForSyntheticFailure) {
  // "Failure" requires >= 2 ranks and a flip clause: everything else must
  // shrink away.
  const auto fails = [](const ReproConfig& c) {
    return c.nranks >= 2 && c.fault_plan().flip_prob > 0.0;
  };
  const ReproConfig start = complex_config();
  ASSERT_TRUE(fails(start));
  const ShrinkResult res = shrink_config(start, fails, /*max_attempts=*/200);
  EXPECT_TRUE(fails(res.config));
  EXPECT_GT(res.accepted, 0);
  EXPECT_GE(res.attempts, res.accepted);
  // Minimal along every move axis the predicate does not constrain.
  EXPECT_EQ(res.config.nranks, 2);      // halving below 2 breaks the repro
  EXPECT_EQ(res.config.block_size, 1);
  EXPECT_EQ(res.config.matrix_seed, 1u);
  EXPECT_EQ(res.config.solver_seed, 1u);
  EXPECT_EQ(res.config.power, 0);
  EXPECT_EQ(res.config.cost.alpha, 0.0);
  EXPECT_EQ(res.config.cost.beta, 0.0);
  const FaultPlan plan = res.config.fault_plan();
  EXPECT_GT(plan.flip_prob, 0.0);
  EXPECT_EQ(plan.dup_prob, 0.0);       // benign clauses dropped
  EXPECT_EQ(plan.delay_prob, 0.0);
  EXPECT_TRUE(plan.straggler_ranks.empty());
  EXPECT_EQ(plan.seed, 1u);
}

TEST(Shrink, IsDeterministic) {
  const auto fails = [](const ReproConfig& c) {
    return c.nranks >= 2 && c.fault_plan().flip_prob > 0.0;
  };
  const ShrinkResult a = shrink_config(complex_config(), fails, 200);
  const ShrinkResult b = shrink_config(complex_config(), fails, 200);
  EXPECT_EQ(to_json(a.config), to_json(b.config));
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.accepted, b.accepted);
}

TEST(Shrink, AlwaysFailingPredicateReachesTheFloor) {
  const auto fails = [](const ReproConfig&) { return true; };
  const ShrinkResult res = shrink_config(complex_config(), fails, 500);
  EXPECT_EQ(res.config.nranks, 1);
  EXPECT_EQ(res.config.block_size, 1);
  EXPECT_TRUE(res.config.faults.empty());  // every clause dropped
  EXPECT_LT(res.config.scale, 0.2);        // halved to the preset floor
}

TEST(Shrink, PassingConfigReturnsUnchanged) {
  const auto fails = [](const ReproConfig&) { return false; };
  const ReproConfig start = complex_config();
  const ShrinkResult res = shrink_config(start, fails, 100);
  EXPECT_EQ(to_json(res.config), to_json(start));
  EXPECT_EQ(res.accepted, 0);
}

TEST(Shrink, RespectsAttemptBudget) {
  const auto fails = [](const ReproConfig&) { return true; };
  const ShrinkResult res = shrink_config(complex_config(), fails, 3);
  EXPECT_LE(res.attempts, 3);
}

TEST(ReproJson, RoundTripsEveryField) {
  const ReproConfig c = complex_config();
  const ReproConfig d = repro_from_json(to_json(c));
  EXPECT_EQ(to_json(d), to_json(c));
  EXPECT_EQ(d.matrix, c.matrix);
  EXPECT_EQ(d.method, c.method);
  EXPECT_EQ(d.nranks, c.nranks);
  EXPECT_EQ(d.faults, c.faults);
  EXPECT_DOUBLE_EQ(d.tau, c.tau);
  EXPECT_DOUBLE_EQ(d.scale, c.scale);
}

TEST(ReproJson, MissingKeysKeepDefaults) {
  const ReproConfig c = repro_from_json("{\"method\": \"lu_crtp\"}");
  EXPECT_EQ(c.method, Method::kLuCrtp);
  EXPECT_EQ(c.matrix, "M1");
  EXPECT_EQ(c.nranks, 4);
  EXPECT_TRUE(c.faults.empty());
}

TEST(ReproJson, RejectsMalformedInput) {
  EXPECT_THROW(repro_from_json(""), std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"bogus\": 1}"), std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"method\": \"auto\"}"),
               std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"nranks\": 0}"), std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"scale\": -1}"), std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"tau\": 0.01} trailing"),
               std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"tau\": 0.01, \"tau\": 0.02}"),
               std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"faults\": \"bogus=1\"}"),
               std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"matrix\": \"a\\nb\"}"),
               std::invalid_argument);
}

TEST(ReproJson, SeedsRoundTripAndIntegerKeysTakeIntegers) {
  ReproConfig c;
  c.solver_seed = ~0ull;  // written as the signed long long -1
  c.matrix_seed = 1ull << 63;
  const ReproConfig d = repro_from_json(to_json(c));
  EXPECT_EQ(d.solver_seed, c.solver_seed);
  EXPECT_EQ(d.matrix_seed, c.matrix_seed);
  EXPECT_EQ(repro_from_json("{\"solver_seed\": 18446744073709551615}")
                .solver_seed,
            ~0ull);
  EXPECT_THROW(repro_from_json("{\"block_size\": 8.0}"),
               std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"power\": 1e0}"), std::invalid_argument);
  // 2^32 + 4 would wrap to 4 through a cast to int.
  EXPECT_THROW(repro_from_json("{\"nranks\": 4294967300}"),
               std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"matrix_seed\": 18446744073709551616}"),
               std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"matrix\": [\"M1\"]}"),
               std::invalid_argument);
  EXPECT_THROW(repro_from_json("{\"m\": " + std::string(1 << 20, '[')),
               std::invalid_argument);
}

TEST(ReproJson, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "repro_roundtrip.json";
  const ReproConfig c = complex_config();
  save_repro_file(path, c);
  const ReproConfig d = load_repro_file(path);
  EXPECT_EQ(to_json(d), to_json(c));
  EXPECT_THROW(load_repro_file(path + ".does-not-exist"), std::runtime_error);
}

}  // namespace
}  // namespace lra::sim
