// Strategy contract of the round-based engines.  Every named strategy runs
// in the per-client ClientLevelSimulator through core::make_strategy, so the
// *delivered* attack intensity it simulates must follow the strategy's law.
// The count-based ShuffleSimulator models always-on bots only; both engines
// must saturate on those, and the cost-aware controller must decline
// unprofitable rounds identically in both.
#include <gtest/gtest.h>

#include <string>

#include "core/shuffle_controller.h"
#include "sim/client_sim.h"
#include "sim/shuffle_sim.h"
#include "sim/strategy.h"

namespace shuffledef::sim {
namespace {

// Conditional per-round activity ratio: of the bots present in the shuffling
// pool, what fraction attacked?  Declined rounds are excluded.
double client_activity_ratio(const ClientSimResult& result) {
  double active = 0.0;
  double bots = 0.0;
  for (const auto& r : result.rounds) {
    if (r.shuffle_declined || r.pool_bots <= 0) continue;
    active += static_cast<double>(r.active_attackers);
    bots += static_cast<double>(r.pool_bots);
  }
  return bots > 0.0 ? active / bots : 0.0;
}

ClientSimConfig client_config(const std::string& strategy) {
  ClientSimConfig config;
  config.benign = 2000;
  config.bots = 200;
  config.rounds = 80;
  config.seed = 7;
  config.threads = 1;
  config.strategy.strategy = strategy;
  config.controller.replicas = 10;
  return config;
}

ShuffleSimConfig shuffle_config() {
  ShuffleSimConfig config;
  config.benign = {.initial = 2000, .rate = 0.0, .total_cap = 2000};
  config.bots = {.initial = 200, .rate = 0.0, .total_cap = 200};
  config.controller.replicas = 10;
  config.target_fraction = 1.0;
  config.max_rounds = 80;
  config.seed = 7;
  return config;
}

TEST(CrossSimulatorParity, OnOffIntensityMatchesTheProbabilityInBothEngines) {
  auto client = client_config("on-off");
  client.strategy.options.on_probability = 0.3;

  const auto client_result = ClientLevelSimulator(client).run();

  // Every present on-off bot flips an independent Bernoulli(0.3) coin per
  // round, regardless of pool dynamics — so the conditional activity ratio
  // estimates 0.3.
  EXPECT_NEAR(client_activity_ratio(client_result), 0.3, 0.04);
}

TEST(CrossSimulatorParity, CouponCollectorIntensityAgreesAcrossEngines) {
  auto client = client_config("coupon-collector");
  client.strategy.options.probes_per_round = 2;

  const auto client_result = ClientLevelSimulator(client).run();

  // Scanning bots spend rediscovery time dark, so the delivered intensity
  // sits strictly inside (0, 1).
  const double rc = client_activity_ratio(client_result);
  EXPECT_GT(rc, 0.05);
  EXPECT_LT(rc, 1.0);
}

TEST(CrossSimulatorParity, AlwaysOnSaturatesBothEngines) {
  const auto client_result =
      ClientLevelSimulator(client_config("always-on")).run();
  const auto shuffle_result = ShuffleSimulator(shuffle_config()).run();
  EXPECT_DOUBLE_EQ(client_activity_ratio(client_result), 1.0);
  // Every always-on bot attacks every round, so every bucket that holds a
  // bot is attacked and no bot ever leaves the shuffling pool.
  for (const auto& r : client_result.rounds) EXPECT_EQ(r.pool_bots, 200);
  ASSERT_FALSE(shuffle_result.rounds.empty());
  for (const auto& r : shuffle_result.rounds) EXPECT_EQ(r.pool_bots, 200);
}

// ---------------------------------------------------------------------------
// Cost-aware declines surfaced by the engines.
// ---------------------------------------------------------------------------

TEST(CostAwareDecline, ShuffleSimRecordsDeclinedRoundsAndSavesNothing) {
  auto config = shuffle_config();
  config.benign = {.initial = 500, .rate = 0.0, .total_cap = 500};
  config.bots = {.initial = 20, .rate = 0.0, .total_cap = 20};
  config.controller.replicas = 5;
  config.controller.migration_cost_weight = 1e9;
  config.controller.min_expected_net_save = 1.0;
  config.max_rounds = 25;
  config.seed = 3;

  const auto result = ShuffleSimulator(config).run();
  ASSERT_EQ(result.rounds.size(), 25u);
  for (const auto& r : result.rounds) {
    EXPECT_TRUE(r.declined) << "round " << r.round;
    EXPECT_EQ(r.saved, 0);
    EXPECT_EQ(r.cumulative_saved, 0);
  }
  EXPECT_EQ(result.saved_total, 0);
  EXPECT_FALSE(result.reached_target);
  EXPECT_FALSE(result.shuffles_to_fraction(0.8).has_value());
  EXPECT_EQ(result.metrics.counter(std::string(kMetricSimRoundsDeclined)), 25u);
  EXPECT_EQ(result.metrics.counter(std::string(kMetricSimRoundsExecuted)), 0u);
  EXPECT_EQ(result.metrics.counter(
                std::string(core::kMetricControllerShufflesDeclined)),
            25u);
}

TEST(CostAwareDecline, ClientSimRecordsDeclinedRoundsAndSavesNothing) {
  ClientSimConfig config;
  config.benign = 200;
  config.bots = 10;
  config.rounds = 12;
  config.seed = 5;
  config.threads = 1;
  config.strategy.strategy = "on-off";
  config.strategy.options.on_probability = 0.5;
  config.controller.replicas = 4;
  config.controller.migration_cost_weight = 1e9;
  config.controller.min_expected_net_save = 1.0;

  const auto result = ClientLevelSimulator(config).run();
  ASSERT_EQ(result.rounds.size(), 12u);
  for (const auto& r : result.rounds) {
    EXPECT_TRUE(r.shuffle_declined) << "round " << r.round;
    EXPECT_EQ(r.benign_safe, 0);
    EXPECT_EQ(r.saved_clients, 0);
  }
  EXPECT_DOUBLE_EQ(result.final_safe_fraction(), 0.0);
  EXPECT_EQ(result.metrics.counter(
                std::string(core::kMetricControllerShufflesDeclined)),
            12u);
}

TEST(CostAwareDecline, MinZeroForcesExecutionInBothEngines) {
  auto shuffle = shuffle_config();
  shuffle.controller.migration_cost_weight = 1e9;
  shuffle.controller.min_expected_net_save = 0.0;  // forced
  shuffle.max_rounds = 20;
  const auto shuffle_result = ShuffleSimulator(shuffle).run();
  EXPECT_GT(shuffle_result.saved_total, 0);
  for (const auto& r : shuffle_result.rounds) EXPECT_FALSE(r.declined);
  EXPECT_EQ(
      shuffle_result.metrics.counter(std::string(kMetricSimRoundsDeclined)),
      0u);

  auto client = client_config("on-off");
  client.strategy.options.on_probability = 0.5;
  client.rounds = 20;
  client.controller.migration_cost_weight = 1e9;
  client.controller.min_expected_net_save = 0.0;
  const auto client_result = ClientLevelSimulator(client).run();
  for (const auto& r : client_result.rounds) EXPECT_FALSE(r.shuffle_declined);
  EXPECT_EQ(client_result.metrics.counter(
                std::string(core::kMetricControllerShufflesDeclined)),
            0u);
}

// ---------------------------------------------------------------------------
// Registry-name pins (the pre-registry enum names remain valid forever).
// ---------------------------------------------------------------------------

TEST(StrategyRegistryNames, LegacyNamesStayRegistered) {
  // These five names predate the registry (they were a closed enum); they
  // are public API and must never disappear or change spelling.
  constexpr const char* kLegacyNames[] = {
      "always-on", "on-off", "quit-reenter", "naive", "synchronized-waves",
  };
  for (const char* name : kLegacyNames) {
    StrategyParams params;
    params.strategy = name;
    EXPECT_TRUE(params.violations().empty()) << name;
    EXPECT_EQ(params.make()->name(), name);
  }
}

TEST(StrategyParamsValidation, UnknownNameAndBadOptionsReportTogether) {
  StrategyParams params;
  params.strategy = "bogus";
  params.options.on_probability = 2.0;
  const auto violations = params.violations("client.strategy.");
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_NE(violations[0].find("unknown strategy 'bogus'"), std::string::npos)
      << violations[0];
  EXPECT_EQ(violations[1],
            "client.strategy.on_probability must be in [0, 1]");
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace shuffledef::sim
