#include <gtest/gtest.h>

#include <string>

#include "core/cost_model.h"
#include "core/shuffle_controller.h"
#include "obs/registry.h"
#include "obs/snapshot.h"

namespace shuffledef::core {
namespace {

ControllerConfig oracle_config() {
  ControllerConfig config;
  config.planner = "greedy";
  config.replicas = 5;
  config.use_mle = false;
  return config;
}

TEST(CostAwareController, CostBlindDefaultNeverPricesOrDeclines) {
  ShuffleController controller(oracle_config());
  controller.set_bot_estimate(20);
  for (int i = 0; i < 3; ++i) {
    const auto d = controller.decide(200, std::nullopt);
    EXPECT_TRUE(d.execute);
    EXPECT_EQ(d.expected_saved, 0.0);
    EXPECT_EQ(d.shuffle_cost_usd, 0.0);
    EXPECT_EQ(d.expected_net_save, 0.0);
  }
  EXPECT_EQ(controller.shuffles_declined(), 0);
}

TEST(CostAwareController, EconomicsFieldsPriceTheCandidatePlan) {
  auto config = oracle_config();
  config.migration_cost_weight = 1.0;  // cost-aware, but cheap enough to run
  ShuffleController controller(config);
  controller.set_bot_estimate(20);
  const auto d = controller.decide(200, std::nullopt);
  EXPECT_TRUE(d.execute);
  EXPECT_GT(d.expected_saved, 0.0);
  // The round's USD churn is the shared cost-model price of migrating the
  // whole pool across the decision's replica set.
  EXPECT_DOUBLE_EQ(
      d.shuffle_cost_usd,
      shuffle_round_cost_usd(CostRates{}, d.replicas, 200,
                             ShuffleController::kMigrationPageBytes));
  EXPECT_GT(d.shuffle_cost_usd, 0.0);
  EXPECT_DOUBLE_EQ(d.expected_net_save,
                   d.expected_saved - 1.0 * d.shuffle_cost_usd);
  EXPECT_EQ(controller.shuffles_declined(), 0);
}

TEST(CostAwareController, DeclinesWhenWeightedChurnExceedsExpectedSaves) {
  obs::Registry registry;
  auto config = oracle_config();
  config.migration_cost_weight = 1e9;  // any churn dwarfs the saves
  config.min_expected_net_save = 1.0;
  config.registry = &registry;
  ShuffleController controller(config);
  controller.set_bot_estimate(20);

  const auto d = controller.decide(200, std::nullopt);
  EXPECT_FALSE(d.execute);
  EXPECT_LT(d.expected_net_save, config.min_expected_net_save);
  // The declined decision still carries the candidate plan (engines that
  // want to override the economics could deploy it anyway).
  EXPECT_EQ(d.plan.total_clients(), 200);

  (void)controller.decide(200, std::nullopt);
  EXPECT_EQ(controller.shuffles_declined(), 2);
  EXPECT_EQ(registry.snapshot().counter(kMetricControllerShufflesDeclined),
            2u);
}

TEST(CostAwareController, MinZeroForcesTheShuffleEvenAtNegativeNet) {
  auto config = oracle_config();
  config.migration_cost_weight = 1e9;
  config.min_expected_net_save = 0.0;  // forced: never decline
  ShuffleController controller(config);
  controller.set_bot_estimate(20);
  const auto d = controller.decide(200, std::nullopt);
  EXPECT_TRUE(d.execute);
  EXPECT_LT(d.expected_net_save, 0.0);  // priced as a loss, executed anyway
  EXPECT_EQ(controller.shuffles_declined(), 0);
}

TEST(CostAwareController, ProfitableShuffleClearsAPositiveThreshold) {
  auto config = oracle_config();
  config.migration_cost_weight = 1e-6;
  config.min_expected_net_save = 0.5;  // well below E[S] of any decent plan
  ShuffleController controller(config);
  controller.set_bot_estimate(20);
  const auto d = controller.decide(200, std::nullopt);
  EXPECT_TRUE(d.execute);
  EXPECT_GE(d.expected_net_save, 0.5);
  EXPECT_EQ(controller.shuffles_declined(), 0);
}

TEST(CostAwareController, CostFieldViolationsAreAllReportedAtOnce) {
  ControllerConfig bad;
  bad.migration_cost_weight = -1.0;
  bad.min_expected_net_save = -2.0;
  const auto violations = bad.violations("controller.");
  EXPECT_EQ(violations.size(), 2u);
  for (const auto& v : violations) {
    EXPECT_EQ(v.rfind("controller.", 0), 0u) << v;
  }
  EXPECT_THROW(ShuffleController{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace shuffledef::core
