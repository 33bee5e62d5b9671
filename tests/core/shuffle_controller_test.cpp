#include "core/shuffle_controller.h"

#include <gtest/gtest.h>

#include "core/provisioning.h"
#include "util/random.h"

namespace shuffledef::core {
namespace {

TEST(ControllerConfig, Validation) {
  ControllerConfig bad2;
  bad2.provisioning_headroom = 0.5;
  EXPECT_THROW(ShuffleController{bad2}, std::invalid_argument);
  ControllerConfig bad3;
  bad3.planner = "bogus";
  EXPECT_THROW(ShuffleController{bad3}, std::invalid_argument);
}

TEST(ControllerConfig, ValidateReportsAllViolationsAtOnce) {
  ControllerConfig good;
  EXPECT_TRUE(good.violations().empty());
  EXPECT_NO_THROW(good.validate());

  ControllerConfig bad;
  bad.planner = "bogus";
  bad.planner_threads = -1;
  bad.provisioning_headroom = 0.5;
  bad.estimator = "psychic";
  bad.estimate_smoothing = 0.0;
  const auto violations = bad.violations();
  EXPECT_EQ(violations.size(), 5u);

  // The constructor reports every violation in one message.
  try {
    ShuffleController controller(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5 violation(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("provisioning_headroom"), std::string::npos);
    EXPECT_NE(what.find("planner_threads"), std::string::npos);
  }
}

TEST(ShuffleController, FixedReplicaCountIsHonored) {
  ControllerConfig config;
  config.replicas = 7;
  config.use_mle = false;
  ShuffleController controller(config);
  controller.set_bot_estimate(5);
  const auto d = controller.decide(100, std::nullopt);
  EXPECT_EQ(d.replicas, 7);
  EXPECT_EQ(d.plan.replica_count(), 7u);
  EXPECT_EQ(d.plan.total_clients(), 100);
  EXPECT_EQ(d.bot_estimate, 5);
}

TEST(ShuffleController, AdaptiveProvisioningSatisfiesTheorem1) {
  ControllerConfig config;
  config.replicas = 0;  // adaptive
  config.use_mle = false;
  ShuffleController controller(config);
  controller.set_bot_estimate(500);
  const auto d = controller.decide(5000, std::nullopt);
  EXPECT_FALSE(all_replicas_likely_attacked(d.replicas, 500));
  EXPECT_EQ(d.plan.total_clients(), 5000);
}

TEST(ShuffleController, HeadroomMultipliesAdaptiveMinimum) {
  ControllerConfig base;
  base.replicas = 0;
  base.use_mle = false;
  ControllerConfig roomy = base;
  roomy.provisioning_headroom = 2.0;
  ShuffleController a(base);
  ShuffleController b(roomy);
  a.set_bot_estimate(200);
  b.set_bot_estimate(200);
  const auto da = a.decide(2000, std::nullopt);
  const auto db = b.decide(2000, std::nullopt);
  EXPECT_NEAR(static_cast<double>(db.replicas),
              2.0 * static_cast<double>(da.replicas),
              static_cast<double>(da.replicas) * 0.1 + 2.0);
}

TEST(ShuffleController, EstimateClampedToPool) {
  ControllerConfig config;
  config.replicas = 4;
  config.use_mle = false;
  ShuffleController controller(config);
  controller.set_bot_estimate(1000);
  const auto d = controller.decide(10, std::nullopt);
  EXPECT_EQ(d.bot_estimate, 10);
}

TEST(ShuffleController, MleUpdatesEstimateFromObservation) {
  ControllerConfig config;
  config.replicas = 20;
  config.use_mle = true;
  ShuffleController controller(config);
  controller.set_bot_estimate(1);  // bad seed estimate

  // Build an observation from a known ground truth of 12 bots.
  const AssignmentPlan plan(std::vector<Count>(20, 10));
  util::Rng rng(42);
  const auto placed = rng.multivariate_hypergeometric(plan.counts(), 12);
  std::vector<bool> attacked;
  for (const auto b : placed) attacked.push_back(b > 0);
  const ShuffleObservation obs{plan, attacked};

  const auto d = controller.decide(200, obs);
  EXPECT_GT(d.bot_estimate, 2);    // moved off the bad seed
  EXPECT_LE(d.bot_estimate, 200);
  EXPECT_EQ(controller.bot_estimate(), d.bot_estimate);
}

TEST(ShuffleController, NegativePoolRejected) {
  ControllerConfig config;
  config.replicas = 2;
  ShuffleController controller(config);
  EXPECT_THROW(controller.decide(-1, std::nullopt), std::invalid_argument);
}

TEST(ShuffleController, RepeatedDecisionsHitThePlannerCache) {
  // The same (N, M, P) decided twice: the second plan comes from the
  // controller's own cache and equals the first.
  ControllerConfig config;
  config.planner = "algorithm1";
  config.replicas = 4;
  config.use_mle = false;
  ShuffleController controller(config);
  controller.set_bot_estimate(5);
  const auto first = controller.decide(100, std::nullopt);
  const auto second = controller.decide(100, std::nullopt);
  EXPECT_EQ(first.plan.counts(), second.plan.counts());
  ASSERT_NE(controller.planner_cache(), nullptr);
  EXPECT_EQ(controller.planner_cache()->hits(), 1u);
}

TEST(ShuffleController, ZeroPoolYieldsEmptyPlan) {
  ControllerConfig config;
  config.replicas = 3;
  config.use_mle = false;
  ShuffleController controller(config);
  const auto d = controller.decide(0, std::nullopt);
  EXPECT_EQ(d.plan.total_clients(), 0);
  EXPECT_EQ(d.plan.replica_count(), 3u);
}

}  // namespace
}  // namespace shuffledef::core
