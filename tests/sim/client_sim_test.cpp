#include "sim/client_sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "obs/registry.h"

namespace shuffledef::sim {
namespace {

ClientSimConfig base_config() {
  ClientSimConfig cfg;
  cfg.benign = 400;
  cfg.bots = 20;
  cfg.strategy.strategy = "always-on";
  cfg.controller.planner = "greedy";
  cfg.controller.replicas = 40;
  cfg.controller.use_mle = false;  // oracle pool-bot count
  cfg.rounds = 60;
  cfg.seed = 7;
  return cfg;
}

TEST(ClientSim, ConfigValidation) {
  auto cfg = base_config();
  cfg.rounds = 0;
  EXPECT_THROW(ClientLevelSimulator{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.benign = -1;
  EXPECT_THROW(ClientLevelSimulator{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.threads = -2;
  EXPECT_THROW(ClientLevelSimulator{cfg}, std::invalid_argument);
  // Pool tokens and group offsets are 32-bit.
  cfg = base_config();
  cfg.benign = std::numeric_limits<std::int32_t>::max();
  cfg.bots = 1;
  EXPECT_THROW(ClientLevelSimulator{cfg}, std::invalid_argument);
  const auto violations = cfg.violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0],
            "benign + bots must be <= 2147483647 (32-bit client tokens)");
  cfg.benign -= 1;
  EXPECT_TRUE(cfg.violations().empty());
}

TEST(ClientSim, ViolationsCollectsEverythingWithPrefixes) {
  auto cfg = base_config();
  cfg.rounds = 0;
  cfg.threads = -1;
  cfg.strategy.options.on_probability = 1.5;
  const auto violations = cfg.violations("client.");
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_EQ(violations[0], "client.rounds must be > 0");
  EXPECT_EQ(violations[1],
            "client.threads must be >= 0 (1 = serial, 0 = shared pool)");
  EXPECT_EQ(violations[2], "client.strategy.on_probability must be in [0, 1]");
  EXPECT_TRUE(base_config().violations().empty());
}

TEST(ClientSim, AlwaysOnBotsGetIsolated) {
  const auto result = ClientLevelSimulator(base_config()).run();
  EXPECT_GT(result.final_safe_fraction(), 0.9);
  // Once saved, benign clients stay safe against always-on bots: the safe
  // count is non-decreasing.
  Count prev = 0;
  for (const auto& r : result.rounds) {
    EXPECT_GE(r.benign_safe, prev);
    prev = r.benign_safe;
    EXPECT_EQ(r.repolluted_benign, 0);
  }
}

TEST(ClientSim, MetricsAreInternallyConsistent) {
  const auto result = ClientLevelSimulator(base_config()).run();
  for (const auto& r : result.rounds) {
    EXPECT_LE(r.benign_safe, 400);
    EXPECT_LE(r.pool_bots, 20);
    EXPECT_LE(r.active_attackers, 20);
    EXPECT_GE(r.pool_clients, r.pool_bots);
  }
  EXPECT_EQ(result.benign_total, 400);
}

TEST(ClientSim, NaiveBotsAreEvadedImmediately) {
  auto cfg = base_config();
  cfg.strategy.strategy = "naive";
  cfg.rounds = 3;
  const auto result = ClientLevelSimulator(cfg).run();
  // Naive bots cannot follow the first shuffle: every benign client is safe
  // almost immediately and no replica is ever attacked.
  EXPECT_EQ(result.rounds.back().attacked_replicas, 0);
  EXPECT_GT(result.final_safe_fraction(), 0.99);
}

TEST(ClientSim, OnOffBotsRepolluteButOnlyReduceIntensity) {
  auto cfg = base_config();
  cfg.strategy.strategy = "on-off";
  cfg.strategy.options.on_probability = 0.4;
  cfg.rounds = 80;
  const auto result = ClientLevelSimulator(cfg).run();

  // Dormant bots do sneak onto clean replicas and later re-pollute them.
  Count repolluted = 0;
  for (const auto& r : result.rounds) repolluted += r.repolluted_benign;
  EXPECT_GT(repolluted, 0);

  // The paper's claim: on-off attacking only lowers the delivered attack
  // intensity versus always-on.
  auto always_cfg = base_config();
  always_cfg.rounds = 80;
  const auto always = ClientLevelSimulator(always_cfg).run();
  EXPECT_LT(result.mean_attack_intensity(), always.mean_attack_intensity());
}

TEST(ClientSim, QuitReenterBotsDoNotDefeatTheDefense) {
  auto cfg = base_config();
  cfg.strategy.strategy = "quit-reenter";
  cfg.strategy.options.quit_probability = 0.3;
  cfg.strategy.options.reenter_delay = 2;
  cfg.strategy.options.new_ip_probability = 0.5;
  cfg.rounds = 80;
  const auto result = ClientLevelSimulator(cfg).run();
  // Churning through the load balancer buys the bots nothing durable: most
  // benign clients still end up safe.
  EXPECT_GT(result.final_safe_fraction(), 0.8);
}

TEST(ClientSim, DeterministicInSeed) {
  const auto a = ClientLevelSimulator(base_config()).run();
  const auto b = ClientLevelSimulator(base_config()).run();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].benign_safe, b.rounds[i].benign_safe);
    EXPECT_EQ(a.rounds[i].active_attackers, b.rounds[i].active_attackers);
  }
}

TEST(ClientSim, MleControllerAlsoWorks) {
  auto cfg = base_config();
  cfg.controller.use_mle = true;
  const auto result = ClientLevelSimulator(cfg).run();
  EXPECT_GT(result.final_safe_fraction(), 0.8);
}

TEST(ClientSim, ZeroBotsEverythingSafeInOneRound) {
  auto cfg = base_config();
  cfg.bots = 0;
  cfg.rounds = 2;
  const auto result = ClientLevelSimulator(cfg).run();
  EXPECT_DOUBLE_EQ(result.final_safe_fraction(), 1.0);
}

TEST(ClientSim, MeanAttackIntensitySkipsEmptyPoolRounds) {
  // With rarely-active on-off bots the pool intermittently empties: every
  // bot sits dormant on some clean replica, so nobody is being shuffled and
  // nobody attacks.  Those rounds have no attack surface and must not
  // dilute the delivered-intensity metric.  (An active bot can never be
  // seen with an empty pool — waking re-pollutes its replica back into the
  // pool before the round's metrics are taken.)
  auto cfg = base_config();
  cfg.bots = 8;
  cfg.strategy.strategy = "on-off";
  cfg.strategy.options.on_probability = 0.15;
  cfg.rounds = 80;
  const auto result = ClientLevelSimulator(cfg).run();

  Count empty_rounds = 0;
  double total_active = 0.0;
  for (const auto& r : result.rounds) {
    if (r.pool_clients == 0) {
      // No pool => no one to attack: the engine reports zero attackers.
      EXPECT_EQ(r.active_attackers, 0);
      ++empty_rounds;
    }
    total_active += static_cast<double>(r.active_attackers);
  }
  ASSERT_GT(empty_rounds, 0) << "scenario no longer produces an empty tail";

  const auto n = static_cast<double>(result.rounds.size());
  const double nonempty = n - static_cast<double>(empty_rounds);
  // Pin both definitions: the fixed metric averages over nonempty rounds,
  // the _all_rounds variant keeps the pre-fix semantics.
  EXPECT_DOUBLE_EQ(result.mean_attack_intensity(), total_active / nonempty);
  EXPECT_DOUBLE_EQ(result.mean_attack_intensity_all_rounds(),
                   total_active / n);
  EXPECT_GT(result.mean_attack_intensity(),
            result.mean_attack_intensity_all_rounds());
}

TEST(ClientSim, ResultCarriesClientMetricsFamily) {
  auto cfg = base_config();
  cfg.rounds = 20;
  const auto result = ClientLevelSimulator(cfg).run();
  const auto& m = result.metrics;

  EXPECT_EQ(m.counter(kMetricClientRounds), 20u);
  Count repolluted = 0;
  for (const auto& r : result.rounds) repolluted += r.repolluted_benign;
  EXPECT_EQ(m.counter(kMetricClientRepolluted),
            static_cast<std::uint64_t>(repolluted));
  // Always-on: nothing re-pollutes, so cumulative saves equal the final
  // saved population.
  EXPECT_EQ(m.counter(kMetricClientSaved),
            static_cast<std::uint64_t>(result.rounds.back().saved_clients));
  EXPECT_EQ(m.gauge(kMetricClientAwayBots), result.rounds.back().away_bots);
  const auto* pool_hist = m.histogram(kMetricClientPoolSize);
  ASSERT_NE(pool_hist, nullptr);
  EXPECT_EQ(pool_hist->count, 20u);

  // The run is instrumented with spans, and every round opens one under the
  // run span.
  const auto* round_span = m.span("client_sim.run/round");
  ASSERT_NE(round_span, nullptr);
  EXPECT_EQ(round_span->count, 20u);
}

TEST(ClientSim, ExternalRegistryAccumulatesAcrossRuns) {
  obs::Registry registry;
  auto cfg = base_config();
  cfg.rounds = 10;
  cfg.registry = &registry;
  (void)ClientLevelSimulator(cfg).run();
  (void)ClientLevelSimulator(cfg).run();
  EXPECT_EQ(registry.snapshot().counter(kMetricClientRounds), 20u);
}

TEST(ClientSim, AuditedRunAcceptsEveryStrategy) {
  for (const std::string& strategy : core::strategy_names()) {
    auto cfg = base_config();
    cfg.strategy.strategy = strategy;
    cfg.strategy.options.on_probability = 0.4;
    cfg.strategy.options.quit_probability = 0.3;
    cfg.strategy.options.reenter_delay = 2;
    cfg.strategy.options.new_ip_probability = 0.5;
    cfg.rounds = 30;
    cfg.audit = true;
    EXPECT_NO_THROW((void)ClientLevelSimulator(cfg).run()) << strategy;
  }
}

TEST(Strategy, SynchronizedWavesAlternateDeterministically) {
  core::StrategyOptions options;
  options.wave_period = 4;
  options.wave_duty = 0.5;
  const auto strategy = core::make_strategy("synchronized-waves", options);
  util::Rng rng(1);
  core::BotState a(rng.fork_small(1));
  core::BotState b(rng.fork_small(2));
  // Both bots share the phase (round counters align): attack on rounds
  // 0,1 of every 4, idle on 2,3 — identically.
  const core::StrategyContext ctx{};
  std::vector<bool> pattern_a, pattern_b;
  for (int r = 0; r < 12; ++r) {
    pattern_a.push_back(strategy->decide_one(ctx, a));
    pattern_b.push_back(strategy->decide_one(ctx, b));
  }
  EXPECT_EQ(pattern_a, pattern_b);
  EXPECT_EQ(pattern_a, (std::vector<bool>{true, true, false, false, true, true,
                                          false, false, true, true, false,
                                          false}));
}

TEST(Strategy, SynchronizedWavesStillLoseToTheDefense) {
  ClientSimConfig cfg;
  cfg.benign = 400;
  cfg.bots = 20;
  cfg.strategy.strategy = "synchronized-waves";
  cfg.strategy.options.wave_period = 6;
  cfg.strategy.options.wave_duty = 0.5;
  cfg.controller.planner = "greedy";
  cfg.controller.replicas = 40;
  cfg.controller.use_mle = false;
  cfg.rounds = 100;
  cfg.seed = 9;
  const auto result = ClientLevelSimulator(cfg).run();
  EXPECT_GT(result.final_safe_fraction(), 0.85);
  // The waves deliver only ~the duty cycle of an always-on attack, averaged
  // over the whole run (empty-pool lulls included — they are part of what
  // the defense buys).
  EXPECT_LT(result.mean_attack_intensity_all_rounds(), 0.7 * 20.0);
}

}  // namespace
}  // namespace shuffledef::sim
