#include "core/attacker_strategy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/random.h"

namespace shuffledef::core {
namespace {

// ---------------------------------------------------------------------------
// Frozen legacy oracle.
//
// A verbatim copy of the retired sim::BotBehavior state machine (the closed
// pre-registry enum dispatch), kept here as an in-test differential oracle:
// the five legacy strategies of the open registry must reproduce its draw
// order and state transitions bit for bit.  Do not "fix" or modernise this
// copy — its job is to stay exactly what shipped.
// ---------------------------------------------------------------------------

enum class LegacyStrategy : std::uint8_t {
  kAlwaysOn,
  kOnOff,
  kQuitReenter,
  kNaive,
  kSynchronizedWaves,
};

class LegacyBotBehavior {
 public:
  explicit LegacyBotBehavior(util::SmallRng rng) : rng_(rng) {}

  bool step_attacks(LegacyStrategy strategy, const StrategyOptions& params) {
    if (away_rounds_ > 0) {
      --away_rounds_;
      return false;
    }
    switch (strategy) {
      case LegacyStrategy::kAlwaysOn:
        return true;
      case LegacyStrategy::kOnOff:
        return rng_.bernoulli(params.on_probability);
      case LegacyStrategy::kQuitReenter:
        return true;  // attacks while present; exit decisions on shuffles
      case LegacyStrategy::kNaive:
        return false;  // cannot follow moving replicas at all
      case LegacyStrategy::kSynchronizedWaves: {
        const Count period = std::max<Count>(1, params.wave_period);
        const auto on_rounds =
            static_cast<Count>(params.wave_duty * static_cast<double>(period));
        const bool on =
            (round_counter_ % period) < std::max<Count>(1, on_rounds);
        ++round_counter_;
        return on;
      }
    }
    return false;
  }

  void on_shuffled(LegacyStrategy strategy, const StrategyOptions& params) {
    if (strategy != LegacyStrategy::kQuitReenter) return;
    if (away_rounds_ > 0) return;
    if (rng_.bernoulli(params.quit_probability)) {
      away_rounds_ = std::max<Count>(1, params.reenter_delay);
      pending_new_ip_ = rng_.bernoulli(params.new_ip_probability);
    }
  }

  [[nodiscard]] bool away() const { return away_rounds_ > 0; }
  [[nodiscard]] bool reenters_with_new_ip() const { return pending_new_ip_; }

 private:
  util::SmallRng rng_;
  Count away_rounds_ = 0;
  Count round_counter_ = 0;
  bool pending_new_ip_ = false;
};

struct LegacyCase {
  LegacyStrategy legacy;
  const char* name;
};

constexpr LegacyCase kLegacyCases[] = {
    {LegacyStrategy::kAlwaysOn, "always-on"},
    {LegacyStrategy::kOnOff, "on-off"},
    {LegacyStrategy::kQuitReenter, "quit-reenter"},
    {LegacyStrategy::kNaive, "naive"},
    {LegacyStrategy::kSynchronizedWaves, "synchronized-waves"},
};

TEST(AttackerStrategyOracle, LegacyBehavioursAreBitIdenticalToTheEnumEngine) {
  StrategyOptions options;
  options.on_probability = 0.37;
  options.quit_probability = 0.45;
  options.reenter_delay = 3;
  options.new_ip_probability = 0.6;
  options.wave_period = 5;
  options.wave_duty = 0.4;

  const util::Rng root(20260808);
  for (const auto& cs : kLegacyCases) {
    SCOPED_TRACE(cs.name);
    const auto strategy = make_strategy(cs.name, options);
    for (std::uint64_t b = 0; b < 64; ++b) {
      LegacyBotBehavior legacy(root.fork_small(b));
      BotState bot(root.fork_small(b));
      for (Count round = 1; round <= 300; ++round) {
        const StrategyContext ctx{round, 10};
        const bool expect = legacy.step_attacks(cs.legacy, options);
        const bool got = strategy->decide_one(ctx, bot);
        ASSERT_EQ(got, expect) << "bot " << b << " round " << round;
        if (round % 7 == 0) {
          // The legacy engines derived departure from away() after the call;
          // the registry returns the away length directly.  Both must agree
          // on the observable state and on whether the bot departs.
          legacy.on_shuffled(cs.legacy, options);
          const Count away = strategy->on_shuffled_one(ctx, bot);
          ASSERT_EQ(away >= 0, legacy.away())
              << "bot " << b << " round " << round;
          ASSERT_EQ(bot.away(), legacy.away());
          ASSERT_EQ(bot.pending_new_ip(), legacy.reenters_with_new_ip());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Registry / factory surface.
// ---------------------------------------------------------------------------

TEST(AttackerStrategyRegistry, EveryNameConstructsAndRoundTrips) {
  const auto& names = strategy_names();
  ASSERT_EQ(names.size(), 7u);
  for (const auto& name : names) {
    const auto strategy = make_strategy(name);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), name);
  }
}

TEST(AttackerStrategyRegistry, UnknownNameThrowsWithTheKnownList) {
  try {
    (void)make_strategy("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown strategy 'bogus'"), std::string::npos) << what;
    EXPECT_NE(what.find("coupon-collector"), std::string::npos) << what;
  }
}

TEST(AttackerStrategyRegistry, CapabilityFlagsMatchTheCatalogue) {
  struct Expected {
    const char* name;
    bool always_active, reacts, departs, follows;
  };
  constexpr Expected kExpected[] = {
      {"always-on", true, false, false, true},
      {"on-off", false, false, false, true},
      {"quit-reenter", false, true, true, true},
      {"naive", false, false, false, false},
      {"synchronized-waves", false, false, false, true},
      {"coupon-collector", false, true, false, true},
      {"churn", false, true, true, true},
  };
  for (const auto& e : kExpected) {
    SCOPED_TRACE(e.name);
    const auto s = make_strategy(e.name);
    EXPECT_EQ(s->always_active(), e.always_active);
    EXPECT_EQ(s->reacts_to_shuffle(), e.reacts);
    EXPECT_EQ(s->departs_on_shuffle(), e.departs);
    EXPECT_EQ(s->follows_redirects(), e.follows);
  }
}

TEST(StrategyOptionsValidation, AllViolationsReportedAtOnceWithPrefix) {
  StrategyOptions bad;
  bad.on_probability = -0.1;
  bad.wave_duty = 2.0;
  bad.reenter_delay = -1;
  bad.wave_period = 0;
  bad.probes_per_round = 0;
  bad.rejoin_probability = 0.0;
  const auto violations = bad.violations("strategy.");
  EXPECT_EQ(violations.size(), 6u);
  for (const auto& v : violations) {
    EXPECT_EQ(v.rfind("strategy.", 0), 0u) << v;
  }
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_THROW((void)make_strategy("churn", bad), std::invalid_argument);
  EXPECT_TRUE(StrategyOptions{}.violations().empty());
}

// ---------------------------------------------------------------------------
// Batched decide: chunk splits and present masks must not change anything.
// ---------------------------------------------------------------------------

std::vector<BotState> make_bots(std::size_t n, std::uint64_t seed) {
  const util::Rng root(seed);
  std::vector<BotState> bots;
  bots.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    bots.emplace_back(root.fork_small(b));
  }
  return bots;
}

TEST(AttackerStrategyBatched, DecideIsIndependentOfChunkBoundaries) {
  for (const char* name : {"on-off", "churn", "coupon-collector"}) {
    SCOPED_TRACE(name);
    const auto strategy = make_strategy(name);
    constexpr std::size_t kBots = 97;
    auto whole = make_bots(kBots, 11);
    auto chunked = make_bots(kBots, 11);
    std::vector<std::uint8_t> active_whole(kBots, 0);
    std::vector<std::uint8_t> active_chunked(kBots, 0);
    for (Count round = 1; round <= 50; ++round) {
      const StrategyContext ctx{round, 8};
      strategy->decide(ctx, whole, {}, active_whole);
      // Same round, arbitrary uneven split: per-bot streams make the
      // boundaries irrelevant (this is the sharding contract).
      constexpr std::pair<std::size_t, std::size_t> kChunks[] = {
          {0, 40}, {40, 41}, {41, 97}};
      for (const auto& [lo, hi] : kChunks) {
        strategy->decide(ctx, std::span(chunked).subspan(lo, hi - lo), {},
                         std::span(active_chunked).subspan(lo, hi - lo));
      }
      ASSERT_EQ(active_whole, active_chunked) << "round " << round;
    }
    for (std::size_t b = 0; b < kBots; ++b) {
      EXPECT_EQ(whole[b].away_rounds, chunked[b].away_rounds);
      EXPECT_EQ(whole[b].counter, chunked[b].counter);
      EXPECT_EQ(whole[b].flags, chunked[b].flags);
    }
  }
}

TEST(AttackerStrategyBatched, AbsentEntriesAreLeftUntouched) {
  const auto strategy = make_strategy("on-off");
  constexpr std::size_t kBots = 32;
  auto bots = make_bots(kBots, 3);
  auto mirror = make_bots(kBots, 3);
  std::vector<std::uint8_t> present(kBots, 1);
  for (std::size_t b = 1; b < kBots; b += 2) present[b] = 0;
  std::vector<std::uint8_t> active(kBots, 7);  // sentinel
  const StrategyContext ctx{1, 4};
  strategy->decide(ctx, bots, present, active);
  for (std::size_t b = 0; b < kBots; ++b) {
    if (present[b] != 0) {
      EXPECT_NE(active[b], 7) << b;  // written 0/1
    } else {
      EXPECT_EQ(active[b], 7) << b;  // untouched
      // The absent bot's stream was not consumed: its next scalar decision
      // matches an untouched mirror's.
      EXPECT_EQ(strategy->decide_one(ctx, bots[b]),
                strategy->decide_one(ctx, mirror[b]))
          << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Adaptive adversaries: closed-form behaviour checks.
// ---------------------------------------------------------------------------

TEST(CouponCollector, RediscoveryProbabilityClosedForm) {
  EXPECT_DOUBLE_EQ(coupon_rediscovery_probability(1, 4), 1.0);
  EXPECT_DOUBLE_EQ(coupon_rediscovery_probability(5, 1), 0.2);
  EXPECT_NEAR(coupon_rediscovery_probability(10, 4),
              1.0 - std::pow(0.9, 4.0), 1e-12);
  // Monotone in the probe budget.
  EXPECT_LT(coupon_rediscovery_probability(10, 2),
            coupon_rediscovery_probability(10, 8));
}

TEST(CouponCollector, MeanRediscoveryTimeMatchesGeometricExpectation) {
  constexpr Count kReplicas = 10;
  StrategyOptions options;
  options.probes_per_round = 4;
  const auto strategy = make_strategy("coupon-collector", options);
  const double p = coupon_rediscovery_probability(kReplicas, 4);
  ASSERT_GT(p, 0.0);

  const util::Rng root(424242);
  constexpr std::size_t kBots = 4000;
  double total_rounds = 0.0;
  for (std::size_t b = 0; b < kBots; ++b) {
    BotState bot(root.fork_small(b));
    const StrategyContext shuffle_ctx{0, kReplicas};
    // A shuffle wipes the bot's address knowledge without exiling it.
    EXPECT_EQ(strategy->on_shuffled_one(shuffle_ctx, bot),
              AttackerStrategy::kStays);
    ASSERT_NE(bot.flags & kBotUndiscovered, 0);
    Count rounds = 0;
    while (rounds < 1000) {
      ++rounds;
      const StrategyContext ctx{rounds, kReplicas};
      if (strategy->decide_one(ctx, bot)) break;
    }
    EXPECT_EQ(bot.flags & kBotUndiscovered, 0);
    total_rounds += static_cast<double>(rounds);
  }
  // Rediscovery time is Geometric(p): E[T] = 1/p (~2.91 rounds here).  The
  // sample mean of 4000 i.i.d. bots sits within a few standard errors.
  const double mean = total_rounds / static_cast<double>(kBots);
  EXPECT_NEAR(mean, 1.0 / p, 0.2);
}

TEST(Churn, DepartureAndRejoinFollowTheConfiguredLaws) {
  const util::Rng root(777);
  // Degenerate corners decide without ambiguity.
  {
    StrategyOptions options;
    options.depart_probability = 1.0;
    options.rejoin_probability = 1.0;
    options.new_ip_probability = 1.0;
    const auto churn = make_strategy("churn", options);
    BotState bot(root.fork_small(0));
    const StrategyContext ctx{1, 5};
    EXPECT_EQ(churn->on_shuffled_one(ctx, bot), 1);  // certain 1-round absence
    EXPECT_TRUE(bot.pending_new_ip());
  }
  {
    StrategyOptions options;
    options.depart_probability = 0.0;
    const auto churn = make_strategy("churn", options);
    BotState bot(root.fork_small(1));
    const StrategyContext ctx{1, 5};
    EXPECT_EQ(churn->on_shuffled_one(ctx, bot), AttackerStrategy::kStays);
  }
  // Statistical laws: depart ~ Bernoulli(0.5); absence ~ Geometric(0.25)
  // with mean 4 rounds.
  StrategyOptions options;
  options.depart_probability = 0.5;
  options.rejoin_probability = 0.25;
  const auto churn = make_strategy("churn", options);
  constexpr std::size_t kBots = 4000;
  std::size_t departed = 0;
  double absence_total = 0.0;
  for (std::size_t b = 0; b < kBots; ++b) {
    BotState bot(root.fork_small(100 + b));
    const StrategyContext ctx{1, 5};
    const Count away = churn->on_shuffled_one(ctx, bot);
    if (away >= 0) {
      ++departed;
      ASSERT_GE(away, 1);
      absence_total += static_cast<double>(away);
    }
  }
  EXPECT_NEAR(static_cast<double>(departed) / kBots, 0.5, 0.05);
  EXPECT_NEAR(absence_total / static_cast<double>(departed), 4.0, 0.5);
}

}  // namespace
}  // namespace shuffledef::core
