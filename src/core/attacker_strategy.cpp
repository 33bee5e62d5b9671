#include "core/attacker_strategy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/validation.h"

namespace shuffledef::core {

namespace {

/// Legacy BotBehavior guard: a bot whose away counter is still draining
/// counts it down and stays inactive this round.  Shared by every strategy
/// so the post-rejoin inactivity penalty is uniform (and bit-identical to
/// the retired enum paths).
inline bool consume_away(BotState& bot) {
  if (bot.away_rounds > 0) {
    --bot.away_rounds;
    return true;
  }
  return false;
}

/// Geometric(rejoin) absence length in rounds (support {1, 2, ...}) from a
/// single uniform draw.  rejoin >= 1 decides without consuming a draw, like
/// the bernoulli edge-case contract.
inline Count geometric_absence(util::SmallRng& rng, double rejoin) {
  if (rejoin >= 1.0) return 1;
  const double u = rng.uniform();
  const double tail = std::log1p(-u) / std::log1p(-rejoin);
  return 1 + static_cast<Count>(std::min(tail, 1.0e6));
}

class AlwaysOnStrategy final : public AttackerStrategy {
 public:
  using AttackerStrategy::AttackerStrategy;
  [[nodiscard]] std::string name() const override { return "always-on"; }
  [[nodiscard]] bool always_active() const override { return true; }
  [[nodiscard]] bool decide_one(const StrategyContext&,
                                BotState& bot) const override {
    return !consume_away(bot);
  }
};

class OnOffStrategy final : public AttackerStrategy {
 public:
  using AttackerStrategy::AttackerStrategy;
  [[nodiscard]] std::string name() const override { return "on-off"; }
  [[nodiscard]] bool decide_one(const StrategyContext&,
                                BotState& bot) const override {
    if (consume_away(bot)) return false;
    return bot.rng.bernoulli(options_.on_probability);
  }
};

class QuitReenterStrategy final : public AttackerStrategy {
 public:
  using AttackerStrategy::AttackerStrategy;
  [[nodiscard]] std::string name() const override { return "quit-reenter"; }
  [[nodiscard]] bool reacts_to_shuffle() const override { return true; }
  [[nodiscard]] bool departs_on_shuffle() const override { return true; }
  [[nodiscard]] bool decide_one(const StrategyContext&,
                                BotState& bot) const override {
    return !consume_away(bot);  // attacks while present; exits on shuffles
  }
  Count on_shuffled_one(const StrategyContext&, BotState& bot) const override {
    // A post-rejoin bot whose internal away counter is still draining draws
    // nothing but still leaves again (the legacy BotBehavior engines derived
    // the departure from `away()` after the call, so this re-exile quirk is
    // part of the bit-identity contract).
    if (bot.away_rounds > 0) return options_.reenter_delay;
    if (!bot.rng.bernoulli(options_.quit_probability)) return kStays;
    bot.away_rounds = std::max<Count>(1, options_.reenter_delay);
    if (bot.rng.bernoulli(options_.new_ip_probability)) {
      bot.flags |= kBotPendingNewIp;
    } else {
      bot.clear_pending_new_ip();
    }
    return options_.reenter_delay;
  }
};

class NaiveStrategy final : public AttackerStrategy {
 public:
  using AttackerStrategy::AttackerStrategy;
  [[nodiscard]] std::string name() const override { return "naive"; }
  [[nodiscard]] bool follows_redirects() const override { return false; }
  [[nodiscard]] bool decide_one(const StrategyContext&,
                                BotState& bot) const override {
    consume_away(bot);
    return false;  // cannot follow moving replicas at all
  }
};

class SynchronizedWavesStrategy final : public AttackerStrategy {
 public:
  using AttackerStrategy::AttackerStrategy;
  [[nodiscard]] std::string name() const override {
    return "synchronized-waves";
  }
  [[nodiscard]] bool decide_one(const StrategyContext&,
                                BotState& bot) const override {
    if (consume_away(bot)) return false;
    const Count period = std::max<Count>(1, options_.wave_period);
    const auto on_rounds =
        static_cast<Count>(options_.wave_duty * static_cast<double>(period));
    const bool on =
        (bot.counter % period) < std::max<Count>(1, on_rounds);
    ++bot.counter;
    return on;
  }
};

class CouponCollectorStrategy final : public AttackerStrategy {
 public:
  using AttackerStrategy::AttackerStrategy;
  [[nodiscard]] std::string name() const override {
    return "coupon-collector";
  }
  [[nodiscard]] bool reacts_to_shuffle() const override { return true; }
  [[nodiscard]] bool decide_one(const StrategyContext& ctx,
                                BotState& bot) const override {
    if (consume_away(bot)) return false;
    if ((bot.flags & kBotUndiscovered) == 0) return true;
    const double p =
        coupon_rediscovery_probability(ctx.replicas, options_.probes_per_round);
    if (!bot.rng.bernoulli(p)) return false;  // still scanning this round
    bot.flags &= static_cast<std::uint8_t>(~kBotUndiscovered);
    return true;  // rediscovered — attacks from this round on
  }
  Count on_shuffled_one(const StrategyContext&, BotState& bot) const override {
    bot.flags |= kBotUndiscovered;  // the shuffle wiped its address knowledge
    return kStays;
  }
};

class ChurnStrategy final : public AttackerStrategy {
 public:
  using AttackerStrategy::AttackerStrategy;
  [[nodiscard]] std::string name() const override { return "churn"; }
  [[nodiscard]] bool reacts_to_shuffle() const override { return true; }
  [[nodiscard]] bool departs_on_shuffle() const override { return true; }
  [[nodiscard]] bool decide_one(const StrategyContext&,
                                BotState& bot) const override {
    return !consume_away(bot);
  }
  Count on_shuffled_one(const StrategyContext&, BotState& bot) const override {
    if (bot.away_rounds > 0) return kStays;
    if (!bot.rng.bernoulli(options_.depart_probability)) return kStays;
    const Count absence =
        geometric_absence(bot.rng, options_.rejoin_probability);
    if (bot.rng.bernoulli(options_.new_ip_probability)) {
      bot.flags |= kBotPendingNewIp;
    } else {
      bot.clear_pending_new_ip();
    }
    return absence;
  }
};

}  // namespace

std::vector<std::string> StrategyOptions::violations(
    const std::string& prefix) const {
  std::vector<std::string> out;
  const auto probability = [&](double p, const char* name) {
    if (!(p >= 0.0 && p <= 1.0)) {
      out.push_back(prefix + name + " must be in [0, 1]");
    }
  };
  probability(on_probability, "on_probability");
  probability(quit_probability, "quit_probability");
  probability(new_ip_probability, "new_ip_probability");
  probability(wave_duty, "wave_duty");
  probability(depart_probability, "depart_probability");
  if (reenter_delay < 0) out.push_back(prefix + "reenter_delay must be >= 0");
  if (wave_period < 1) out.push_back(prefix + "wave_period must be >= 1");
  if (probes_per_round < 1) {
    out.push_back(prefix + "probes_per_round must be >= 1");
  }
  if (!(rejoin_probability > 0.0 && rejoin_probability <= 1.0)) {
    out.push_back(prefix + "rejoin_probability must be in (0, 1]");
  }
  return out;
}

void StrategyOptions::validate() const {
  util::throw_if_invalid("StrategyOptions", violations());
}

double coupon_rediscovery_probability(Count replicas, Count probes) {
  if (replicas <= 1) return 1.0;
  const double miss = 1.0 - 1.0 / static_cast<double>(replicas);
  return 1.0 - std::pow(miss, static_cast<double>(std::max<Count>(1, probes)));
}

void AttackerStrategy::decide(const StrategyContext& ctx,
                              std::span<BotState> bots,
                              std::span<const std::uint8_t> present,
                              std::span<std::uint8_t> active) const {
  for (std::size_t i = 0; i < bots.size(); ++i) {
    if (!present.empty() && present[i] == 0) continue;
    active[i] = decide_one(ctx, bots[i]) ? 1 : 0;
  }
}

std::unique_ptr<AttackerStrategy> make_strategy(
    const std::string& name, const StrategyOptions& options) {
  options.validate();
  if (name == "always-on") return std::make_unique<AlwaysOnStrategy>(options);
  if (name == "on-off") return std::make_unique<OnOffStrategy>(options);
  if (name == "quit-reenter") {
    return std::make_unique<QuitReenterStrategy>(options);
  }
  if (name == "naive") return std::make_unique<NaiveStrategy>(options);
  if (name == "synchronized-waves") {
    return std::make_unique<SynchronizedWavesStrategy>(options);
  }
  if (name == "coupon-collector") {
    return std::make_unique<CouponCollectorStrategy>(options);
  }
  if (name == "churn") return std::make_unique<ChurnStrategy>(options);
  throw std::invalid_argument("make_strategy: unknown strategy '" + name +
                              "' (known: always-on, on-off, quit-reenter, "
                              "naive, synchronized-waves, coupon-collector, "
                              "churn)");
}

const std::vector<std::string>& strategy_names() {
  static const std::vector<std::string> kNames = {
      "always-on",          "on-off", "quit-reenter",     "naive",
      "synchronized-waves", "coupon-collector", "churn",
  };
  return kNames;
}

}  // namespace shuffledef::core
