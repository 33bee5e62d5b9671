// Attacker strategies shared by every simulator (paper §II-B and §VII,
// plus the adaptive adversaries PAPERS.md names as the next tier).
//
// An AttackerStrategy is a stateless policy object shared by the whole
// botnet; all per-bot state lives in a flat `BotState` record so a
// `std::vector<BotState>` indexed by bot id is the per-bot column of an
// SoA client store.  Strategies are built by name through
// `make_strategy(name, StrategyOptions{})`, mirroring `make_planner`:
//
//   "always-on"          — persistent bots that attack every replica they
//                          land on, every round (the paper's main threat
//                          model).
//   "on-off"             — non-aggressive bots that attack only with
//                          probability `on_probability` each round, hoping
//                          to blend with benign clients.
//   "quit-reenter"       — bots that stop attacking when they notice a
//                          shuffle and re-enter through the load balancers
//                          after `reenter_delay` rounds; only a fresh IP
//                          (probability `new_ip_probability`) buys a new
//                          placement.
//   "naive"              — hit-list bots that can only flood static
//                          addresses; one server replacement permanently
//                          evades them.
//   "synchronized-waves" — the whole botnet attacks in coordinated bursts
//                          (`wave_duty` of every `wave_period` rounds).
//   "coupon-collector"   — reconnaissance bots (Fleck et al.,
//                          arXiv:1712.01102): a shuffle invalidates a bot's
//                          knowledge of its replica address, and the bot
//                          must re-scan (`probes_per_round` probes per
//                          round against `replicas` live addresses) before
//                          its attacks land again.  Rediscovery time is
//                          Geometric(p) with
//                          p = 1 - (1 - 1/replicas)^probes_per_round.
//   "churn"              — quit-reenter variant with bot arrival/departure
//                          churn: on each observed shuffle a present bot
//                          departs with `depart_probability` and re-arrives
//                          after a Geometric(`rejoin_probability`) number of
//                          rounds, optionally through a fresh IP.
//
// Determinism contract: every bot carries its own `util::SmallRng`
// substream (derived with `Rng::fork_small(bot_index)`), so a bot's
// decisions depend only on its own state — never on the order bots are
// visited in.  That is what lets engines shard the batched `decide` and
// per-bot `on_shuffled_one` sweeps across threads with bit-identical results
// at every thread count.  The five legacy behaviours reproduce the draw
// order of the original `sim::BotBehavior` state machine exactly, so goldens
// captured against the enum paths pin this registry bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/random.h"

namespace shuffledef::core {

/// BotState.flags bits.
inline constexpr std::uint8_t kBotPendingNewIp = 1u << 0;
inline constexpr std::uint8_t kBotUndiscovered = 1u << 1;

/// Flat per-bot state record (one per bot, strategy-agnostic).  Engines own
/// the container; strategies only ever mutate the records handed to them.
struct BotState {
  explicit BotState(util::SmallRng rng_in = util::SmallRng{0}) : rng(rng_in) {}

  util::SmallRng rng;      // private behavior stream (order-independent)
  Count away_rounds = 0;   // rounds left outside the system (quit/churn)
  Count counter = 0;       // synchronized-waves: shared phase (all bots step
                           // once per round, so counters align)
  std::uint8_t flags = 0;  // kBotPendingNewIp | kBotUndiscovered

  [[nodiscard]] bool away() const { return away_rounds > 0; }
  [[nodiscard]] bool pending_new_ip() const {
    return (flags & kBotPendingNewIp) != 0;
  }
  void clear_pending_new_ip() {
    flags &= static_cast<std::uint8_t>(~kBotPendingNewIp);
  }
};

/// Per-round world view handed to every strategy call.  `replicas` is the
/// number of live shuffling replicas the defense currently runs (the
/// coupon-collector scan target set); `round` is the engine's round index.
struct StrategyContext {
  Count round = 0;
  Count replicas = 0;
};

/// Construction knobs shared by every strategy factory call.  A struct (not
/// positional parameters) so future knobs extend without breaking call
/// sites; fields irrelevant to a given strategy are ignored.
struct StrategyOptions {
  /// "on-off": probability a bot attacks in a given round.
  double on_probability = 0.5;
  /// "quit-reenter": probability a bot exits after observing a shuffle.
  double quit_probability = 0.2;
  /// "quit-reenter": rounds a quitted bot waits before re-entering.
  Count reenter_delay = 2;
  /// "quit-reenter"/"churn": probability a re-entry uses a fresh IP address
  /// (otherwise the sticky record pins it back to its old placement).
  double new_ip_probability = 0.5;
  /// "synchronized-waves": burst cycle length in rounds, and the fraction
  /// of each cycle spent attacking.
  Count wave_period = 6;
  double wave_duty = 0.5;
  /// "coupon-collector": replica-address probes a scanning bot sends per
  /// round after a shuffle wiped its knowledge.
  Count probes_per_round = 4;
  /// "churn": probability a present bot departs on an observed shuffle.
  double depart_probability = 0.1;
  /// "churn": per-round re-arrival probability of a departed bot (absence
  /// length is Geometric with this success rate; must be > 0).
  double rejoin_probability = 0.5;

  /// All violations at once, each prefixed (e.g. "strategy.") for embedding
  /// in a composite config's report.
  [[nodiscard]] std::vector<std::string> violations(
      const std::string& prefix = {}) const;
  /// Throws std::invalid_argument listing every violation.
  void validate() const;
};

/// Closed-form per-round rediscovery probability of the coupon-collector
/// scanner: p = 1 - (1 - 1/replicas)^probes.  Exposed for tests that check
/// the simulated rediscovery time against the Geometric(p) expectation.
[[nodiscard]] double coupon_rediscovery_probability(Count replicas,
                                                    Count probes);

/// Shared attacker policy.  One instance serves the whole botnet; engines
/// call the batched `decide` on their SoA columns (shardable across threads
/// — per-bot streams make chunk boundaries irrelevant) and the scalar `_one`
/// forms per bot (ClientLevelSimulator's sharded shuffle pass, ClientSwarm's
/// connect and migration hooks).
class AttackerStrategy {
 public:
  /// on_shuffled_one return value meaning "the bot stays in the pool".
  static constexpr Count kStays = -1;

  explicit AttackerStrategy(StrategyOptions options)
      : options_(std::move(options)) {}
  virtual ~AttackerStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Capability flags.  Engines use these to skip whole passes (an
  // always-active strategy needs no per-bot activity sweep; a strategy that
  // never reacts to shuffles needs no quit pass), which both preserves the
  // legacy fast paths bit-identically and keeps them fast.
  /// Every present bot attacks every round, drawing nothing.
  [[nodiscard]] virtual bool always_active() const { return false; }
  /// on_shuffled_one can mutate state (engines must run the shuffle pass).
  [[nodiscard]] virtual bool reacts_to_shuffle() const { return false; }
  /// on_shuffled_one may return >= 0 (engines must manage an away list).
  [[nodiscard]] virtual bool departs_on_shuffle() const { return false; }
  /// Bots can follow the defense's redirects to moved replicas.  False only
  /// for hit-list ("naive") bots: one replacement evades them permanently.
  [[nodiscard]] virtual bool follows_redirects() const { return true; }

  /// Advance one bot one round.  Returns true when the bot actively attacks
  /// the replica it is currently assigned to this round.  A bot whose
  /// away_rounds counter is still draining (post-rejoin) counts it down and
  /// stays inactive — the legacy BotBehavior contract.
  [[nodiscard]] virtual bool decide_one(const StrategyContext& ctx,
                                        BotState& bot) const = 0;

  /// One bot noticed a shuffle of its replica.  Returns kStays (-1) when the
  /// bot remains in the pool, or the number of rounds it departs for (the
  /// engine keeps departed bots on its own away list and re-admits them when
  /// the count expires; `bot.pending_new_ip()` then says whether the
  /// re-entry carries a fresh IP).
  virtual Count on_shuffled_one(const StrategyContext& ctx,
                                BotState& bot) const {
    (void)ctx;
    (void)bot;
    return kStays;
  }

  /// Batched decide over an SoA column: for every i with present[i] != 0,
  /// writes active[i] = decide_one(ctx, bots[i]); other entries are left
  /// untouched.  An empty `present` span means "all present".  Callers may
  /// hand subranges to worker threads; per-bot streams keep the result
  /// independent of the split.
  virtual void decide(const StrategyContext& ctx, std::span<BotState> bots,
                      std::span<const std::uint8_t> present,
                      std::span<std::uint8_t> active) const;

  [[nodiscard]] const StrategyOptions& options() const { return options_; }

 protected:
  StrategyOptions options_;
};

/// Factory by registry name (see the header comment for the list); throws
/// std::invalid_argument on an unknown name or invalid options.
std::unique_ptr<AttackerStrategy> make_strategy(
    const std::string& name, const StrategyOptions& options = {});

/// All registry names, in registration order.
const std::vector<std::string>& strategy_names();

}  // namespace shuffledef::core
