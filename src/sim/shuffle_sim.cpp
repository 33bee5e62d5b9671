#include "sim/shuffle_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "obs/registry.h"
#include "obs/span.h"
#include "util/validation.h"

namespace shuffledef::sim {
namespace {

// Fixed buckets for sim.saved_per_round: decades up to million-client
// populations (values record event quantities, so the histogram is
// deterministic in the seed).
constexpr std::array<double, 7> kSavedBounds = {
    0.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0};

// Metric handles of a run (eager creation: the snapshot schema is stable
// even for metrics that stay zero this run).
struct SimMetrics {
  obs::Counter rounds_seen;
  obs::Counter rounds_executed;
  obs::Counter rounds_faulted;
  obs::Counter rounds_declined;
  obs::Counter saved_counter;
  obs::Gauge longest_outage;
  obs::Histogram saved_hist;

  explicit SimMetrics(obs::Registry* registry)
      : rounds_seen(registry->counter(kMetricSimRounds)),
        rounds_executed(registry->counter(kMetricSimRoundsExecuted)),
        rounds_faulted(registry->counter(kMetricSimRoundsFaulted)),
        rounds_declined(registry->counter(kMetricSimRoundsDeclined)),
        saved_counter(registry->counter(kMetricSimSavedTotal)),
        longest_outage(registry->gauge(kMetricSimLongestOutage)),
        saved_hist(registry->histogram(
            kMetricSimSavedPerRound,
            {kSavedBounds.begin(), kSavedBounds.end()})) {}
};

}  // namespace

std::optional<Count> ShuffleSimResult::shuffles_to_fraction(
    double fraction) const {
  const auto target = static_cast<Count>(
      std::ceil(fraction * static_cast<double>(benign_total)));
  // A zero target (no benign clients, or fraction == 0) needs no shuffling
  // at all: report 0 rounds instead of whatever round happened to be
  // recorded first (every cumulative_saved is >= 0, so the scan below would
  // otherwise return the first recorded round).
  if (target <= 0) return 0;
  // Count *executed* shuffles: a faulted or declined round runs no shuffle,
  // so it must not inflate the shuffles-to-save figure.
  Count executed = 0;
  for (const auto& r : rounds) {
    if (!r.faulted && !r.declined) ++executed;
    if (r.cumulative_saved >= target) return executed;
  }
  return std::nullopt;
}

std::vector<std::string> ShuffleSimConfig::validate() const {
  std::vector<std::string> violations;
  for (auto& v : benign.violations("benign.")) violations.push_back(std::move(v));
  for (auto& v : bots.violations("bots.")) violations.push_back(std::move(v));
  for (auto& v : controller.violations("controller.")) {
    violations.push_back(std::move(v));
  }
  if (!(oracle_bias >= 0.0)) {
    violations.push_back("oracle_bias must be >= 0");
  }
  if (!(target_fraction > 0.0) || target_fraction > 1.0) {
    violations.push_back("target_fraction must be in (0, 1]");
  }
  if (max_rounds <= 0) {
    violations.push_back("max_rounds must be > 0");
  }
  if (!(round_failure_prob >= 0.0) || round_failure_prob >= 1.0) {
    violations.push_back("round_failure_prob must be in [0, 1)");
  }
  return violations;
}

ShuffleSimulator::ShuffleSimulator(ShuffleSimConfig config)
    : config_(std::move(config)) {
  util::throw_if_invalid("ShuffleSimConfig", config_.validate());
}

ShuffleSimResult ShuffleSimulator::run() {
  // Each run records into a private registry unless the caller scoped one
  // in, so the final snapshot covers exactly this run and fixed-seed runs
  // are bit-identical (modulo span wall-clock durations — see
  // MetricsSnapshot::deterministic_view()).
  obs::Registry local_registry;
  obs::Registry* registry =
      config_.registry != nullptr ? config_.registry : &local_registry;
  SimMetrics metrics(registry);

  util::Rng root(config_.seed);
  ArrivalProcess benign_arrivals(config_.benign, root.fork(1));
  ArrivalProcess bot_arrivals(config_.bots, root.fork(2));
  util::Rng placement_rng = root.fork(3);
  util::Rng fault_rng = root.fork(4);

  core::ControllerConfig controller_config = config_.controller;
  controller_config.registry = registry;
  core::ShuffleController controller(std::move(controller_config));

  ShuffleSimResult result;
  result.benign_total = config_.benign.total_cap;
  const auto target = static_cast<Count>(std::ceil(
      config_.target_fraction * static_cast<double>(result.benign_total)));

  Count pool_benign = 0;
  Count pool_bots = 0;
  Count cumulative_saved = 0;
  Count recorded_rounds = 0;  // rows in result.rounds: 1-based, gap-free
  Count outage_run = 0;
  std::optional<core::ShuffleObservation> prev_obs;

  // Closed explicitly before the final snapshot so its timing is recorded.
  std::optional<obs::Span> run_span;
  run_span.emplace(registry, "sim.run");
  for (Count round = 1; round <= config_.max_rounds; ++round) {
    pool_benign += benign_arrivals.next_round();
    pool_bots += bot_arrivals.next_round();
    const Count pool = pool_benign + pool_bots;
    if (pool == 0) {
      if (benign_arrivals.exhausted() && bot_arrivals.exhausted()) break;
      continue;  // nothing to shuffle yet; wait for arrivals
    }

    const obs::Span round_span(registry, "round");
    metrics.rounds_seen.inc();

    if (config_.round_failure_prob > 0.0 &&
        fault_rng.uniform() < config_.round_failure_prob) {
      // Control-plane outage: the shuffle command never executes.  Nobody
      // moves, so the pool and the previous observation both carry over.
      RoundStats stats;
      stats.round = ++recorded_rounds;
      stats.pool_benign = pool_benign;
      stats.pool_bots = pool_bots;
      stats.bot_estimate = controller.bot_estimate();
      stats.cumulative_saved = cumulative_saved;
      stats.faulted = true;
      result.rounds.push_back(stats);
      metrics.rounds_faulted.inc();
      metrics.longest_outage.max_with(static_cast<std::int64_t>(++outage_run));
      continue;
    }
    outage_run = 0;

    if (!config_.controller.use_mle) {
      // Oracle mode: feed the (possibly biased) truth.
      const double biased =
          static_cast<double>(pool_bots) * config_.oracle_bias;
      controller.set_bot_estimate(
          std::clamp<Count>(static_cast<Count>(std::llround(biased)), 0, pool));
    } else if (!prev_obs.has_value()) {
      // No observation yet: seed the estimate with a tenth of the pool.
      controller.set_bot_estimate(
          std::min(std::max<Count>(1, pool / 10), pool));
    }

    const auto decision = controller.decide(pool, prev_obs);
    if (!decision.execute) {
      // Cost-aware decline: the expected saved count does not pay for the
      // migration, so the defense holds the current placement.  Nobody
      // moves and the previous observation carries over.
      RoundStats stats;
      stats.round = ++recorded_rounds;
      stats.pool_benign = pool_benign;
      stats.pool_bots = pool_bots;
      stats.replicas = decision.replicas;
      stats.bot_estimate = decision.bot_estimate;
      stats.cumulative_saved = cumulative_saved;
      stats.declined = true;
      result.rounds.push_back(stats);
      metrics.rounds_declined.inc();
      continue;
    }

    // Place the pool's bots uniformly across the plan's buckets.
    const auto bots_per_bucket = placement_rng.multivariate_hypergeometric(
        decision.plan.counts(), pool_bots);

    RoundStats stats;
    stats.round = ++recorded_rounds;
    stats.pool_benign = pool_benign;
    stats.pool_bots = pool_bots;
    stats.replicas = decision.replicas;
    stats.bot_estimate = decision.bot_estimate;

    std::vector<bool> attacked(decision.plan.replica_count(), false);
    Count saved = 0;
    for (std::size_t i = 0; i < bots_per_bucket.size(); ++i) {
      if (bots_per_bucket[i] > 0) {
        attacked[i] = true;
        ++stats.attacked_replicas;
      } else {
        saved += decision.plan[i];  // clean bucket: all occupants are benign
      }
    }
    pool_benign -= saved;
    cumulative_saved += saved;
    stats.saved = saved;
    stats.cumulative_saved = cumulative_saved;
    result.rounds.push_back(stats);
    metrics.rounds_executed.inc();
    metrics.saved_counter.inc(static_cast<std::uint64_t>(saved));
    metrics.saved_hist.observe(static_cast<double>(saved));

    prev_obs = core::ShuffleObservation{decision.plan, std::move(attacked)};

    if (result.benign_total > 0 && cumulative_saved >= target) {
      result.reached_target = true;
      break;
    }
    if (pool_benign == 0 && benign_arrivals.exhausted()) {
      break;  // no benign client left to save
    }
  }
  run_span.reset();
  result.saved_total = cumulative_saved;
  result.metrics = registry->snapshot();
  return result;
}

}  // namespace shuffledef::sim
