#include "core/shuffle_controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/cost_model.h"
#include "core/moments_estimator.h"
#include "core/plan_metrics.h"
#include "core/provisioning.h"
#include "obs/span.h"
#include "util/validation.h"

namespace shuffledef::core {

std::vector<std::string> ControllerConfig::violations(
    const std::string& prefix) const {
  std::vector<std::string> out;
  if (planner != "even" && planner != "greedy" && planner != "dp" &&
      planner != "algorithm1") {
    out.push_back(prefix + "unknown planner '" + planner +
                  "' (expected even|greedy|dp|algorithm1)");
  }
  if (planner_threads < 0) {
    out.push_back(prefix + "planner_threads must be >= 0");
  }
  if (replicas < 0) {
    out.push_back(prefix + "replicas must be >= 0 (0 = adaptive)");
  }
  if (!(provisioning_headroom >= 1.0)) {
    out.push_back(prefix + "provisioning_headroom must be >= 1");
  }
  if (estimator != "mle" && estimator != "moments") {
    out.push_back(prefix + "unknown estimator '" + estimator +
                  "' (expected mle|moments)");
  }
  if (!(estimate_smoothing > 0.0) || estimate_smoothing > 1.0) {
    out.push_back(prefix + "estimate_smoothing must be in (0, 1]");
  }
  if (!(migration_cost_weight >= 0.0)) {
    out.push_back(prefix + "migration_cost_weight must be >= 0");
  }
  if (!(min_expected_net_save >= 0.0)) {
    out.push_back(prefix + "min_expected_net_save must be >= 0");
  }
  return out;
}

void ControllerConfig::validate() const {
  util::throw_if_invalid("ControllerConfig", violations());
}

ShuffleController::ShuffleController(ControllerConfig config)
    : config_(std::move(config)) {
  config_.validate();
  planner_ = make_planner(config_.planner,
                          PlannerOptions{.threads = config_.planner_threads,
                                         .registry = config_.registry});
  if (config_.estimator == "mle") {
    MleOptions mle = config_.mle;
    mle.registry = config_.registry;
    estimator_ = std::make_unique<MleEstimator>(mle);
  } else {
    estimator_ = std::make_unique<MomentsEstimator>();
  }
  if (config_.planner_cache_capacity > 0) {
    cache_.emplace(config_.planner_cache_capacity);
  }
  if (config_.registry != nullptr) {
    decisions_ = config_.registry->counter(kMetricControllerDecisions);
    cache_hits_ = config_.registry->counter(kMetricPlannerCacheHits);
    cache_misses_ = config_.registry->counter(kMetricPlannerCacheMisses);
    shuffles_declined_ =
        config_.registry->counter(kMetricControllerShufflesDeclined);
  }
}

void ShuffleController::set_bot_estimate(Count bots) {
  bot_estimate_ = std::max<Count>(bots, 0);
  has_estimate_ = true;
}

RoundDecision ShuffleController::decide(
    Count pool_clients, const std::optional<ShuffleObservation>& prev) {
  const obs::Span span(config_.registry, "controller.decide");
  decisions_.inc();
  if (pool_clients < 0) {
    throw std::invalid_argument("decide: negative pool size");
  }
  if (config_.use_mle && prev.has_value()) {
    const obs::Span estimate_span(config_.registry, "estimate");
    const Count fresh = estimator_->estimate(*prev);
    if (has_estimate_ && config_.estimate_smoothing < 1.0) {
      const double blended =
          config_.estimate_smoothing * static_cast<double>(fresh) +
          (1.0 - config_.estimate_smoothing) * static_cast<double>(bot_estimate_);
      bot_estimate_ = static_cast<Count>(std::llround(blended));
    } else {
      bot_estimate_ = fresh;
    }
    has_estimate_ = true;
  }
  // The pool bounds any sane estimate.
  const Count m_hat = std::min(bot_estimate_, pool_clients);

  Count p = config_.replicas;
  if (p == 0) {
    const Count needed = min_replicas_for_estimation(m_hat);
    p = std::max<Count>(
        2, static_cast<Count>(std::llround(static_cast<double>(needed) *
                                           config_.provisioning_headroom)));
  }

  RoundDecision decision;
  decision.bot_estimate = m_hat;
  decision.replicas = p;
  const ShuffleProblem problem{
      .clients = pool_clients, .bots = m_hat, .replicas = p};
  const obs::Span plan_span(config_.registry, "plan");
  if (cache_) {
    const PlannerCacheKey key{planner_->name(), problem};
    if (auto cached = cache_->get_plan(key)) {
      cache_hits_.inc();
      decision.plan = std::move(*cached);
    } else {
      cache_misses_.inc();
      decision.plan = planner_->plan(problem);
      cache_->put_plan(key, decision.plan);
    }
  } else {
    decision.plan = planner_->plan(problem);
  }
  // Cost-aware objective: price the candidate plan and decline the round
  // when its expected net save falls below the configured floor.  With both
  // knobs at 0 (cost-blind legacy mode) the economics are skipped entirely.
  const bool cost_aware = config_.migration_cost_weight > 0.0 ||
                          config_.min_expected_net_save > 0.0;
  if (cost_aware) {
    decision.expected_saved = saved_count_moments(problem, decision.plan).mean;
    decision.shuffle_cost_usd = shuffle_round_cost_usd(
        CostRates{}, p, pool_clients, kMigrationPageBytes);
    decision.expected_net_save =
        decision.expected_saved -
        config_.migration_cost_weight * decision.shuffle_cost_usd;
    if (config_.min_expected_net_save > 0.0 &&
        decision.expected_net_save < config_.min_expected_net_save) {
      decision.execute = false;
      ++declined_count_;
      shuffles_declined_.inc();
    }
  }
  return decision;
}

}  // namespace shuffledef::core
