// The coordination server's decision logic (paper §III-D + §IV + §V).
//
// Each round the controller:
//   1. updates its estimate of the persistent-bot count M from the previous
//      shuffle's observation (MLE, §V), or keeps an injected estimate;
//   2. sizes the shuffling replica set P — either fixed (the paper's
//      simulations use fixed P) or adaptively per Theorem 1 so the MLE stays
//      well-conditioned;
//   3. runs a planner (§IV) to produce the client-to-replica size plan.
//
// The controller is deliberately free of any I/O so that the count-based
// simulator (src/sim) and the discrete-event cloud (src/cloudsim) can share
// the exact same brain.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.h"
#include "core/mle_estimator.h"
#include "core/plan.h"
#include "core/planner.h"
#include "core/planner_cache.h"
#include "core/types.h"
#include "obs/registry.h"

namespace shuffledef::core {

// Metric names recorded by the controller (cross-referenced by simulators,
// benches and tests; see ARCHITECTURE.md "Observability").
inline constexpr std::string_view kMetricControllerDecisions =
    "controller.decisions";
inline constexpr std::string_view kMetricPlannerCacheHits =
    "controller.planner_cache.hits";
inline constexpr std::string_view kMetricPlannerCacheMisses =
    "controller.planner_cache.misses";
inline constexpr std::string_view kMetricControllerShufflesDeclined =
    "controller.shuffles_declined";

struct ControllerConfig {
  std::string planner = "greedy";
  /// Worker threads for planners with a parallel solve ("algorithm1"):
  /// 1 = serial, 0 = shared pool, k > 1 = private pool.  Results are
  /// bit-identical at any setting (tests/cloudsim/fault_determinism_test).
  Count planner_threads = 0;
  /// Fixed shuffling-replica count; 0 = adapt P per Theorem 1 (at least 2).
  Count replicas = 0;
  /// Head-room multiplier on the adaptive Theorem-1 minimum.
  double provisioning_headroom = 1.0;
  /// Estimate M from each round's observation (otherwise the injected
  /// estimate is used — oracle mode).
  bool use_mle = true;
  /// Which observation-driven estimator: "mle" (paper §V) or "moments".
  std::string estimator = "mle";
  /// EWMA smoothing across rounds: new = alpha*estimate + (1-alpha)*old.
  /// 1.0 (default) = trust each round's estimate outright, like the paper.
  double estimate_smoothing = 1.0;
  MleOptions mle;
  /// LRU capacity of the planner-result cache (successive rounds often
  /// re-solve the exact same (N, M, P) problem).  0 disables caching.
  /// Planners are deterministic, so cached decisions are bit-identical to
  /// uncached ones.
  std::size_t planner_cache_capacity = 128;
  /// --- Cost-aware objective (Zhou et al., arXiv:1903.10102) ---
  /// Weight converting the USD churn of a shuffle round, priced at the
  /// default CostRates, into the plan's saved-clients unit:
  /// net = E[S] - weight * shuffle_round_cost_usd.  0 (default) =
  /// cost-blind — the economics are not even computed and every decision
  /// executes, the legacy behaviour.
  double migration_cost_weight = 0.0;
  /// Decline threshold: a decision whose expected net save falls below this
  /// is marked execute = false (the engine skips the shuffle and keeps the
  /// current placement).  0 (default) = never decline — shuffles are forced
  /// even when the priced net is negative.
  double min_expected_net_save = 0.0;
  /// Observability sink for the controller, its planner and its estimator
  /// (nullptr = uninstrumented).  Counters kMetricControllerDecisions,
  /// kMetricPlannerCache{Hits,Misses} and kMetricControllerShufflesDeclined;
  /// spans "controller.decide" with children "estimate" and "plan".
  obs::Registry* registry = nullptr;

  /// All configuration violations at once (empty = valid), each prefixed
  /// (e.g. "controller.") for embedding in a composite config's report.
  [[nodiscard]] std::vector<std::string> violations(
      const std::string& prefix = {}) const;
  /// Throws std::invalid_argument listing every violation.
  void validate() const;
};

struct RoundDecision {
  AssignmentPlan plan;
  Count bot_estimate = 0;
  Count replicas = 0;
  /// False when the cost-aware objective declined the shuffle: the engine
  /// should keep the current placement this round.  Always true when the
  /// controller is cost-blind (migration_cost_weight == 0 and
  /// min_expected_net_save == 0).
  bool execute = true;
  /// Priced economics of the candidate plan (0 when cost-blind): exact
  /// E[S] of the plan, the round's USD churn, and the weighted net.
  double expected_saved = 0.0;
  double shuffle_cost_usd = 0.0;
  double expected_net_save = 0.0;
};

class ShuffleController {
 public:
  /// Bytes a migrated client re-fetches after a shuffle (egress churn), as
  /// the cost-aware objective prices it.
  static constexpr std::int64_t kMigrationPageBytes = 64 * 1024;

  explicit ShuffleController(ControllerConfig config);

  /// Decide the plan for the next shuffle.  `pool_clients` is the number of
  /// clients currently in the shuffling pool; `prev` is the observation of
  /// the previous shuffle (nullopt on the first round).
  [[nodiscard]] RoundDecision decide(
      Count pool_clients, const std::optional<ShuffleObservation>& prev);

  /// Inject/override the bot estimate (first round seeding, oracle modes,
  /// sensitivity ablations).
  void set_bot_estimate(Count bots);

  [[nodiscard]] Count bot_estimate() const { return bot_estimate_; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  /// Decisions returned with execute = false so far (mirrors the
  /// kMetricControllerShufflesDeclined counter for registry-less callers).
  [[nodiscard]] Count shuffles_declined() const { return declined_count_; }

  /// The planner-result cache, or nullptr when planner_cache_capacity == 0.
  [[nodiscard]] const PlannerCache* planner_cache() const {
    return cache_ ? &*cache_ : nullptr;
  }

 private:
  ControllerConfig config_;
  std::unique_ptr<Planner> planner_;
  std::unique_ptr<AttackScaleEstimator> estimator_;
  std::optional<PlannerCache> cache_;
  Count bot_estimate_ = 0;
  bool has_estimate_ = false;  // EWMA needs a first anchor
  Count declined_count_ = 0;
  // Null handles when config_.registry is null (all ops no-op).
  obs::Counter decisions_;
  obs::Counter cache_hits_;
  obs::Counter cache_misses_;
  obs::Counter shuffles_declined_;
};

}  // namespace shuffledef::core
