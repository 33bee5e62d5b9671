#include "core/mle_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/likelihood.h"
#include "obs/span.h"

namespace shuffledef::core {
namespace {

/// Candidates per refinement level of the coarse-to-fine search.
constexpr Count kGridPoints = 24;
/// kAuto switches from exact to Gaussian above this replica count (the
/// exact engine's per-candidate cost grows with P^2 * distinct sizes).
constexpr Count kAutoExactMaxReplicas = 256;

/// Likelihood evaluator with engine selection, built once per observation so
/// the engines' plan-dependent structure is reused across all candidate M.
class LikelihoodFn {
 public:
  LikelihoodFn(const AssignmentPlan& plan, Count observed,
               const MleOptions& options)
      : plan_(plan), observed_(observed) {
    auto engine = options.engine;
    if (engine == LikelihoodEngine::kAuto) {
      engine = static_cast<Count>(plan.replica_count()) <= kAutoExactMaxReplicas
                   ? LikelihoodEngine::kExact
                   : LikelihoodEngine::kGaussian;
    }
    switch (engine) {
      case LikelihoodEngine::kExact:
        try {
          exact_.emplace(plan);
        } catch (const std::invalid_argument&) {
          gaussian_.emplace(plan);  // plan too irregular: degrade gracefully
        }
        break;
      case LikelihoodEngine::kGaussian:
        gaussian_.emplace(plan);
        break;
      case LikelihoodEngine::kIndependence:
      case LikelihoodEngine::kAuto:
        break;  // handled per call below
    }
  }

  [[nodiscard]] double operator()(Count m) const {
    if (exact_.has_value()) {
      try {
        return exact_->log_likelihood(m, observed_);
      } catch (const std::invalid_argument&) {
        // The plan defeats the exact engine's floating-point budget for
        // this candidate (deep inclusion-exclusion cancellation).  The
        // argmax must compare like with like, so switch the whole search
        // to the independence engine from here on.
        exact_.reset();
      }
    }
    if (gaussian_.has_value()) return gaussian_->log_likelihood(m, observed_);
    const auto pmf = attacked_count_pmf_independent(plan_, m);
    return std::log(std::max(pmf[static_cast<std::size_t>(observed_)], 1e-300));
  }

  /// True when the search should restart because the engine changed
  /// mid-scan (results before the switch are not comparable).
  [[nodiscard]] bool engine_switched() const {
    return started_exact_ && !exact_.has_value();
  }
  void mark_started() { started_exact_ = exact_.has_value(); }

 private:
  const AssignmentPlan& plan_;
  Count observed_;
  mutable std::optional<AttackedCountLikelihood> exact_;
  std::optional<GaussianAttackedCountLikelihood> gaussian_;
  bool started_exact_ = false;
};

}  // namespace

MleEstimator::MleEstimator(MleOptions options) : options_(options) {
  if (options_.registry != nullptr) {
    estimates_ = options_.registry->counter("mle.estimates");
    engine_restarts_ = options_.registry->counter("mle.engine_restarts");
  }
}

Count MleEstimator::estimate(const ShuffleObservation& obs) const {
  const shuffledef::obs::Span span(options_.registry, "mle.estimate");
  estimates_.inc();
  obs.validate();
  // attacked_count() and clients_on_attacked() in one pass over the flags,
  // with no branch per flag: the flags follow the random placement, so such
  // a branch would mispredict often.
  Count observed = 0;
  Count clients_on_attacked = 0;
  for (std::size_t i = 0; i < obs.attacked.size(); ++i) {
    const Count hit = obs.attacked[i] ? 1 : 0;
    observed += hit;
    clients_on_attacked += hit * obs.plan[i];
  }
  if (observed == 0) return 0;  // nothing attacked: no persistent bots seen

  // Paper bounds: at least one bot per attacked replica; at most every
  // client on an attacked replica is a bot.
  const Count lo_bound = observed;
  const Count hi_bound = std::max(lo_bound, clients_on_attacked);

  // Paper §V: "for the special case where all shuffling replicas are
  // attacked, the likelihood is always greater with the higher value of M
  // [so] the largest possible M becomes the final estimate."  The increase
  // saturates within floating point well before the bound, so return the
  // degenerate estimate directly instead of relying on tie-breaking.
  if (observed == static_cast<Count>(obs.plan.replica_count())) {
    return hi_bound;
  }

  LikelihoodFn loglik(obs.plan, observed, options_);

  const auto search = [&]() -> Count {
    if (options_.exhaustive || hi_bound - lo_bound <= kGridPoints * 2) {
      Count best_m = lo_bound;
      double best = -std::numeric_limits<double>::infinity();
      for (Count m = lo_bound; m <= hi_bound; ++m) {
        const double ll = loglik(m);
        if (ll > best) {
          best = ll;
          best_m = m;
        }
      }
      return best_m;
    }

    // Coarse-to-fine refinement: evaluate a grid, then zoom into the
    // interval around the best point.  The likelihood is unimodal in M, so
    // this finds the argmax with O(grid * log(range)) pmf evaluations;
    // verified against the exhaustive scan in tests.
    Count lo = lo_bound;
    Count hi = hi_bound;
    Count best_m = lo;
    double best = -std::numeric_limits<double>::infinity();
    std::vector<Count> grid;  // one level's candidates, ascending and distinct
    while (true) {
      const Count span = hi - lo;
      const Count points = std::min<Count>(kGridPoints, span + 1);
      const double step = static_cast<double>(span) /
                          static_cast<double>(std::max<Count>(points - 1, 1));
      grid.clear();
      for (Count i = 0; i < points; ++i) {
        grid.push_back(lo + static_cast<Count>(std::llround(
                                step * static_cast<double>(i))));
      }
      grid.push_back(best_m >= lo && best_m <= hi ? best_m : lo);
      std::sort(grid.begin(), grid.end());
      grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
      Count level_best_m = best_m;
      double level_best = best;
      for (const Count m : grid) {
        const double ll = loglik(m);
        if (ll > level_best) {
          level_best = ll;
          level_best_m = m;
        }
      }
      best = level_best;
      best_m = level_best_m;
      if (span <= points) break;  // grid was dense: converged
      // Zoom to one grid step around the winner.
      const auto width = static_cast<Count>(std::ceil(step));
      lo = std::max(lo_bound, best_m - width);
      hi = std::min(hi_bound, best_m + width);
    }
    return best_m;
  };

  // The exact engine can bail out mid-scan; values before and after a
  // switch are not comparable, so the whole search restarts until one scan
  // completes on a single engine.  A single restart is NOT enough in
  // general: if the engine degrades again during the rescan the returned
  // argmax would mix incomparable likelihoods.  The retry count is bounded
  // defensively; in the final attempt the degraded engine has already
  // evaluated (and discarded) every candidate at least once, so a mixed
  // scan cannot occur in practice.
  constexpr int kMaxEngineRestarts = 3;
  Count best_m = 0;
  for (int attempt = 0;; ++attempt) {
    loglik.mark_started();
    best_m = search();
    if (!loglik.engine_switched() || attempt >= kMaxEngineRestarts) break;
    engine_restarts_.inc();
  }
  return best_m;
}

}  // namespace shuffledef::core
