// Maximum-likelihood estimation of the persistent-bot count (paper §V).
//
// Enumerate candidate values of M, score each by the probability that it
// produces the observed number X of attacked replicas, and return the
// argmax.  Candidate bounds follow the paper: X <= M <= (clients assigned to
// attacked replicas).
//
// Two deliberate reproductions of the paper's findings:
//   * when every shuffling replica is attacked the likelihood is increasing
//     in M, so the estimate degenerates to the upper bound — the condition
//     Theorem 1 exists to avoid;
//   * everywhere else the estimate is accurate (Figure 7).
//
// The paper enumerates all candidates (O(M^2 P)).  The likelihood in M is
// unimodal, so by default this implementation uses a coarse-to-fine grid
// refinement needing O(log) pmf evaluations; `exhaustive = true` restores
// the paper's full scan (tests verify both agree).
#pragma once

#include "core/estimator.h"
#include "obs/registry.h"

namespace shuffledef::core {

enum class LikelihoodEngine {
  kAuto,         // exact when cheap enough, Gaussian otherwise
  kExact,        // inclusion-exclusion (throws if the plan is too irregular)
  kIndependence, // Poisson-binomial convolution
  kGaussian,     // normal approximation (O(#distinct sizes) per candidate)
};

struct MleOptions {
  bool exhaustive = false;     // full candidate scan instead of refinement
  LikelihoodEngine engine = LikelihoodEngine::kAuto;
  /// Observability sink (nullptr = uninstrumented): counters
  /// "mle.estimates" and "mle.engine_restarts" plus span "mle.estimate".
  obs::Registry* registry = nullptr;
};

class MleEstimator final : public AttackScaleEstimator {
 public:
  explicit MleEstimator(MleOptions options = {});

  [[nodiscard]] Count estimate(const ShuffleObservation& obs) const override;
  [[nodiscard]] std::string name() const override { return "mle"; }

 private:
  MleOptions options_;
  // Null handles when options_.registry is null (all ops no-op).
  obs::Counter estimates_;
  obs::Counter engine_restarts_;
};

}  // namespace shuffledef::core
