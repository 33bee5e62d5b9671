#include "core/mle_estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/likelihood.h"
#include "util/random.h"

namespace shuffledef::core {
namespace {

ShuffleObservation observe(const AssignmentPlan& plan, Count bots,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  const auto placement = rng.multivariate_hypergeometric(plan.counts(), bots);
  std::vector<bool> attacked;
  attacked.reserve(placement.size());
  for (const auto b : placement) attacked.push_back(b > 0);
  return ShuffleObservation{plan, std::move(attacked)};
}

TEST(ShuffleObservation, CountsAndValidation) {
  const AssignmentPlan plan({3, 4, 5});
  ShuffleObservation obs{plan, {true, false, true}};
  EXPECT_EQ(obs.attacked_count(), 2);
  EXPECT_EQ(obs.clients_on_attacked(), 8);
  EXPECT_NO_THROW(obs.validate());
  ShuffleObservation bad{plan, {true, false}};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(MleEstimator, ZeroAttackedMeansZeroBots) {
  const AssignmentPlan plan({10, 10, 10});
  ShuffleObservation obs{plan, {false, false, false}};
  EXPECT_EQ(MleEstimator().estimate(obs), 0);
}

TEST(MleEstimator, EstimateWithinPaperBounds) {
  const AssignmentPlan plan(std::vector<Count>(20, 10));
  const auto obs = observe(plan, 15, 3);
  const Count m_hat = MleEstimator().estimate(obs);
  EXPECT_GE(m_hat, obs.attacked_count());
  EXPECT_LE(m_hat, obs.clients_on_attacked());
}

TEST(MleEstimator, AccurateOnAverage) {
  // Figure 7's main claim: accurate estimates when not all replicas are
  // attacked.  200 clients over 20 replicas, 12 bots.
  const AssignmentPlan plan(std::vector<Count>(20, 10));
  const MleEstimator mle;
  double sum = 0.0;
  const int reps = 60;
  for (int r = 0; r < reps; ++r) {
    sum += static_cast<double>(
        mle.estimate(observe(plan, 12, 1000 + static_cast<std::uint64_t>(r))));
  }
  EXPECT_NEAR(sum / reps, 12.0, 3.5);
}

TEST(MleEstimator, AllAttackedDegeneratesToUpperBound) {
  // Figure 7's second claim: when every replica is attacked the likelihood
  // increases with M, so MLE returns ~N (the total clients on attacked
  // replicas) — a wild overestimate.
  const AssignmentPlan plan(std::vector<Count>(10, 10));
  ShuffleObservation obs{plan, std::vector<bool>(10, true)};
  const Count m_hat = MleEstimator().estimate(obs);
  EXPECT_EQ(m_hat, obs.clients_on_attacked());
}

TEST(MleEstimator, RefinementMatchesExhaustive) {
  const AssignmentPlan plan(std::vector<Count>(25, 20));  // N=500
  MleOptions exhaustive_opts;
  exhaustive_opts.exhaustive = true;
  const MleEstimator fast;
  const MleEstimator exhaustive(exhaustive_opts);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto obs = observe(plan, 30, seed);
    const Count a = fast.estimate(obs);
    const Count b = exhaustive.estimate(obs);
    // The refinement should land on (or immediately next to) the same
    // argmax; the likelihood is extremely flat near the peak, so allow a
    // small neighborhood.
    EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b),
                0.05 * static_cast<double>(b) + 3.0)
        << "seed=" << seed;
  }
}

TEST(MleEstimator, EngineSwitchMidScanRestartsCleanly) {
  // Quadratically spread replica sizes defeat the exact engine's
  // inclusion-exclusion for mid-range M (deep cancellation) while small M
  // evaluates fine, so a forced-exact scan switches engines mid-search.
  // Regression: the estimator must restart until one engine covers every
  // candidate instead of returning an argmax over mixed, incomparable
  // likelihoods — and the restart loop must terminate.
  std::vector<Count> sizes;
  for (Count i = 0; i < 16; ++i) sizes.push_back(1 + i * i);  // N = 1256
  const AssignmentPlan plan(sizes);
  std::vector<bool> attacked(16, false);
  for (std::size_t i = 10; i < 16; ++i) attacked[i] = true;  // 6 largest hit
  const ShuffleObservation obs{plan, attacked};
  const Count lo = obs.attacked_count();
  const Count hi = obs.clients_on_attacked();

  // The scenario must actually trip the exact engine inside the scan range,
  // otherwise this test exercises nothing.
  bool exact_throws = false;
  const AttackedCountLikelihood exact(plan);
  for (Count m = lo; m <= hi && !exact_throws; ++m) {
    try {
      (void)exact.log_likelihood(m, lo);
    } catch (const std::invalid_argument&) {
      exact_throws = true;
    }
  }
  ASSERT_TRUE(exact_throws);

  MleOptions opts;
  opts.engine = LikelihoodEngine::kExact;
  opts.exhaustive = true;
  const Count got = MleEstimator(opts).estimate(obs);

  // After the restart the whole argmax must come from the independence
  // fallback (first-strictly-greater tie-breaking, ascending M — the same
  // order the estimator scans in).
  Count want = lo;
  double best = -std::numeric_limits<double>::infinity();
  for (Count m = lo; m <= hi; ++m) {
    const auto pmf = attacked_count_pmf_independent(plan, m);
    const double ll =
        std::log(std::max(pmf[static_cast<std::size_t>(lo)], 1e-300));
    if (ll > best) {
      best = ll;
      want = m;
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_GE(got, lo);
  EXPECT_LE(got, hi);
}

TEST(MleEstimator, GaussianEngineTracksTruthAtScale) {
  // The live-controller configuration: P = 400 replicas, Gaussian engine.
  MleOptions opts;
  opts.engine = LikelihoodEngine::kGaussian;
  const MleEstimator mle(opts);
  const AssignmentPlan plan(std::vector<Count>(400, 25));  // N = 10000
  double sum = 0.0;
  const int reps = 20;
  for (int r = 0; r < reps; ++r) {
    sum += static_cast<double>(
        mle.estimate(observe(plan, 300, 77 + static_cast<std::uint64_t>(r))));
  }
  EXPECT_NEAR(sum / reps, 300.0, 45.0);
}

struct RecoveryCase {
  Count replicas, per_replica, bots;
};

class MleRecovery : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(MleRecovery, MeanWithinTwentyPercent) {
  const auto [p, x, m] = GetParam();
  const AssignmentPlan plan(std::vector<Count>(static_cast<std::size_t>(p), x));
  const MleEstimator mle;
  double sum = 0.0;
  const int reps = 40;
  for (int r = 0; r < reps; ++r) {
    sum += static_cast<double>(mle.estimate(
        observe(plan, m, 5000 + static_cast<std::uint64_t>(r))));
  }
  const double mean = sum / reps;
  EXPECT_NEAR(mean, static_cast<double>(m),
              0.2 * static_cast<double>(m) + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MleRecovery,
                         ::testing::Values(RecoveryCase{20, 10, 5},
                                           RecoveryCase{20, 10, 20},
                                           RecoveryCase{50, 10, 30},
                                           RecoveryCase{40, 25, 15},
                                           RecoveryCase{30, 20, 40}));

}  // namespace
}  // namespace shuffledef::core
