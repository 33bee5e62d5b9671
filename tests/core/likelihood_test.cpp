#include "core/likelihood.h"

#include <cmath>
#include <gtest/gtest.h>
#include <numeric>

#include "util/math.h"

namespace shuffledef::core {
namespace {

double total(const std::vector<double>& pmf) {
  return std::accumulate(pmf.begin(), pmf.end(), 0.0);
}

TEST(ExactEngine, DegenerateNoBots) {
  const AssignmentPlan plan({3, 3, 4});
  const auto pmf = attacked_count_pmf_exact(plan, 0);
  ASSERT_EQ(pmf.size(), 4u);
  EXPECT_NEAR(pmf[0], 1.0, 1e-12);  // zero attacked replicas, surely
}

TEST(ExactEngine, OneBotAttacksProportionallyToSize) {
  const AssignmentPlan plan({2, 8});
  const auto pmf = attacked_count_pmf_exact(plan, 1);
  // Exactly one replica attacked, never zero or two.
  EXPECT_NEAR(pmf[0], 0.0, 1e-12);
  EXPECT_NEAR(pmf[1], 1.0, 1e-12);
  EXPECT_NEAR(pmf[2], 0.0, 1e-12);
}

TEST(ExactEngine, TwoBotsTwoEqualReplicasHandComputed) {
  // N=4 in buckets {2,2}, M=2: both bots in one bucket w.p. 2/C(4,2) = 1/3
  // (attacked = 1), split w.p. 2/3 (attacked = 2).
  const AssignmentPlan plan({2, 2});
  const auto pmf = attacked_count_pmf_exact(plan, 2);
  EXPECT_NEAR(pmf[0], 0.0, 1e-12);
  EXPECT_NEAR(pmf[1], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(pmf[2], 2.0 / 3.0, 1e-9);
}

TEST(ExactEngine, EmptyReplicasAreNeverAttacked) {
  const AssignmentPlan plan({0, 5, 0, 5});
  const auto pmf = attacked_count_pmf_exact(plan, 3);
  // At most 2 replicas can be attacked.
  EXPECT_NEAR(pmf[3], 0.0, 1e-12);
  EXPECT_NEAR(pmf[4], 0.0, 1e-12);
  EXPECT_NEAR(total(pmf), 1.0, 1e-9);
}

struct PmfCase {
  std::vector<Count> sizes;
  Count bots;
};

// Without this, gtest prints the raw bytes of the case, vector pointers
// included, so the discovered ctest names would change from run to run.
std::ostream& operator<<(std::ostream& os, const PmfCase& c) {
  os << "sizes=";
  for (std::size_t i = 0; i < c.sizes.size(); ++i) {
    os << (i == 0 ? "" : ",") << c.sizes[i];
  }
  return os << " M=" << c.bots;
}

class ExactVsMonteCarlo : public ::testing::TestWithParam<PmfCase> {};

TEST_P(ExactVsMonteCarlo, Agrees) {
  const auto& c = GetParam();
  const AssignmentPlan plan(c.sizes);
  const auto exact = attacked_count_pmf_exact(plan, c.bots);
  const auto mc = attacked_count_pmf_monte_carlo(plan, c.bots, 60000, 12345);
  ASSERT_EQ(exact.size(), mc.size());
  EXPECT_NEAR(total(exact), 1.0, 1e-9);
  for (std::size_t k = 0; k < exact.size(); ++k) {
    EXPECT_NEAR(exact[k], mc[k], 0.012) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactVsMonteCarlo,
    ::testing::Values(PmfCase{{5, 5, 5, 5}, 3}, PmfCase{{1, 2, 3, 4}, 2},
                      PmfCase{{10, 10, 10}, 8}, PmfCase{{7, 7, 7, 7, 7}, 1},
                      PmfCase{{20, 5, 5}, 4},
                      PmfCase{{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, 12}));

class IndependentVsMonteCarlo : public ::testing::TestWithParam<PmfCase> {};

// The independence engine is an approximation; it should land within a few
// percentage points of the truth on these moderately sized cases.
TEST_P(IndependentVsMonteCarlo, CloseEnough) {
  const auto& c = GetParam();
  const AssignmentPlan plan(c.sizes);
  const auto approx = attacked_count_pmf_independent(plan, c.bots);
  const auto mc = attacked_count_pmf_monte_carlo(plan, c.bots, 60000, 54321);
  ASSERT_EQ(approx.size(), mc.size());
  EXPECT_NEAR(total(approx), 1.0, 1e-9);
  // Compare means rather than bins (the approximation smears correlations).
  double mean_a = 0.0;
  double mean_m = 0.0;
  for (std::size_t k = 0; k < approx.size(); ++k) {
    mean_a += static_cast<double>(k) * approx[k];
    mean_m += static_cast<double>(k) * mc[k];
  }
  EXPECT_NEAR(mean_a, mean_m, 0.15 + 0.02 * mean_m);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndependentVsMonteCarlo,
    ::testing::Values(PmfCase{{10, 10, 10, 10}, 6}, PmfCase{{25, 25, 25, 25}, 10},
                      PmfCase{{5, 10, 15, 20}, 7}));

TEST(GaussianEngine, ModeNearTruthOnUniformPlan) {
  // 100 clients over 10 buckets of 10, 5 bots: E[attacked] = 10(1 - q),
  // q = C(90,5)/C(100,5).
  const AssignmentPlan plan(std::vector<Count>(10, 10));
  const GaussianAttackedCountLikelihood g(plan);
  const double q = util::prob_no_bots(100, 5, 10);
  const double mu = 10.0 * (1.0 - q);
  // The log-likelihood should peak at an observed count near mu.
  Count best_k = 0;
  double best = -1e300;
  for (Count k = 0; k <= 10; ++k) {
    const double ll = g.log_likelihood(5, k);
    if (ll > best) {
      best = ll;
      best_k = k;
    }
  }
  EXPECT_NEAR(static_cast<double>(best_k), mu, 1.0);
}

TEST(GaussianEngine, AllAttackedLikelihoodIncreasesInBots) {
  const AssignmentPlan plan(std::vector<Count>(20, 50));  // N=1000, P=20
  const GaussianAttackedCountLikelihood g(plan);
  double prev = -1e300;
  for (Count m : {20, 50, 100, 200, 500, 1000}) {
    const double ll = g.log_likelihood(m, 20);  // all 20 attacked
    EXPECT_GE(ll, prev - 1e-9) << "M=" << m;
    prev = ll;
  }
}

TEST(GaussianEngine, AgreesWithExactNearTheMode) {
  const AssignmentPlan plan(std::vector<Count>(10, 10));
  const GaussianAttackedCountLikelihood g(plan);
  const auto exact = attacked_count_pmf_exact(plan, 6);
  // Compare at the exact mode.
  std::size_t mode = 0;
  for (std::size_t k = 0; k < exact.size(); ++k) {
    if (exact[k] > exact[mode]) mode = k;
  }
  // The independence-style variance overestimates the true (negatively
  // correlated) spread, so the Gaussian under-weights the mode; what the
  // MLE needs is only that the mass is in the right place.
  const double approx = std::exp(g.log_likelihood(6, static_cast<Count>(mode)));
  EXPECT_GT(approx, 0.3 * exact[mode]);
  EXPECT_LT(approx, 3.0 * exact[mode]);
}

TEST(Engines, RejectOutOfRangeArguments) {
  const AssignmentPlan plan({5, 5});
  EXPECT_THROW(attacked_count_pmf_exact(plan, 11), std::invalid_argument);
  EXPECT_THROW(attacked_count_pmf_exact(plan, -1), std::invalid_argument);
  EXPECT_THROW(attacked_count_pmf_independent(plan, 11), std::invalid_argument);
  EXPECT_THROW((void)AttackedCountLikelihood(plan).log_likelihood(2, 3),
               std::invalid_argument);
  EXPECT_THROW((void)GaussianAttackedCountLikelihood(plan).log_likelihood(2, -1),
               std::invalid_argument);
}

TEST(ExactEngine, GroupStateGuardThrowsOnPathologicalPlans) {
  // 40 distinct sizes -> state explosion beyond a tiny guard.
  std::vector<Count> sizes;
  for (Count i = 1; i <= 40; ++i) sizes.push_back(i);
  EXPECT_THROW(attacked_count_pmf_exact(AssignmentPlan(sizes), 5, 64),
               std::invalid_argument);
}

TEST(AutoLikelihood, FallsBackGracefully) {
  std::vector<Count> sizes;
  for (Count i = 1; i <= 12; ++i) sizes.push_back(i);
  const AssignmentPlan plan(sizes);
  // Must not throw regardless of engine internals.
  const double ll = attacked_count_log_likelihood(plan, 6, 5);
  EXPECT_LE(ll, 0.0);
  EXPECT_TRUE(std::isfinite(ll));
}

TEST(MonteCarloEngine, DeterministicInSeed) {
  const AssignmentPlan plan({4, 4, 4});
  const auto a = attacked_count_pmf_monte_carlo(plan, 3, 2000, 7);
  const auto b = attacked_count_pmf_monte_carlo(plan, 3, 2000, 7);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace shuffledef::core
