// The paper-faithful Algorithm 1 dynamic program.
#include "core/algorithm_one.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "core/greedy_planner.h"
#include "core/separable_dp.h"

namespace shuffledef::core {
namespace {

TEST(AlgorithmOne, BaseCases) {
  AlgorithmOnePlanner dp;
  // P = 1: save everyone iff there are no bots.
  EXPECT_DOUBLE_EQ(dp.value({7, 0, 1}), 7.0);
  EXPECT_DOUBLE_EQ(dp.value({7, 3, 1}), 0.0);
  // No bots: everyone is saved regardless of P.
  EXPECT_DOUBLE_EQ(dp.value({9, 0, 4}), 9.0);
  // All bots: nobody is saved.
  EXPECT_DOUBLE_EQ(dp.value({5, 5, 3}), 0.0);
}

TEST(AlgorithmOne, HandComputedThreeSingletons) {
  // N=3, M=1, P=3: best is {1,1,1}; each singleton survives w.p. 2/3,
  // E(S) = 3 * 1 * 2/3 = 2.
  AlgorithmOnePlanner dp;
  EXPECT_NEAR(dp.value({3, 1, 3}), 2.0, 1e-9);
}

struct Case {
  Count n, m, p;
};

class AlgorithmOneVsSeparable : public ::testing::TestWithParam<Case> {};

// Algorithm 1's recurrence re-optimizes the remaining buckets *conditioned
// on* the bot count b that landed in the bucket just cut, so its value is an
// upper bound on what any fixed size-vector plan can achieve — and the bound
// is strict on many instances (adaptivity genuinely helps the idealized
// recurrence, by a few percent).  A deployable plan is always a fixed one,
// so the achievable optimum plotted at paper scale is the separable DP; this
// test pins down both the dominance and the small size of the gap.
TEST_P(AlgorithmOneVsSeparable, AdaptiveDominatesFixedWithSmallGap) {
  const auto [n, m, p] = GetParam();
  const ShuffleProblem problem{n, m, p};
  const double adaptive = AlgorithmOnePlanner().value(problem);
  const double fixed = SeparableDpPlanner().value(problem);
  EXPECT_GE(adaptive + 1e-9, fixed);
  EXPECT_LE(adaptive, 1.15 * fixed + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmOneVsSeparable,
    ::testing::Values(Case{6, 2, 2}, Case{8, 3, 3}, Case{10, 2, 4},
                      Case{12, 6, 3}, Case{15, 4, 5}, Case{20, 10, 4},
                      Case{25, 3, 6}, Case{30, 15, 5}, Case{40, 8, 8},
                      Case{50, 20, 10}));

TEST(AlgorithmOne, ExtractedPlanIsValidAndGood) {
  AlgorithmOnePlanner dp;
  const ShuffleProblem problem{30, 6, 5};
  const auto plan = dp.plan(problem);
  plan.validate_for(problem);
  // The extracted fixed plan cannot beat the adaptive value, and should be
  // close to the optimum.
  const double e = expected_saved(problem, plan);
  const double v = dp.value(problem);
  EXPECT_LE(e, v + 1e-9);
  EXPECT_GE(e, 0.95 * SeparableDpPlanner().value(problem));
}

TEST(AlgorithmOne, TailTruncationPreservesExactness) {
  AlgorithmOneOptions fast;
  fast.tail_epsilon = 1e-12;
  for (const auto& c : {Case{20, 5, 4}, Case{30, 12, 6}, Case{25, 20, 5}}) {
    const ShuffleProblem problem{c.n, c.m, c.p};
    EXPECT_NEAR(AlgorithmOnePlanner(fast).value(problem),
                AlgorithmOnePlanner().value(problem), 1e-6)
        << c.n << " " << c.m << " " << c.p;
  }
}

TEST(AlgorithmOne, ACapIsAValidLowerBoundHeuristic) {
  // Capping the search over a restricts the recurrence to smaller buckets,
  // so the value can only drop — and with a cap comfortably above omega it
  // stays within a few percent (the big-dump choices it forbids at interior
  // levels are available at the base level).
  AlgorithmOneOptions capped;
  capped.a_cap = 8;
  for (const auto& c : {Case{30, 6, 5}, Case{40, 10, 8}}) {
    const ShuffleProblem problem{c.n, c.m, c.p};
    const double exact = AlgorithmOnePlanner().value(problem);
    const double fast = AlgorithmOnePlanner(capped).value(problem);
    EXPECT_LE(fast, exact + 1e-9);
    EXPECT_GE(fast, 0.90 * exact);
  }
}

TEST(AlgorithmOne, ValueBeatsGreedy) {
  for (const auto& c : {Case{30, 6, 5}, Case{50, 20, 10}, Case{40, 8, 8}}) {
    const ShuffleProblem problem{c.n, c.m, c.p};
    const double greedy =
        expected_saved(problem, GreedyPlanner().plan(problem));
    EXPECT_GE(AlgorithmOnePlanner().value(problem) + 1e-9, greedy);
  }
}

TEST(AlgorithmOne, MemoryGuardThrows) {
  AlgorithmOneOptions tiny;
  tiny.memory_limit_bytes = 1024;
  EXPECT_THROW((void)AlgorithmOnePlanner(tiny).value({500, 100, 20}),
               std::invalid_argument);
}

// The argmax table has one layer per p = 2..P (layer 1 never splits), and
// the guard charges exactly that: two (N+1)(M+1) value layers of doubles
// plus P - 1 argmax layers of uint16.
TEST(AlgorithmOne, MemoryGuardChargesOnlyTheArgmaxLayersItUses) {
  const ShuffleProblem problem{40, 5, 2};
  constexpr std::size_t kLayer = 41 * 6;
  constexpr std::size_t kNeed = 2 * kLayer * sizeof(double) +
                                (2 - 1) * kLayer * sizeof(std::uint16_t);
  static_assert(kNeed == 4428);
  AlgorithmOneOptions exact_fit;
  exact_fit.memory_limit_bytes = kNeed;
  EXPECT_EQ(AlgorithmOnePlanner(exact_fit).plan(problem).counts(),
            AlgorithmOnePlanner().plan(problem).counts());
  AlgorithmOneOptions one_short;
  one_short.memory_limit_bytes = kNeed - 1;
  EXPECT_THROW((void)AlgorithmOnePlanner(one_short).plan(problem),
               std::invalid_argument);
}

TEST(AlgorithmOne, ValueMonotoneInReplicas) {
  AlgorithmOnePlanner dp;
  double prev = 0.0;
  for (Count p = 1; p <= 8; ++p) {
    const double v = dp.value({24, 6, p});
    EXPECT_GE(v + 1e-9, prev) << "P=" << p;
    prev = v;
  }
}

TEST(AlgorithmOne, ValueMonotoneDecreasingInBots) {
  AlgorithmOnePlanner dp;
  double prev = 1e18;
  for (Count m = 0; m <= 12; m += 3) {
    const double v = dp.value({24, m, 4});
    EXPECT_LE(v, prev + 1e-9) << "M=" << m;
    prev = v;
  }
}

}  // namespace
}  // namespace shuffledef::core
