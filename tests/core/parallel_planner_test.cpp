// Property tests for the parallel Algorithm 1 sweep and the planner cache:
// every parallel/cached configuration must be BIT-IDENTICAL (EXPECT_EQ on
// doubles, not EXPECT_NEAR) to the serial/uncached one.
#include <gtest/gtest.h>

#include <optional>

#include "core/algorithm_one.h"
#include "core/planner_cache.h"
#include "core/shuffle_controller.h"
#include "util/random.h"

namespace shuffledef::core {
namespace {

AlgorithmOneOptions with_threads(Count threads) {
  AlgorithmOneOptions options;
  options.threads = threads;
  return options;
}

TEST(ParallelAlgorithmOne, ValueBitIdenticalAcrossThreadCounts) {
  util::Rng rng(2024);
  const AlgorithmOnePlanner serial(with_threads(1));
  for (int trial = 0; trial < 12; ++trial) {
    const Count n = 5 + static_cast<Count>(rng.uniform_int(0, 35));
    const Count m = static_cast<Count>(rng.uniform_int(0, n));
    const Count p = 2 + static_cast<Count>(rng.uniform_int(0, 6));
    const ShuffleProblem problem{n, m, p};
    const double want = serial.value(problem);
    for (const Count threads : {Count{2}, Count{3}, Count{7}}) {
      const AlgorithmOnePlanner parallel(with_threads(threads));
      EXPECT_EQ(parallel.value(problem), want)
          << "N=" << n << " M=" << m << " P=" << p << " threads=" << threads;
    }
  }
}

TEST(ParallelAlgorithmOne, PlanBitIdenticalAcrossThreadCounts) {
  util::Rng rng(7);
  const AlgorithmOnePlanner serial(with_threads(1));
  const AlgorithmOnePlanner parallel(with_threads(4));
  for (int trial = 0; trial < 8; ++trial) {
    const Count n = 8 + static_cast<Count>(rng.uniform_int(0, 30));
    const Count m = static_cast<Count>(rng.uniform_int(0, n / 2));
    const Count p = 2 + static_cast<Count>(rng.uniform_int(0, 5));
    const ShuffleProblem problem{n, m, p};
    EXPECT_EQ(parallel.plan(problem).counts(), serial.plan(problem).counts())
        << "N=" << n << " M=" << m << " P=" << p;
  }
}

TEST(ParallelAlgorithmOne, SharedPoolMatchesSerialToo) {
  // threads = 0 routes through the process-wide shared pool.
  const ShuffleProblem problem{30, 9, 5};
  EXPECT_EQ(AlgorithmOnePlanner(with_threads(0)).value(problem),
            AlgorithmOnePlanner(with_threads(1)).value(problem));
}

TEST(ParallelAlgorithmOne, OptionsComposeWithThreads) {
  // Tail truncation and a_cap must behave identically under the pool.
  AlgorithmOneOptions fast_serial;
  fast_serial.tail_epsilon = 1e-12;
  fast_serial.a_cap = 10;
  fast_serial.threads = 1;
  AlgorithmOneOptions fast_parallel = fast_serial;
  fast_parallel.threads = 5;
  for (const auto& problem :
       {ShuffleProblem{25, 10, 4}, ShuffleProblem{40, 8, 6}}) {
    EXPECT_EQ(AlgorithmOnePlanner(fast_parallel).value(problem),
              AlgorithmOnePlanner(fast_serial).value(problem));
  }
}

TEST(PlannerCache, EvictsLeastRecentlyUsed) {
  PlannerCache cache(2);
  const PlannerCacheKey a{"greedy", {10, 2, 3}};
  const PlannerCacheKey b{"greedy", {20, 4, 5}};
  const PlannerCacheKey c{"greedy", {30, 6, 7}};
  cache.put_value(a, 1.0);
  cache.put_value(b, 2.0);
  EXPECT_EQ(cache.get_value(a), std::optional<double>(1.0));  // a now MRU
  cache.put_value(c, 3.0);                                    // evicts b
  EXPECT_EQ(cache.get_value(a), std::optional<double>(1.0));
  EXPECT_FALSE(cache.get_value(b).has_value());
  EXPECT_EQ(cache.get_value(c), std::optional<double>(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlannerCache, DistinguishesPlannerKindAndOptions) {
  PlannerCache cache(8);
  const ShuffleProblem problem{10, 2, 3};
  cache.put_value({"greedy", problem}, 1.0);
  EXPECT_FALSE(cache.get_value({"dp", problem}).has_value());
  EXPECT_TRUE(cache.get_value({"greedy", problem}).has_value());
}

TEST(PlannerCache, PlanAndValueSlotsAreIndependent) {
  PlannerCache cache(4);
  const PlannerCacheKey key{"algorithm1", {12, 3, 4}};
  cache.put_plan(key, AssignmentPlan({6, 4, 1, 1}));
  EXPECT_FALSE(cache.get_value(key).has_value());  // value not filled yet
  cache.put_value(key, 5.5);
  EXPECT_EQ(cache.get_value(key), std::optional<double>(5.5));
  EXPECT_EQ(cache.get_plan(key)->counts(), (std::vector<Count>{6, 4, 1, 1}));
}

// A fresh controller per decision sequence, with and without the cache:
// the decisions must match exactly, round for round.
TEST(PlannerCache, CachedControllerDecisionsMatchUncached) {
  util::Rng rng(99);
  for (const char* planner : {"greedy", "even", "dp"}) {
    ControllerConfig cached_cfg;
    cached_cfg.planner = planner;
    cached_cfg.replicas = 6;
    cached_cfg.use_mle = false;
    cached_cfg.planner_cache_capacity = 16;
    ControllerConfig uncached_cfg = cached_cfg;
    uncached_cfg.planner_cache_capacity = 0;

    ShuffleController cached(cached_cfg);
    ShuffleController uncached(uncached_cfg);
    ASSERT_EQ(uncached.planner_cache(), nullptr);

    for (int round = 0; round < 30; ++round) {
      // A handful of distinct pool sizes so the cache actually gets hits.
      const Count pool = 40 + 10 * static_cast<Count>(rng.uniform_int(0, 3));
      const Count bots = pool / 5;
      cached.set_bot_estimate(bots);
      uncached.set_bot_estimate(bots);
      const auto a = cached.decide(pool, std::nullopt);
      const auto b = uncached.decide(pool, std::nullopt);
      EXPECT_EQ(a.plan.counts(), b.plan.counts()) << planner;
      EXPECT_EQ(a.bot_estimate, b.bot_estimate);
      EXPECT_EQ(a.replicas, b.replicas);
    }
    ASSERT_NE(cached.planner_cache(), nullptr);
    EXPECT_GT(cached.planner_cache()->hits(), 0u);
  }
}

}  // namespace
}  // namespace shuffledef::core
