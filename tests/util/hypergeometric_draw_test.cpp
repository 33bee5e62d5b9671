// Oracle battery for the certified one-item hypergeometric decision.
//
// Rng decides a one-item draw by the ratio n/t wherever the variate clears
// the walk's thresholds by kOneItemMargin, and runs the exact walk on the
// same variate otherwise.  The battery holds that to the sampler as it drew
// before (frozen_hypergeometric.h), stream for stream, and holds the
// decision to the walk variate by variate at the thresholds' edges.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include "core/greedy_planner.h"
#include "frozen_hypergeometric.h"
#include "util/hypergeometric_detail.h"
#include "util/math.h"
#include "util/random.h"

namespace shuffledef::util {
namespace {

constexpr int kSeeds = 200;
constexpr double kStep = 0x1.0p-53;  // Rng::uniform's grid

// Every placement draw, output and engine position, against the frozen loop.
void expect_same_streams(const std::vector<std::int64_t>& sizes,
                         std::int64_t successes) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    Rng frozen(static_cast<std::uint64_t>(seed));
    for (int draw = 0; draw < 3; ++draw) {
      ASSERT_EQ(rng.multivariate_hypergeometric(sizes, successes),
                frozen_multivariate_hypergeometric(frozen, sizes, successes))
          << "seed " << seed << " draw " << draw << " successes " << successes;
    }
    ASSERT_EQ(rng.next_u64(), frozen.next_u64()) << "seed " << seed;
  }
}

TEST(CertifiedDraw, MultivariateMatchesTheFrozenSamplerOnGreedyPlans) {
  struct Shape {
    std::int64_t clients, bots;
  };
  std::int64_t one_client_buckets = 0;
  for (const Shape shape : {Shape{150000, 100000}, Shape{60000, 50000},
                            Shape{20000, 10000}, Shape{60000, 10000}}) {
    const auto plan =
        core::GreedyPlanner().plan({shape.clients, shape.bots, 1000});
    one_client_buckets += std::count(plan.counts().begin(),
                                     plan.counts().end(), std::int64_t{1});
    expect_same_streams(plan.counts(), shape.bots);
  }
  EXPECT_GT(one_client_buckets, 1000);  // the decision is exercised
}

TEST(CertifiedDraw, MultivariateMatchesTheFrozenSamplerOnTheIdentityGrid) {
  // The grids of RngIdentity.MultivariateHypergeometricGolden.
  expect_same_streams({10, 0, 25, 5, 60, 33, 1, 66}, 57);
  std::vector<std::int64_t> grid(1000);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = 1 + static_cast<std::int64_t>((i * 37) % 200);
  }
  expect_same_streams(grid, 30000);
  expect_same_streams({600000, 300000, 200000, 100000, 50000}, 400000);
}

TEST(CertifiedDraw, MultivariateMatchesTheFrozenSamplerAcrossTheTableEdge) {
  // 300 one-client buckets ahead of a dump bucket: the first 150 draws see
  // totals at or above the table's capacity (the lgamma path, which the
  // decision leaves to the walk), the rest see totals below it.
  std::vector<std::int64_t> sizes(300, 1);
  sizes.push_back(LogFactorialTable::kCapacity + 150 - 300);
  for (const std::int64_t successes :
       {std::int64_t{1}, std::int64_t{1} << 19, std::int64_t{700000},
        LogFactorialTable::kCapacity - 1}) {
    expect_same_streams(sizes, successes);
  }
}

TEST(CertifiedDraw, SingleDrawsMatchTheFrozenSampler) {
  // Degenerate supports included: they must not consume a variate.
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng params(static_cast<std::uint64_t>(seed) + 7777);
    Rng rng(static_cast<std::uint64_t>(seed));
    Rng frozen(static_cast<std::uint64_t>(seed));
    for (int i = 0; i < 200; ++i) {
      const std::int64_t total = params.uniform_int(0, 40);
      const std::int64_t successes = params.uniform_int(0, total);
      const std::int64_t draws =
          i % 2 == 0 ? 1 : params.uniform_int(0, total);
      if (draws > total) continue;
      ASSERT_EQ(rng.hypergeometric(total, successes, draws),
                frozen_hypergeometric(frozen, total, successes, draws))
          << "seed " << seed << " (" << total << ", " << successes << ", "
          << draws << ")";
    }
    ASSERT_EQ(rng.next_u64(), frozen.next_u64()) << "seed " << seed;
  }
}

// The boundary grid: every (t, s) with t <= 300, the anchor switch
// 2s in {t - 1, t, t + 1} at random t below the table's capacity, and
// random pairs below it.
struct Pair {
  std::int64_t total, successes;
};

std::vector<Pair> boundary_pairs() {
  std::vector<Pair> pairs;
  for (std::int64_t t = 2; t <= 300; ++t) {
    for (std::int64_t s = 1; s < t; ++s) pairs.push_back({t, s});
  }
  Rng rng(20140623);
  const std::int64_t top = LogFactorialTable::kCapacity - 1;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t = rng.uniform_int(3, top);
    for (const std::int64_t twice_s : {t - 1, t, t + 1}) {
      if (twice_s % 2 == 0) pairs.push_back({t, twice_s / 2});
    }
  }
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t t = rng.uniform_int(2, top);
    pairs.push_back({t, rng.uniform_int(1, t - 1)});
  }
  return pairs;
}

// What the walk computes for a one-item draw: the anchor (1 iff 2s >= t), n
// (the anchor point's count), the anchor's mass, and the one-step
// cumulative, with the walk's own arithmetic (the ratio to the other point
// is (t - n) / n).
struct OneItemWalk {
  std::int64_t anchor;
  double n, p_anchor, cum;
};

OneItemWalk one_item_walk(const Pair& pair) {
  OneItemWalk w{};
  w.anchor = 2 * pair.successes >= pair.total ? 1 : 0;
  w.n = static_cast<double>(w.anchor == 1 ? pair.successes
                                          : pair.total - pair.successes);
  w.p_anchor =
      hypergeometric_pmf_in_support(pair.total, pair.successes, 1, w.anchor);
  const double t = static_cast<double>(pair.total);
  w.cum = w.p_anchor + w.p_anchor * ((t - w.n) / w.n);
  return w;
}

// Variates on Rng::uniform's grid within 4 steps of x.
void add_probes(std::vector<double>& us, double x) {
  const double centre = std::floor(x / kStep) * kStep;
  for (int j = -4; j <= 4; ++j) {
    const double u = centre + j * kStep;
    if (u >= 0.0 && u < 1.0) us.push_back(u);
  }
}

TEST(CertifiedDraw, DecisionAgreesWithTheWalkAtEveryEdge) {
  const double m = detail::kOneItemMargin;
  std::int64_t decided = 0;
  std::int64_t probes = 0;
  for (const Pair& pair : boundary_pairs()) {
    const auto w = one_item_walk(pair);
    const double ratio = w.n / static_cast<double>(pair.total);
    std::vector<double> us = {0.0, 1.0 - kStep};
    add_probes(us, w.p_anchor);
    add_probes(us, ratio * (1.0 - m));
    add_probes(us, ratio * (1.0 + m));
    add_probes(us, w.cum);
    add_probes(us, 1.0 - m);
    for (const double u : us) {
      const std::int64_t walk =
          detail::hypergeometric_walk(pair.total, pair.successes, 1, u);
      const std::int64_t k =
          detail::one_item_decision(pair.total, pair.successes, u);
      ++probes;
      if (k == detail::kUndecided) continue;
      ++decided;
      ASSERT_EQ(k, walk) << "t " << pair.total << " s " << pair.successes
                         << " u " << u;
    }
    // Far from both thresholds the decision decides, on both sides.
    ASSERT_EQ(detail::one_item_decision(pair.total, pair.successes, 0.0),
              w.anchor);
    ASSERT_EQ(detail::one_item_decision(pair.total, pair.successes,
                                        std::floor((1.0 + ratio) / 2.0 /
                                                   kStep) * kStep),
              1 - w.anchor);
  }
  // About a third of the probes lie clear of the margin.
  EXPECT_GT(decided, probes / 4);
}

TEST(CertifiedDraw, AnchorMassIsWithinTheProvenBound) {
  // DESIGN.md derives |pmf(anchor) t / n - 1| <= 1.9e-9 (2^-29 and a few
  // ulps) below the table's capacity; the margin is 2^-24.  Hold the grid
  // to 2^-28, and the one-step cumulative to the same distance from 1.
  double worst = 0.0;
  for (const Pair& pair : boundary_pairs()) {
    const auto w = one_item_walk(pair);
    const double rel = w.p_anchor * static_cast<double>(pair.total) / w.n - 1;
    worst = std::max(worst, std::abs(rel));
    ASSERT_LE(std::abs(rel), 0x1.0p-28)
        << "t " << pair.total << " s " << pair.successes;
    ASSERT_LE(std::abs(w.cum - 1.0), 0x1.0p-28)
        << "t " << pair.total << " s " << pair.successes;
  }
  RecordProperty("worst_relative_deviation", testing::PrintToString(worst));
}

}  // namespace
}  // namespace shuffledef::util
