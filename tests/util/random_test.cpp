#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <numeric>
#include <random>

#include "util/math.h"

namespace shuffledef::util {
namespace {

// ---------------------------------------------------------------------------
// Identity battery: util::Rng streams are MT19937-64, bit for bit.  The
// oracle is std::mt19937_64 seeded through the same splitmix64 -> seed_seq
// path as Rng's constructor; every golden and benchmark digest in the repo
// depends on these streams staying identical.

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

// The eight seed_seq inputs Rng(seed) derives.
std::vector<std::uint64_t> rng_seed_words(std::uint64_t seed) {
  std::uint64_t s = seed;
  std::vector<std::uint64_t> words(8);
  for (auto& w : words) w = splitmix64(s);
  return words;
}

std::mt19937_64 oracle(std::uint64_t seed) {
  const auto words = rng_seed_words(seed);
  std::seed_seq seq(words.begin(), words.end());
  return std::mt19937_64(seq);
}

// 100 consecutive seeds plus edge and high-bit seeds.
std::vector<std::uint64_t> battery_seeds() {
  std::vector<std::uint64_t> seeds(100);
  std::iota(seeds.begin(), seeds.end(), std::uint64_t{0});
  for (const std::uint64_t s :
       {std::uint64_t{0x5DEECE66D}, std::uint64_t{20140623},
        std::uint64_t{1} << 63, ~std::uint64_t{0}, std::uint64_t{0xDEADBEEF}}) {
    seeds.push_back(s);
  }
  return seeds;
}

TEST(RngIdentity, EngineMatchesStdMt19937_64AcrossTwists) {
  constexpr int kDraws = 312 * 6 + 5;  // six full twists and a partial one
  for (const std::uint64_t seed : battery_seeds()) {
    const auto words = rng_seed_words(seed);
    std::seed_seq seq(words.begin(), words.end());
    Mt19937_64 engine(seq);
    std::mt19937_64 want = oracle(seed);
    Rng rng(seed);
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t w = want();
      ASSERT_EQ(engine(), w) << "seed " << seed << " draw " << i;
      ASSERT_EQ(rng.next_u64(), w) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngIdentity, ForkedStreamsMatchTheOracle) {
  const Rng parent(77);
  for (std::uint64_t salt = 0; salt < 8; ++salt) {
    Rng child = parent.fork(salt);
    // fork() is Rng(splitmix64(seed ^ f(salt))): reproduce it for the oracle.
    std::uint64_t s = std::uint64_t{77} ^
                      (0xA5A5A5A5DEADBEEFULL + salt * 0x9E3779B97F4A7C15ULL);
    std::mt19937_64 want = oracle(splitmix64(s));
    for (int i = 0; i < 400; ++i) ASSERT_EQ(child.next_u64(), want());
  }
}

// A seed sequence whose words are all zero except an optional word 0: drives
// the [rand.eng.mers] all-zero fix-up that no std::seed_seq output reaches.
struct FixedSeedSeq {
  using result_type = std::uint32_t;
  std::uint32_t first = 0;
  template <typename It>
  void generate(It begin, It end) {
    std::fill(begin, end, 0u);
    if (begin != end) *begin = first;
  }
};

TEST(RngIdentity, AllZeroStateFixUpMatchesTheStandard) {
  // Only the upper 33 bits of word 0 count, so 0 and 0x7FFFFFFF both need
  // the fix-up; 0x80000000 sets bit 31 and does not.
  for (const std::uint32_t first : {0u, 0x7FFFFFFFu, 0x80000000u}) {
    FixedSeedSeq seq{first};
    std::seed_seq unused;
    Mt19937_64 engine(unused);
    engine.seed(seq);
    std::mt19937_64 want;
    want.seed(seq);
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(engine(), want()) << "first word " << first << " draw " << i;
    }
  }
}

TEST(RngIdentity, UniformMatchesTheOracle) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    std::mt19937_64 want = oracle(seed);
    for (int i = 0; i < 1000; ++i) {
      const double u = static_cast<double>(want() >> 11) * 0x1.0p-53;
      ASSERT_EQ(rng.uniform(), u);
      const double p = (i % 7) / 6.0;  // includes the no-draw edges 0 and 1
      const bool b =
          p > 0.0 &&
          (p >= 1.0 || static_cast<double>(want() >> 11) * 0x1.0p-53 < p);
      ASSERT_EQ(rng.bernoulli(p), b);
    }
  }
}

TEST(RngIdentity, UniformIntMatchesStdUniformIntDistribution) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "the oracle is libstdc++'s uniform_int_distribution";
#endif
  const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
      {0, 0},         {5, 5},          {kI64Min, kI64Min},
      {0, 1},         {3, 7},          {-1000, 1000},
      {0, 999},       {0, 1LL << 32},  {-(1LL << 62), 1LL << 62},
      {0, kI64Max},   {kI64Min, -1},   {kI64Min, 0},
      {kI64Min, kI64Max},        // full 64-bit range: one raw word
      {0, (1LL << 62) + 12345},  // large threshold: frequent rejections
      {-1, kI64Max},             // range 2^63 + 1: rejects about half
  };
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    Rng rng(seed);
    std::mt19937_64 want = oracle(seed);
    for (int round = 0; round < 200; ++round) {
      for (const auto& [lo, hi] : ranges) {
        std::uniform_int_distribution<std::int64_t> dist(lo, hi);
        ASSERT_EQ(rng.uniform_int(lo, hi), dist(want))
            << "seed " << seed << " [" << lo << ", " << hi << "]";
      }
      // An empty range throws without consuming a draw.
      ASSERT_THROW(rng.uniform_int(1, 0), std::invalid_argument);
      ASSERT_THROW(rng.uniform_int(kI64Max, kI64Min), std::invalid_argument);
    }
    ASSERT_EQ(rng.next_u64(), want());
  }
}

TEST(RngIdentity, DistributionsMatchTheOracle) {
  // Rng builds a fresh distribution per call, so the oracle does too (one
  // object per engine per call): normal_distribution caches its second
  // value, and a shared object would hand it to the wrong stream.
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    Rng rng(seed);
    std::mt19937_64 want = oracle(seed);
    for (int i = 0; i < 300; ++i) {
      for (const double mean : {0.3, 4.0, 11.9, 12.5, 250.0, 1e6}) {
        std::poisson_distribution<std::int64_t> dist(mean);
        ASSERT_EQ(rng.poisson(mean), dist(want)) << "poisson " << mean;
      }
      for (const auto& [n, p] : std::vector<std::pair<std::int64_t, double>>{
               {1, 0.5}, {10, 0.3}, {40, 0.9}, {1000, 0.02}, {100000, 0.45}}) {
        std::binomial_distribution<std::int64_t> dist(n, p);
        ASSERT_EQ(rng.binomial(n, p), dist(want))
            << "binomial " << n << "," << p;
      }
      for (const auto& [mu, sd] : std::vector<std::pair<double, double>>{
               {0.0, 1.0}, {-3.5, 0.25}, {1e4, 300.0}}) {
        std::normal_distribution<double> dist(mu, sd);
        ASSERT_EQ(rng.normal(mu, sd), dist(want))
            << "normal " << mu << "," << sd;
      }
      for (const double rate : {0.01, 1.0, 37.5}) {
        std::exponential_distribution<double> dist(rate);
        ASSERT_EQ(rng.exponential(rate), dist(want)) << "exponential " << rate;
      }
    }
    ASSERT_EQ(rng.next_u64(), want());
  }
}

TEST(RngIdentity, ShuffleMatchesStdFisherYates) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "the oracle is libstdc++'s uniform_int_distribution";
#endif
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    Rng rng(seed);
    std::mt19937_64 want = oracle(seed);
    for (const std::size_t n : {0, 1, 2, 3, 17, 1000, 100000}) {
      std::vector<std::int64_t> got(n);
      std::iota(got.begin(), got.end(), 0);
      auto expected = got;
      rng.shuffle(got);
      for (std::size_t i = expected.size(); i > 1; --i) {
        std::uniform_int_distribution<std::int64_t> dist(
            0, static_cast<std::int64_t>(i) - 1);
        std::swap(expected[i - 1],
                  expected[static_cast<std::size_t>(dist(want))]);
      }
      ASSERT_EQ(got, expected) << "seed " << seed << " n " << n;
    }
    ASSERT_EQ(rng.next_u64(), want());
  }
}

// The client-level simulator's pool holds 4-byte tokens where it once held
// 8-byte client ids; its digests stay the same only because the shuffle's
// draws depend on nothing but the vector's length.
TEST(RngIdentity, ShuffleDrawsDependOnlyOnLength) {
  for (const std::size_t n : {0, 1, 2, 17, 1000, 100000}) {
    std::vector<std::int32_t> narrow(n);
    std::iota(narrow.begin(), narrow.end(), 0);
    std::vector<std::int64_t> wide(narrow.begin(), narrow.end());
    Rng narrow_rng(77);
    Rng wide_rng(77);
    narrow_rng.shuffle(narrow);
    wide_rng.shuffle(wide);
    ASSERT_TRUE(std::equal(narrow.begin(), narrow.end(), wide.begin(),
                           wide.end()))
        << "n " << n;
    ASSERT_EQ(narrow_rng.next_u64(), wide_rng.next_u64()) << "n " << n;
  }
}

std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(RngIdentity, MultivariateHypergeometricGolden) {
  // Recorded before the engine and the placement path were rewritten; the
  // 1000-bucket grid is the Fig-8 placement shape, and the 1.25M-item draws
  // take the lgamma path above the 2^20-entry log-factorial table.
  Rng rng(20140623);
  const std::vector<std::int64_t> small = {10, 0, 25, 5, 60, 33, 1, 66};
  const std::vector<std::vector<std::int64_t>> want_small = {
      {3, 0, 4, 1, 23, 8, 0, 18},
      {1, 0, 9, 3, 17, 14, 0, 13},
      {2, 0, 6, 0, 20, 9, 0, 20},
      {3, 0, 8, 1, 16, 13, 1, 15},
  };
  for (const auto& want : want_small) {
    EXPECT_EQ(rng.multivariate_hypergeometric(small, 57), want);
  }
  std::vector<std::int64_t> grid(1000);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = 1 + static_cast<std::int64_t>((i * 37) % 200);
  }
  const std::vector<std::int64_t> huge = {600000, 300000, 200000, 100000,
                                          50000};
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (int r = 0; r < 50; ++r) {
    for (const auto v : rng.multivariate_hypergeometric(grid, 30000)) {
      h = fnv1a(h, v);
    }
    for (const auto v : rng.multivariate_hypergeometric(huge, 400000)) {
      h = fnv1a(h, v);
    }
  }
  h = fnv1a(h, static_cast<std::int64_t>(rng.next_u64()));
  EXPECT_EQ(h, 0xccf3a045c5dae8e9ULL);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent(7);
  Rng f1 = parent.fork(1);
  Rng f2 = parent.fork(2);
  Rng f1_again = Rng(7).fork(1);
  EXPECT_EQ(f1.next_u64(), f1_again.next_u64());
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, PoissonMeanRoughlyCorrect) {
  Rng rng(5);
  const double mean = 17.5;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
  // SE = sqrt(mean/n) ~ 0.03; allow 6 sigma.
  EXPECT_NEAR(sum / n, mean, 0.2);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

struct HgSampleCase {
  std::int64_t total, successes, draws;
};

class HypergeometricSampler : public ::testing::TestWithParam<HgSampleCase> {};

TEST_P(HypergeometricSampler, WithinSupport) {
  const auto [total, successes, draws] = GetParam();
  Rng rng(11);
  const auto support = hypergeometric_support(total, successes, draws);
  for (int i = 0; i < 2000; ++i) {
    const auto k = rng.hypergeometric(total, successes, draws);
    EXPECT_GE(k, support.lo);
    EXPECT_LE(k, support.hi);
  }
}

TEST_P(HypergeometricSampler, EmpiricalMeanMatches) {
  const auto [total, successes, draws] = GetParam();
  Rng rng(12);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.hypergeometric(total, successes, draws));
  }
  const double mu = hypergeometric_mean(total, successes, draws);
  const double sd = std::sqrt(std::max(hypergeometric_var(total, successes, draws), 1e-12));
  EXPECT_NEAR(sum / n, mu, 6.0 * sd / std::sqrt(static_cast<double>(n)) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HypergeometricSampler,
    ::testing::Values(HgSampleCase{10, 3, 4}, HgSampleCase{100, 50, 10},
                      HgSampleCase{1000, 5, 600}, HgSampleCase{1000, 995, 600},
                      HgSampleCase{50000, 1000, 150},
                      HgSampleCase{150000, 100000, 150},
                      HgSampleCase{8, 8, 3}, HgSampleCase{8, 0, 3}));

TEST(HypergeometricSampler, ChiSquareAgainstPmf) {
  // Goodness of fit on a moderate case; generous threshold to stay stable.
  const std::int64_t total = 60, successes = 25, draws = 12;
  Rng rng(13);
  const auto support = hypergeometric_support(total, successes, draws);
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(support.hi - support.lo + 1), 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(
        rng.hypergeometric(total, successes, draws) - support.lo)];
  }
  double chi2 = 0.0;
  int dof = 0;
  for (std::int64_t k = support.lo; k <= support.hi; ++k) {
    const double expected =
        n * hypergeometric_pmf(total, successes, draws, k);
    if (expected < 5.0) continue;  // merge-tail convention: skip tiny bins
    const double observed =
        static_cast<double>(counts[static_cast<std::size_t>(k - support.lo)]);
    chi2 += (observed - expected) * (observed - expected) / expected;
    ++dof;
  }
  // 99.9th percentile of chi2 with ~12 dof is ~33; anything wildly above
  // signals a broken sampler.
  EXPECT_LT(chi2, 60.0) << "chi2=" << chi2 << " dof=" << dof;
}

TEST(MultivariateHypergeometric, ConservesTotals) {
  Rng rng(14);
  const std::vector<std::int64_t> sizes = {10, 0, 25, 5, 60};
  for (std::int64_t m : {0L, 1L, 37L, 99L, 100L}) {
    const auto out = rng.multivariate_hypergeometric(sizes, m);
    ASSERT_EQ(out.size(), sizes.size());
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_GE(out[i], 0);
      EXPECT_LE(out[i], sizes[i]);
      sum += out[i];
    }
    EXPECT_EQ(sum, m);
  }
}

TEST(MultivariateHypergeometric, MarginalMeansProportionalToSizes) {
  Rng rng(15);
  const std::vector<std::int64_t> sizes = {100, 300, 600};
  const std::int64_t m = 250;
  std::vector<double> mean(sizes.size(), 0.0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto out = rng.multivariate_hypergeometric(sizes, m);
    for (std::size_t j = 0; j < out.size(); ++j) {
      mean[j] += static_cast<double>(out[j]);
    }
  }
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    const double expected = 250.0 * static_cast<double>(sizes[j]) / 1000.0;
    EXPECT_NEAR(mean[j] / n, expected, expected * 0.05 + 0.5);
  }
}

TEST(MultivariateHypergeometric, RejectsBadInput) {
  Rng rng(16);
  const std::vector<std::int64_t> sizes = {5, 5};
  EXPECT_THROW(rng.multivariate_hypergeometric(sizes, 11),
               std::invalid_argument);
  EXPECT_THROW(rng.multivariate_hypergeometric(sizes, -1),
               std::invalid_argument);
  const std::vector<std::int64_t> bad = {5, -1};
  EXPECT_THROW(rng.multivariate_hypergeometric(bad, 2), std::invalid_argument);
}

TEST(Shuffle, IsAPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), w.begin()));  // astronomically unlikely
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Binomial, EdgeCases) {
  Rng rng(18);
  EXPECT_EQ(rng.binomial(0, 0.5), 0);
  EXPECT_EQ(rng.binomial(10, 0.0), 0);
  EXPECT_EQ(rng.binomial(10, 1.0), 10);
  EXPECT_THROW(rng.binomial(-1, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace shuffledef::util
