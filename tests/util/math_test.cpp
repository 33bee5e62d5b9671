#include "util/math.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <random>

#include "eager_log_factorial.h"

namespace shuffledef::util {
namespace {

constexpr std::int64_t kCapacity = LogFactorialTable::kCapacity;
constexpr std::int64_t kChunk = LogFactorialTable::kChunk;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Fills what is left of `table`, then compares every entry with the eager
// recurrence, bit for bit.
void expect_matches_eager(LogFactorialTable& table) {
  const double* t = table.cover(kCapacity - 1);
  ASSERT_EQ(table.filled(), kCapacity);
  EXPECT_EQ(std::memcmp(t, eager_log_factorials().data(),
                        static_cast<std::size_t>(kCapacity) * sizeof(double)),
            0);
}

TEST(LogFactorialTable, GrowsInWholeChunksThroughTheRequest) {
  LogFactorialTable table;
  EXPECT_EQ(table.filled(), 0);
  (void)table.cover(0);
  EXPECT_EQ(table.filled(), kChunk);
  (void)table.cover(kChunk - 1);  // already covered
  EXPECT_EQ(table.filled(), kChunk);
  (void)table.cover(kChunk);
  EXPECT_EQ(table.filled(), 2 * kChunk);
  (void)table.cover(5 * kChunk + 7);
  EXPECT_EQ(table.filled(), 6 * kChunk);
  (void)table.cover(kCapacity + 12345);  // past the end: the whole table
  EXPECT_EQ(table.filled(), kCapacity);
}

TEST(LogFactorialTable, AscendingGrowthMatchesEagerBuild) {
  LogFactorialTable table;
  for (std::int64_t n = 0; n < kCapacity; n += 3001) (void)table.cover(n);
  expect_matches_eager(table);
}

TEST(LogFactorialTable, DescendingGrowthMatchesEagerBuild) {
  // Each pass grows from where the last one stopped, then reads its way
  // down through entries that earlier passes built.
  const auto& eager = eager_log_factorials();
  LogFactorialTable table;
  for (const std::int64_t top :
       {kCapacity / 8 + 5, kCapacity / 4 - 3, kCapacity / 2 + 1}) {
    for (std::int64_t n = top; n >= 0; n -= 997) {
      ASSERT_EQ(bits(table.cover(n)[n]),
                bits(eager[static_cast<std::size_t>(n)]))
          << "n=" << n;
    }
  }
  expect_matches_eager(table);
}

TEST(LogFactorialTable, RandomGrowthMatchesEagerBuild) {
  const auto& eager = eager_log_factorials();
  LogFactorialTable table;
  std::mt19937_64 gen(20140623);
  std::uniform_int_distribution<std::int64_t> pick(0, kCapacity - 1);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t n = pick(gen);
    const double* t = table.cover(n);
    ASSERT_EQ(table.filled() % kChunk, 0);
    ASSERT_EQ(bits(t[n]), bits(eager[static_cast<std::size_t>(n)]))
        << "n=" << n;
  }
  expect_matches_eager(table);
}

TEST(LogFactorialTable, SingleJumpToTheLastEntryMatchesEagerBuild) {
  LogFactorialTable table;
  (void)table.cover(kCapacity - 1);
  EXPECT_EQ(table.filled(), kCapacity);
  expect_matches_eager(table);
}

TEST(LogFactorialTable, WarmingCoversTheRequestedPopulation) {
  warm_math_tables();
  EXPECT_TRUE(math_tables_warm());
  warm_math_tables(200'000);
  EXPECT_TRUE(math_tables_warm(200'000));
  EXPECT_TRUE(math_tables_warm(199'999));
}

// log(n!) and log C(n, k) past the table's end (lgamma for n, the table for
// k < 2^20 and for n - k where it is below 2^20), recorded with glibc's
// log and lgamma on x86-64.
TEST(LogFactorial, PastTheTableMatchesRecordedValues) {
  struct Case {
    std::int64_t n;
    double expected;
  };
  for (const Case c : {Case{kCapacity - 1, 0x1.9b9d2fe521be4p+23},
                       Case{kCapacity, 0x1.9b9d4b9ef5854p+23},
                       Case{kCapacity + 1, 0x1.9b9d6758c963fp+23},
                       Case{2'000'000, 0x1.9c406ba67b1a1p+24},
                       Case{5'000'000, 0x1.132253bef01a1p+26},
                       Case{1'000'000'000, 0x1.25e649ce0e86ep+34}}) {
    EXPECT_EQ(bits(log_factorial(c.n)), bits(c.expected)) << "n=" << c.n;
  }
}

TEST(LogBinomial, PastTheTableMatchesRecordedValues) {
  struct Case {
    std::int64_t n, k;
    double expected;
  };
  for (const Case c : {Case{kCapacity, 0, 0x0p+0},
                       Case{kCapacity, 1, 0x1.bb9d3c7p+3},
                       Case{kCapacity + 5, 100, 0x1.ff467eb55p+9},
                       Case{kCapacity, kCapacity - 1, 0x1.bb9d3c7p+3},
                       Case{2'000'000, 1'000'000, 0x1.5272ee18938ep+20},
                       Case{2'000'000, 999'999, 0x1.5272ee1892818p+20},
                       Case{3'000'000, 7, 0x1.7f7ea9008p+6},
                       Case{3'000'000, kCapacity - 1, 0x1.d9fc8a9b3d24p+20}}) {
    EXPECT_EQ(bits(log_binomial(c.n, c.k)), bits(c.expected))
        << "n=" << c.n << " k=" << c.k;
  }
}

TEST(LogFactorial, SmallValuesExact) {
  EXPECT_DOUBLE_EQ(log_factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(log_factorial(1), 0.0);
  EXPECT_NEAR(log_factorial(2), std::log(2.0), 1e-12);
  EXPECT_NEAR(log_factorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(log_factorial(10), std::log(3628800.0), 1e-10);
}

TEST(LogFactorial, AgreesWithLgammaAtLargeValues) {
  for (std::int64_t n : {100, 10000, 999999, 2000000, 5000000}) {
    EXPECT_NEAR(log_factorial(n), std::lgamma(static_cast<double>(n) + 1.0),
                std::abs(std::lgamma(static_cast<double>(n) + 1.0)) * 1e-12)
        << "n=" << n;
  }
}

TEST(LogFactorial, NegativeThrows) {
  EXPECT_THROW(log_factorial(-1), std::invalid_argument);
}

TEST(LogBinomial, KnownValues) {
  EXPECT_NEAR(log_binomial(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(log_binomial(10, 5), std::log(252.0), 1e-12);
  EXPECT_NEAR(log_binomial(52, 5), std::log(2598960.0), 1e-9);
  EXPECT_DOUBLE_EQ(log_binomial(7, 0), 0.0);
  EXPECT_DOUBLE_EQ(log_binomial(7, 7), 0.0);
}

TEST(LogBinomial, OutOfRangeIsNegInf) {
  EXPECT_EQ(log_binomial(5, 6), kNegInf);
  EXPECT_EQ(log_binomial(5, -1), kNegInf);
  EXPECT_EQ(log_binomial(-2, 0), kNegInf);
}

TEST(Binomial, PascalRule) {
  for (std::int64_t n = 1; n <= 30; ++n) {
    for (std::int64_t k = 1; k <= n; ++k) {
      EXPECT_NEAR(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k),
                  binomial(n, k) * 1e-10)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(ProbNoBots, BoundaryCases) {
  EXPECT_DOUBLE_EQ(prob_no_bots(10, 0, 5), 1.0);   // no bots at all
  EXPECT_DOUBLE_EQ(prob_no_bots(10, 3, 0), 1.0);   // empty replica
  EXPECT_DOUBLE_EQ(prob_no_bots(10, 3, 8), 0.0);   // bots must overlap
  EXPECT_DOUBLE_EQ(prob_no_bots(10, 10, 1), 0.0);  // everyone is a bot
}

TEST(ProbNoBots, MatchesDirectRatio) {
  // C(8,2)/C(10,2) = 28/45.
  EXPECT_NEAR(prob_no_bots(10, 2, 2), 28.0 / 45.0, 1e-12);
  // One client on one replica: survives iff it is not one of the M bots.
  EXPECT_NEAR(prob_no_bots(100, 30, 1), 0.7, 1e-12);
}

TEST(ProbNoBots, MonotoneDecreasingInSizeAndBots) {
  for (std::int64_t x = 0; x < 50; ++x) {
    EXPECT_GE(prob_no_bots(100, 10, x), prob_no_bots(100, 10, x + 1));
  }
  for (std::int64_t m = 0; m < 50; ++m) {
    EXPECT_GE(prob_no_bots(100, m, 10), prob_no_bots(100, m + 1, 10));
  }
}

TEST(ProbNoBots, InvalidArgumentsThrow) {
  EXPECT_THROW(prob_no_bots(10, 11, 1), std::invalid_argument);
  EXPECT_THROW(prob_no_bots(10, 2, 11), std::invalid_argument);
  EXPECT_THROW(prob_no_bots(-1, 0, 0), std::invalid_argument);
}

struct HypergeomCase {
  std::int64_t total, successes, draws;
};

class HypergeometricPmf : public ::testing::TestWithParam<HypergeomCase> {};

TEST_P(HypergeometricPmf, SumsToOne) {
  const auto [total, successes, draws] = GetParam();
  const auto support = hypergeometric_support(total, successes, draws);
  double sum = 0.0;
  for (std::int64_t k = support.lo; k <= support.hi; ++k) {
    const double p = hypergeometric_pmf(total, successes, draws, k);
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(HypergeometricPmf, MeanMatchesFormula) {
  const auto [total, successes, draws] = GetParam();
  const auto support = hypergeometric_support(total, successes, draws);
  double mean = 0.0;
  for (std::int64_t k = support.lo; k <= support.hi; ++k) {
    mean += static_cast<double>(k) *
            hypergeometric_pmf(total, successes, draws, k);
  }
  EXPECT_NEAR(mean, hypergeometric_mean(total, successes, draws), 1e-8);
}

TEST_P(HypergeometricPmf, VarianceMatchesFormula) {
  const auto [total, successes, draws] = GetParam();
  const auto support = hypergeometric_support(total, successes, draws);
  const double mu = hypergeometric_mean(total, successes, draws);
  double var = 0.0;
  for (std::int64_t k = support.lo; k <= support.hi; ++k) {
    const double d = static_cast<double>(k) - mu;
    var += d * d * hypergeometric_pmf(total, successes, draws, k);
  }
  EXPECT_NEAR(var, hypergeometric_var(total, successes, draws), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HypergeometricPmf,
    ::testing::Values(HypergeomCase{10, 3, 4}, HypergeomCase{50, 25, 10},
                      HypergeomCase{100, 1, 50}, HypergeomCase{100, 99, 50},
                      HypergeomCase{1000, 100, 37}, HypergeomCase{7, 7, 3},
                      HypergeomCase{60, 0, 20}, HypergeomCase{500, 250, 499}));

TEST(HypergeometricPmf, OutsideSupportIsZero) {
  EXPECT_DOUBLE_EQ(hypergeometric_pmf(10, 3, 4, 5), 0.0);   // k > draws cap
  EXPECT_DOUBLE_EQ(hypergeometric_pmf(10, 3, 4, -1), 0.0);
  EXPECT_DOUBLE_EQ(hypergeometric_pmf(10, 8, 5, 1), 0.0);   // k below lo
}

TEST(LogSumExp, BasicIdentities) {
  const double xs[] = {std::log(1.0), std::log(2.0), std::log(3.0)};
  EXPECT_NEAR(log_sum_exp(xs), std::log(6.0), 1e-12);
  const double empty[] = {kNegInf};
  EXPECT_EQ(log_sum_exp(std::span<const double>(empty, 0)), kNegInf);
}

TEST(LogSumExp, HandlesExtremeMagnitudes) {
  const double xs[] = {-1000.0, -1000.0};
  EXPECT_NEAR(log_sum_exp(xs), -1000.0 + std::log(2.0), 1e-9);
  const double ys[] = {700.0, kNegInf};
  EXPECT_NEAR(log_sum_exp(ys), 700.0, 1e-12);
}

TEST(LogAddExp, MatchesLogSumExp) {
  const double xs[] = {-3.0, 1.5};
  EXPECT_NEAR(log_add_exp(-3.0, 1.5), log_sum_exp(xs), 1e-12);
  EXPECT_EQ(log_add_exp(kNegInf, kNegInf), kNegInf);
  EXPECT_DOUBLE_EQ(log_add_exp(kNegInf, 2.0), 2.0);
}

TEST(KahanSum, RecoversSmallIncrements) {
  KahanSum sum;
  sum.add(1.0);
  for (int i = 0; i < 1'000'000; ++i) sum.add(1e-16);
  EXPECT_NEAR(sum.value(), 1.0 + 1e-10, 1e-13);
}

}  // namespace
}  // namespace shuffledef::util
