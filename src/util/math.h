// Log-space combinatorics kernel.
//
// Every planner and estimator in this library evaluates expressions of the
// form C(N - x, M) / C(N, M) for N up to a few hundred thousand.  Direct
// binomials overflow instantly, so all combinatorics are done in log space
// with a cached log-factorial table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace shuffledef::util {

/// Eagerly build the process-wide log-factorial table that backs
/// log_factorial / log_binomial / hypergeometric_pmf (otherwise it is built
/// lazily on first use).  Call once before fanning work across threads so
/// concurrent first users don't serialize on the one-time ~1M-entry
/// initialization.  Thread-safe and idempotent.
void warm_math_tables();

/// True once warm_math_tables() has completed — lets benches assert that
/// one-time table initialization happened before, not inside, a timed
/// region (lazy first-use builds do NOT set this).
bool math_tables_warm() noexcept;

/// Natural log of n! (n >= 0).  Values up to an internal cache size are
/// exact table lookups; larger arguments fall back to lgamma.
double log_factorial(std::int64_t n);

/// Natural log of the binomial coefficient C(n, k).
/// Returns -infinity when the coefficient is zero (k < 0 or k > n).
double log_binomial(std::int64_t n, std::int64_t k);

/// C(n, k) as a double; +infinity if it overflows.  Exact for small values.
double binomial(std::int64_t n, std::int64_t k);

/// The workhorse ratio C(n - x, m) / C(n, m): the probability that a replica
/// holding x of n clients receives none of the m bots under uniformly random
/// placement.  Requires 0 <= x <= n, 0 <= m <= n.  Returns 0 when every
/// placement necessarily puts a bot on the replica (x > n - m).
double prob_no_bots(std::int64_t n, std::int64_t m, std::int64_t x);

/// Hypergeometric pmf: drawing `draws` items from a population of `total`
/// containing `successes` marked items, probability of exactly `k` marked.
double hypergeometric_pmf(std::int64_t total, std::int64_t successes,
                          std::int64_t draws, std::int64_t k);

/// log of hypergeometric pmf (-infinity where the pmf is zero).
double log_hypergeometric_pmf(std::int64_t total, std::int64_t successes,
                              std::int64_t draws, std::int64_t k);

/// hypergeometric_pmf for parameters the caller has already validated
/// (0 <= successes, draws <= total) and k inside hypergeometric_support:
/// the same double, bit for bit, without re-checking the arguments.  The
/// samplers' per-draw anchor probability.
double hypergeometric_pmf_in_support(std::int64_t total,
                                     std::int64_t successes,
                                     std::int64_t draws, std::int64_t k);

/// Mean of the hypergeometric distribution.
double hypergeometric_mean(std::int64_t total, std::int64_t successes,
                           std::int64_t draws);

/// Variance of the hypergeometric distribution.
double hypergeometric_var(std::int64_t total, std::int64_t successes,
                          std::int64_t draws);

/// Support bounds [lo, hi] of the hypergeometric distribution.
struct HypergeomSupport {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};
inline HypergeomSupport hypergeometric_support(std::int64_t total,
                                               std::int64_t successes,
                                               std::int64_t draws) {
  return {std::max<std::int64_t>(0, draws - (total - successes)),
          std::min(draws, successes)};
}

/// Numerically stable log(sum(exp(x_i))).  Empty input yields -infinity.
double log_sum_exp(std::span<const double> xs);

/// log(exp(a) + exp(b)) without leaving log space.
double log_add_exp(double a, double b);

/// Kahan-compensated running sum; used wherever long alternating or
/// many-term probability sums are accumulated.
class KahanSum {
 public:
  void add(double x) noexcept {
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  [[nodiscard]] double value() const noexcept { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace shuffledef::util
