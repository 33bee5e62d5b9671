// Log-space combinatorics kernel.
//
// Every planner and estimator in this library evaluates expressions of the
// form C(N - x, M) / C(N, M) for N up to a few hundred thousand.  Direct
// binomials overflow instantly, so all combinatorics are done in log space
// with a cached log-factorial table.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace shuffledef::util {

/// Table of log(i!) for 0 <= i < kCapacity, filled on demand.
///
/// The array is allocated on first growth and never value-initialised, so
/// the pages past the filled prefix stay out of RSS.  cover(n) makes
/// entries [0, n] readable.  Below the filled length that is one acquire
/// load and a compare, with no lock.  Past it, one thread at a time extends
/// the prefix under a mutex, in whole chunks, and publishes the new length
/// with a release store.  Growth computes entry i as t[i-1] + log(i) in
/// index order, the recurrence an eager build of the whole table runs, so
/// every entry is the same double whatever order the table grew in.
///
/// The library's log_factorial, log_binomial, prob_no_bots and
/// hypergeometric pmfs read one process-wide instance; tests build their
/// own to watch a table grow from empty.
class LogFactorialTable {
 public:
  static constexpr std::int64_t kCapacity = std::int64_t{1} << 20;
  /// Growth granularity: 4096 entries, 32 KiB.
  static constexpr std::int64_t kChunk = 4096;

  constexpr LogFactorialTable() = default;
  LogFactorialTable(const LogFactorialTable&) = delete;
  LogFactorialTable& operator=(const LogFactorialTable&) = delete;

  /// Fills entries [0, min(n, kCapacity - 1)] (n >= 0) and returns the
  /// array.  A request at or past kCapacity fills the whole table.
  const double* cover(std::int64_t n) {
    n = std::min(n, kCapacity - 1);
    if (n < filled_.load(std::memory_order_acquire)) return entries_.get();
    return grow(n);
  }

  /// Number of filled entries: a prefix, so entries [0, filled()) are
  /// readable.
  [[nodiscard]] std::int64_t filled() const noexcept {
    return filled_.load(std::memory_order_acquire);
  }

 private:
  // Fills through the chunk holding entry n (0 <= n < kCapacity).
  const double* grow(std::int64_t n);

  // Held while growing: entries_ is allocated, and entries at or past
  // filled_ are written, only under it.
  std::mutex grow_mutex_;
  std::unique_ptr<double[]> entries_;
  std::atomic<std::int64_t> filled_{0};
};

/// Pre-grow the process-wide log-factorial table through `population`, so
/// log_factorial / log_binomial / hypergeometric_pmf of arguments up to it
/// never grow the table (growth is otherwise paid at first use, bounded by
/// the largest argument a call reads).  The default builds the first chunk.
/// Call before a timed region, or before fanning work across threads, to
/// keep growth out of it.  Thread-safe and idempotent.
void warm_math_tables(std::int64_t population = LogFactorialTable::kChunk - 1);

/// True when the process-wide table already covers `population`, i.e. no
/// call with arguments up to it will grow the table.  Lets benches assert
/// that warm_math_tables() ran before, not inside, a timed region.
bool math_tables_warm(
    std::int64_t population = LogFactorialTable::kChunk - 1) noexcept;

/// Natural log of n! (n >= 0).  Below LogFactorialTable::kCapacity this is
/// a table lookup; larger arguments fall back to lgamma.
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
