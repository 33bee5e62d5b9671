#include "util/math.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace shuffledef::util {
namespace {

constexpr std::int64_t kLogFactCacheSize = 1 << 20;  // exact up to ~1M

// Process-wide cache (magic static): built once — possibly under the
// static-init mutex on first use — then read lock-free forever after.
const double* log_fact_table() {
  static const std::vector<double> table = [] {
    std::vector<double> t(kLogFactCacheSize);
    t[0] = 0.0;
    for (std::int64_t i = 1; i < kLogFactCacheSize; ++i) {
      t[i] = t[i - 1] + std::log(static_cast<double>(i));
    }
    return t;
  }();
  return table.data();
}

// Table-pointer-in-hand variants: the binomial/pmf hot paths fetch the
// magic static once per call instead of once per factorial (each fetch is
// a guarded acquire load).
inline double log_factorial_from(const double* table, std::int64_t n) {
  if (n < kLogFactCacheSize) return table[n];
  return std::lgamma(static_cast<double>(n) + 1.0);
}

inline double log_binomial_from(const double* table, std::int64_t n,
                                std::int64_t k) {
  if (k < 0 || k > n || n < 0) return kNegInf;
  return log_factorial_from(table, n) - log_factorial_from(table, k) -
         log_factorial_from(table, n - k);
}

inline double log_hypergeometric_pmf_from(const double* table,
                                          std::int64_t total,
                                          std::int64_t successes,
                                          std::int64_t draws, std::int64_t k) {
  return log_binomial_from(table, successes, k) +
         log_binomial_from(table, total - successes, draws - k) -
         log_binomial_from(table, total, draws);
}

std::atomic<bool> math_tables_warm_flag{false};

}  // namespace

void warm_math_tables() {
  (void)log_fact_table();
  math_tables_warm_flag.store(true, std::memory_order_release);
}

bool math_tables_warm() noexcept {
  return math_tables_warm_flag.load(std::memory_order_acquire);
}

double log_factorial(std::int64_t n) {
  if (n < 0) throw std::invalid_argument("log_factorial: negative argument");
  return log_factorial_from(log_fact_table(), n);
}

double log_binomial(std::int64_t n, std::int64_t k) {
  return log_binomial_from(log_fact_table(), n, k);
}

double binomial(std::int64_t n, std::int64_t k) {
  const double lb = log_binomial(n, k);
  if (lb == kNegInf) return 0.0;
  return std::exp(lb);
}

double prob_no_bots(std::int64_t n, std::int64_t m, std::int64_t x) {
  if (n < 0 || m < 0 || x < 0 || m > n || x > n) {
    throw std::invalid_argument("prob_no_bots: invalid arguments");
  }
  if (m == 0) return 1.0;
  if (x == 0) return 1.0;
  if (x > n - m) return 0.0;  // not enough non-bot clients to fill the replica
  const double* table = log_fact_table();
  return std::exp(log_binomial_from(table, n - x, m) -
                  log_binomial_from(table, n, m));
}

double log_hypergeometric_pmf(std::int64_t total, std::int64_t successes,
                              std::int64_t draws, std::int64_t k) {
  if (total < 0 || successes < 0 || draws < 0 || successes > total ||
      draws > total) {
    throw std::invalid_argument("hypergeometric: invalid parameters");
  }
  if (k < 0 || k > draws || k > successes || draws - k > total - successes) {
    return kNegInf;
  }
  return log_hypergeometric_pmf_from(log_fact_table(), total, successes,
                                     draws, k);
}

double hypergeometric_pmf(std::int64_t total, std::int64_t successes,
                          std::int64_t draws, std::int64_t k) {
  const double lp = log_hypergeometric_pmf(total, successes, draws, k);
  if (lp == kNegInf) return 0.0;
  return std::exp(lp);
}

double hypergeometric_pmf_in_support(std::int64_t total,
                                     std::int64_t successes,
                                     std::int64_t draws, std::int64_t k) {
  // Inside the support the log pmf is finite, so hypergeometric_pmf's
  // -infinity test cannot fire either.
  return std::exp(log_hypergeometric_pmf_from(log_fact_table(), total,
                                              successes, draws, k));
}

double hypergeometric_mean(std::int64_t total, std::int64_t successes,
                           std::int64_t draws) {
  if (total == 0) return 0.0;
  return static_cast<double>(draws) * static_cast<double>(successes) /
         static_cast<double>(total);
}

double hypergeometric_var(std::int64_t total, std::int64_t successes,
                          std::int64_t draws) {
  if (total <= 1) return 0.0;
  const double t = static_cast<double>(total);
  const double s = static_cast<double>(successes);
  const double d = static_cast<double>(draws);
  return d * (s / t) * (1.0 - s / t) * ((t - d) / (t - 1.0));
}

double log_sum_exp(std::span<const double> xs) {
  double mx = kNegInf;
  for (double x : xs) mx = std::max(mx, x);
  if (mx == kNegInf) return kNegInf;
  KahanSum sum;
  for (double x : xs) sum.add(std::exp(x - mx));
  return mx + std::log(sum.value());
}

double log_add_exp(double a, double b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double mx = std::max(a, b);
  return mx + std::log1p(std::exp(std::min(a, b) - mx));
}

}  // namespace shuffledef::util
