#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace shuffledef::util {

const double* LogFactorialTable::grow(std::int64_t n) {
  const std::lock_guard lock(grow_mutex_);
  std::int64_t filled = filled_.load(std::memory_order_relaxed);
  if (n < filled) return entries_.get();
  if (!entries_) {
    entries_ = std::make_unique_for_overwrite<double[]>(kCapacity);
    entries_[0] = 0.0;
    filled = 1;
  }
  const std::int64_t target = (n / kChunk + 1) * kChunk;
  double* t = entries_.get();
  for (std::int64_t i = filled; i < target; ++i) {
    t[i] = t[i - 1] + std::log(static_cast<double>(i));
  }
  filled_.store(target, std::memory_order_release);
  return t;
}

namespace {

constexpr std::int64_t kTableSize = LogFactorialTable::kCapacity;

// The process-wide table.  Constant-initialised, so reaching it needs no
// guard, and destroyed after every dynamically initialised static.
constinit LogFactorialTable process_table;

// Table-in-hand variants: each public entry point covers its largest
// argument once, then reads every factorial it needs without re-checking.
inline double log_factorial_from(const double* table, std::int64_t n) {
  if (n < kTableSize) return table[n];
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

}  // namespace

void warm_math_tables(std::int64_t population) {
  (void)process_table.cover(std::max<std::int64_t>(population, 0));
}

bool math_tables_warm(std::int64_t population) noexcept {
  return process_table.filled() >
         std::clamp<std::int64_t>(population, 0, kTableSize - 1);
}

double log_factorial(std::int64_t n) {
  if (n < 0) throw std::invalid_argument("log_factorial: negative argument");
  return log_factorial_from(process_table.cover(n), n);
}

double log_binomial(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n || n < 0) return kNegInf;
  return log_binomial_from(process_table.cover(n), n, k);
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
  const double* table = process_table.cover(n);
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
  return log_hypergeometric_pmf_from(process_table.cover(total), total,
                                     successes, draws, k);
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
  return std::exp(log_hypergeometric_pmf_from(process_table.cover(total),
                                              total, successes, draws, k));
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
