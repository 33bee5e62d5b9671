#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/math.h"

namespace shuffledef::util {

namespace {

// Seed the Mersenne twister with a full state derived from splitmix64,
// avoiding the classic low-entropy single-word seeding problem.
Mt19937_64 seeded_engine(std::uint64_t seed) {
  std::uint64_t s = seed;
  std::seed_seq seq{splitmix64(s), splitmix64(s), splitmix64(s), splitmix64(s),
                    splitmix64(s), splitmix64(s), splitmix64(s), splitmix64(s)};
  return Mt19937_64(seq);
}

}  // namespace

void Mt19937_64::twist() {
  // mt19937_64 recurrence ([rand.eng.mers], m = 156, a = 0xB5026F5AA96619E9):
  //   x[k] = x[k + m] ^ (y >> 1) ^ (y odd ? a : 0),
  // y = upper 33 bits of x[k] joined to the lower 31 of x[k + 1].  The odd
  // test is a mask, not a branch: the low bit of y is a coin flip.
  constexpr std::size_t kShift = 156;
  constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
  const auto next = [](std::uint64_t hi_word, std::uint64_t lo_word,
                       std::uint64_t shifted) {
    const std::uint64_t y = (hi_word & kUpperMask) | (lo_word & ~kUpperMask);
    return shifted ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kStateWords - kShift; ++k) {
    state_[k] = next(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kStateWords - 1; ++k) {
    state_[k] =
        next(state_[k], state_[k + 1], state_[k + kShift - kStateWords]);
  }
  state_[k] = next(state_[k], state_[0], state_[kShift - 1]);
  pos_ = 0;
}

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(seeded_engine(seed)) {}

Rng Rng::fork(std::uint64_t salt) const {
  std::uint64_t s = seed_ ^ (0xA5A5A5A5DEADBEEFULL + salt * 0x9E3779B97F4A7C15ULL);
  return Rng(splitmix64(s));
}

SmallRng Rng::fork_small(std::uint64_t salt) const {
  // Same derivation as fork(), with an extra constant so fork(salt) and
  // fork_small(salt) are distinct streams.
  std::uint64_t s = seed_ ^ (0xC3C3C3C3CAFEF00DULL + salt * 0x9E3779B97F4A7C15ULL);
  return SmallRng(splitmix64(s));
}

void Rng::throw_empty_range() {
  throw std::invalid_argument("uniform_int: lo > hi");
}

std::int64_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("poisson: negative mean");
  if (mean == 0.0) return 0;
  std::poisson_distribution<std::int64_t> dist(mean);
  return dist(engine_);
}

std::int64_t Rng::binomial(std::int64_t n, double p) {
  if (n < 0) throw std::invalid_argument("binomial: negative n");
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  std::binomial_distribution<std::int64_t> dist(n, p);
  return dist(engine_);
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("exponential: rate <= 0");
  std::exponential_distribution<double> dist(rate);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

std::int64_t Rng::hypergeometric(std::int64_t total, std::int64_t successes,
                                 std::int64_t draws) {
  if (total < 0 || successes < 0 || draws < 0 || successes > total ||
      draws > total) {
    throw std::invalid_argument("hypergeometric: invalid parameters");
  }
  return hypergeometric_unchecked(total, successes, draws);
}

std::int64_t detail::hypergeometric_walk(std::int64_t total,
                                         std::int64_t successes,
                                         std::int64_t draws, double u) {
  const auto support = hypergeometric_support(total, successes, draws);

  // Inverse transform anchored at the mode: walk outwards accumulating pmf
  // mass until the uniform variate is covered.  The pmf around the mode is
  // computed incrementally via the ratio
  //   pmf(k+1)/pmf(k) = (successes-k)(draws-k) / ((k+1)(total-successes-draws+k+1)).
  const auto mode = static_cast<std::int64_t>(
      std::floor((static_cast<double>(draws) + 1.0) *
                 (static_cast<double>(successes) + 1.0) /
                 (static_cast<double>(total) + 2.0)));
  const std::int64_t anchor = std::clamp(mode, support.lo, support.hi);

  const double p_anchor =
      hypergeometric_pmf_in_support(total, successes, draws, anchor);

  double cum = p_anchor;
  if (u < cum) return anchor;

  double p_up = p_anchor;
  double p_down = p_anchor;
  std::int64_t up = anchor;
  std::int64_t down = anchor;
  const double s = static_cast<double>(successes);
  const double d = static_cast<double>(draws);
  const double t = static_cast<double>(total);

  while (up < support.hi || down > support.lo) {
    if (up < support.hi) {
      const double k = static_cast<double>(up);
      p_up *= (s - k) * (d - k) / ((k + 1.0) * (t - s - d + k + 1.0));
      ++up;
      cum += p_up;
      if (u < cum) return up;
    }
    if (down > support.lo) {
      const double k = static_cast<double>(down);
      p_down *= k * (t - s - d + k) / ((s - k + 1.0) * (d - k + 1.0));
      --down;
      cum += p_down;
      if (u < cum) return down;
    }
  }
  // Floating-point shortfall (cum ~ 1 - epsilon < u): return the boundary
  // with larger remaining mass; both are in-support so the result is valid.
  return p_up >= p_down ? up : down;
}

std::vector<std::int64_t> Rng::multivariate_hypergeometric(
    std::span<const std::int64_t> bucket_sizes, std::int64_t successes) {
  std::int64_t total = 0;
  for (const auto sz : bucket_sizes) {
    if (sz < 0) {
      throw std::invalid_argument("multivariate_hypergeometric: negative size");
    }
    total += sz;
  }
  if (successes < 0 || successes > total) {
    throw std::invalid_argument(
        "multivariate_hypergeometric: successes out of range");
  }
  // Every per-bucket draw below is valid by construction: 0 <= sz <=
  // remaining_total and 0 <= remaining_successes <= remaining_total.
  std::vector<std::int64_t> out(bucket_sizes.size(), 0);
  std::int64_t remaining_total = total;
  std::int64_t remaining_successes = successes;
  for (std::size_t i = 0; i < bucket_sizes.size(); ++i) {
    if (remaining_successes == 0) break;
    const std::int64_t sz = bucket_sizes[i];
    if (i + 1 == bucket_sizes.size()) {
      out[i] = remaining_successes;  // everything left lands in the last bucket
      remaining_successes = 0;
      break;
    }
    const std::int64_t b =
        hypergeometric_unchecked(remaining_total, remaining_successes, sz);
    out[i] = b;
    remaining_total -= sz;
    remaining_successes -= b;
  }
  return out;
}

}  // namespace shuffledef::util
