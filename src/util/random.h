// Deterministic random-number generation for simulations.
//
// Every experiment in this library is reproducible: an `Rng` is seeded
// explicitly, and independent substreams for repetitions are derived with
// `fork()` so that adding instrumentation never perturbs results.
//
// `Rng` streams are MT19937-64.  `Mt19937_64` below produces exactly the
// output of the standard library's mt19937_64 under the same
// `std::seed_seq`, and `uniform_int` / `shuffle` draw exactly as
// libstdc++'s `uniform_int_distribution<int64_t>` does on a 64-bit engine;
// the identity battery in tests/util/random_test.cpp pins both, with the
// standard library as the oracle.  What differs is cost: the twist is
// branch-free and the hot draws are header-inline, so the simulators'
// Fisher-Yates passes pay neither a call nor a data-dependent branch per
// draw.  Every golden and benchmark digest is a function of these streams;
// replacing the generator means re-recording all of them, so it is never a
// speed-only change.
//
// Besides the standard distributions, this header provides an exact
// hypergeometric sampler and a multivariate-hypergeometric sampler.  The
// shuffle simulators rely on them to place M bots across replica buckets of
// sizes x_1..x_P in O(P * sqrt(mean)) time instead of O(N) per round, which
// is what makes the paper-scale experiments (100K bots, 2000 replicas,
// hundreds of rounds, 30 repetitions) run in seconds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "util/hypergeometric_detail.h"
#include "util/math.h"

namespace shuffledef::util {

/// splitmix64: used to stretch user seeds into well-distributed state, and
/// the whole of SmallRng's step (inline: every per-bot draw pays it).
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The 64-bit Mersenne Twister ([rand.eng.mers] with the mt19937_64
/// parameters of [rand.predef]): same 312-word state, same seed_seq
/// seeding, same output as the standard engine.  The twist selects the
/// matrix term with a mask instead of libstdc++'s `(y & 1) ? a : 0`, which
/// compiles to a data-dependent branch that mispredicts on half the words.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(std::seed_seq& seq) { seed(seq); }

  /// [rand.eng.mers] seeding from a seed sequence: two 32-bit words per
  /// state word, low word first; an all-zero state (word 0 counting only its
  /// upper 33 bits) is replaced by x[0] = 2^63.
  template <typename SeedSeq>
  void seed(SeedSeq& seq) {
    std::array<std::uint32_t, 2 * kStateWords> words{};
    seq.generate(words.begin(), words.end());
    bool zero = true;
    for (std::size_t i = 0; i < kStateWords; ++i) {
      state_[i] = words[2 * i] | (std::uint64_t{words[2 * i + 1]} << 32);
      const std::uint64_t live = i == 0 ? kUpperMask : ~std::uint64_t{0};
      zero = zero && (state_[i] & live) == 0;
    }
    if (zero) state_[0] = std::uint64_t{1} << 63;
    pos_ = kStateWords;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (pos_ >= kStateWords) [[unlikely]] twist();
    result_type z = state_[pos_++];  // tempering: u, d, s, b, t, c, l
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kStateWords = 312;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;

  void twist();

  std::array<std::uint64_t, kStateWords> state_{};
  std::size_t pos_ = kStateWords;
};

/// Tiny 8-byte-state generator (one splitmix64 step per draw) for per-entity
/// substreams at population scale: a million bots each carrying their own
/// `SmallRng` cost 8 MB, where a million forked `Rng`s (2.5 KB of
/// MT19937-64 state each) would cost gigabytes.  Streams are derived with
/// `Rng::fork_small(salt)`, so per-entity draws are independent of the order
/// entities are visited in — the property that lets the client-level
/// simulator shard its behavior sweeps across threads and stay bit-identical
/// at every thread count.
class SmallRng {
 public:
  explicit SmallRng(std::uint64_t seed = 0) : state_(seed) {}

  std::uint64_t next_u64() { return splitmix64(state_); }

  /// Uniform in [0, 1) (53 random bits, like Rng::uniform).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Same edge-case contract as Rng::bernoulli: p <= 0 and p >= 1 decide
  /// without consuming a draw.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

 private:
  std::uint64_t state_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5DEECE66DULL);

  /// Derive an independent substream; deterministic in (parent seed, salt).
  [[nodiscard]] Rng fork(std::uint64_t salt) const;

  /// Derive an independent 8-byte-state substream (see SmallRng); same
  /// (parent seed, salt) determinism as fork().
  [[nodiscard]] SmallRng fork_small(std::uint64_t salt) const;

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform in [0, 1): 53 random bits.
  double uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive; throws std::invalid_argument
  /// when lo > hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) [[unlikely]] throw_empty_range();
    const auto ulo = static_cast<std::uint64_t>(lo);
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - ulo;
    const std::uint64_t offset =
        span == std::numeric_limits<std::uint64_t>::max() ? engine_()
                                                          : below(span + 1);
    return static_cast<std::int64_t>(ulo + offset);
  }

  /// p <= 0 and p >= 1 decide without consuming a draw.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Poisson with the given mean (mean >= 0).
  std::int64_t poisson(double mean);

  /// Binomial(n, p).
  std::int64_t binomial(std::int64_t n, double p);

  /// Exponential with the given rate (> 0).
  double exponential(double rate);

  /// Normal(mean, stddev).
  double normal(double mean, double stddev);

  /// Exact hypergeometric draw: number of marked items in `draws` draws
  /// without replacement from `total` items of which `successes` are marked.
  /// Inverse-transform from the mode; expected cost O(stddev).
  std::int64_t hypergeometric(std::int64_t total, std::int64_t successes,
                              std::int64_t draws);

  /// Distribute `successes` marked items over buckets with the given sizes
  /// (a uniformly random placement of all sum(sizes) items).  Returns the
  /// marked count per bucket.  Exact: sequential conditional hypergeometric.
  std::vector<std::int64_t> multivariate_hypergeometric(
      std::span<const std::int64_t> bucket_sizes, std::int64_t successes);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  /// Uniform in [0, range) for range >= 1 by Lemire's multiply-and-reject,
  /// exactly as libstdc++'s uniform_int_distribution downscales a 64-bit
  /// engine, so the draws (and the engine words consumed) match it.
  std::uint64_t below(std::uint64_t range) {
    __extension__ typedef unsigned __int128 Wide;
    Wide product = static_cast<Wide>(engine_()) * range;
    auto low = static_cast<std::uint64_t>(product);
    if (low < range) [[unlikely]] {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        product = static_cast<Wide>(engine_()) * range;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Hypergeometric draw for validated parameters: one variate past the
  /// degenerate check, then the certified one-item decision or the walk.
  std::int64_t hypergeometric_unchecked(std::int64_t total,
                                        std::int64_t successes,
                                        std::int64_t draws) {
    const auto support = hypergeometric_support(total, successes, draws);
    if (support.lo == support.hi) return support.lo;
    const double u = uniform();
    if (draws == 1 && total < LogFactorialTable::kCapacity) {
      const std::int64_t k = detail::one_item_decision(total, successes, u);
      if (k != detail::kUndecided) return k;
    }
    return detail::hypergeometric_walk(total, successes, draws, u);
  }

  [[noreturn]] static void throw_empty_range();

  std::uint64_t seed_;
  Mt19937_64 engine_;
};

}  // namespace shuffledef::util
