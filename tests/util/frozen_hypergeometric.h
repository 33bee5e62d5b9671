// The hypergeometric samplers as they drew before one-item draws were
// decided by ratio: the mode-anchored walk drawing its own variate past the
// degenerate-support check, and the sequential multivariate loop over it.
// Rng's samplers must return these draws and leave the engine where these
// leave it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/math.h"
#include "util/random.h"

namespace shuffledef::util {

inline std::int64_t frozen_hypergeometric(Rng& rng, std::int64_t total,
                                          std::int64_t successes,
                                          std::int64_t draws) {
  const auto support = hypergeometric_support(total, successes, draws);
  if (support.lo == support.hi) return support.lo;
  const auto mode = static_cast<std::int64_t>(
      std::floor((static_cast<double>(draws) + 1.0) *
                 (static_cast<double>(successes) + 1.0) /
                 (static_cast<double>(total) + 2.0)));
  const std::int64_t anchor = std::clamp(mode, support.lo, support.hi);

  const double u = rng.uniform();
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
  return p_up >= p_down ? up : down;
}

inline std::vector<std::int64_t> frozen_multivariate_hypergeometric(
    Rng& rng, std::span<const std::int64_t> bucket_sizes,
    std::int64_t successes) {
  std::int64_t total = 0;
  for (const auto sz : bucket_sizes) total += sz;
  std::vector<std::int64_t> out(bucket_sizes.size(), 0);
  std::int64_t remaining_total = total;
  std::int64_t remaining_successes = successes;
  for (std::size_t i = 0; i < bucket_sizes.size(); ++i) {
    if (remaining_successes == 0) break;
    const std::int64_t sz = bucket_sizes[i];
    if (i + 1 == bucket_sizes.size()) {
      out[i] = remaining_successes;
      break;
    }
    const std::int64_t b =
        frozen_hypergeometric(rng, remaining_total, remaining_successes, sz);
    out[i] = b;
    remaining_total -= sz;
    remaining_successes -= b;
  }
  return out;
}

}  // namespace shuffledef::util
