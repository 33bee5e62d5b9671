// Rng's hypergeometric draw as a function of its uniform variate u
// (util-internal), so tests can hold the one-item decision to the walk.
#pragma once

#include <algorithm>
#include <cstdint>

namespace shuffledef::util::detail {

/// Inverse transform anchored at the mode: the draw for variate u in [0, 1),
/// for valid parameters whose support has two or more points.
std::int64_t hypergeometric_walk(std::int64_t total, std::int64_t successes,
                                 std::int64_t draws, double u);

/// Relative margin of the one-item decision: 32x the bound, 1.9e-9, on the
/// walk's error in n/t and in 1 below the log-factorial table's capacity
/// (DESIGN.md §6, "Certified one-item draws").
inline constexpr double kOneItemMargin = 0x1.0p-24;
inline constexpr std::int64_t kUndecided = -1;

/// hypergeometric_walk(total, successes, 1, u) when u clears both of the
/// walk's thresholds by kOneItemMargin, else kUndecided.  Requires
/// 1 <= successes < total < LogFactorialTable::kCapacity.
inline std::int64_t one_item_decision(std::int64_t total,
                                      std::int64_t successes, double u) {
  // The walk's anchor floor(2(s+1)/(t+2)) is 1 exactly when s >= t - s;
  // n = max(s, t - s) counts the items that make the anchor the draw.
  const std::int64_t anchor = successes >= total - successes ? 1 : 0;
  const double n = static_cast<double>(std::max(successes, total - successes));
  const double ut = u * static_cast<double>(total);
  const bool below = ut < n * (1.0 - kOneItemMargin);
  const bool above = ut >= n * (1.0 + kOneItemMargin);
  // below implies u < 1 - kOneItemMargin, since n < t.
  const bool decided = (below | above) & (u < 1.0 - kOneItemMargin);
  return decided ? anchor ^ std::int64_t{above} : kUndecided;
}

}  // namespace shuffledef::util::detail
