// LRU memoization of planner results.
//
// Every planner a controller builds is a deterministic pure function of
// (planner kind, ShuffleProblem), and the shuffle loop re-solves
// near-identical problems round after round: an all-attacked round leaves
// the pool unchanged, repeated experiment sweeps revisit the same grid
// points, and the controller's adaptive P quantizes many distinct pools
// onto the same (N, M, P) triple.  A small LRU over exact keys therefore
// captures most of the repeat work without any approximation.
//
// The cache stores the extracted AssignmentPlan and, independently, the
// planner's scalar value (planners expose one or both).  Lookups are
// guarded by a mutex so a cache may be shared across threads.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/plan.h"
#include "core/types.h"

namespace shuffledef::core {

/// The key carries no planner options, so one cache must not serve two
/// planners of one kind whose options change answers (AlgorithmOneOptions'
/// tail_epsilon, a_cap, symmetry_cut).  make_planner builds every
/// controller's planner with the defaults, and each controller owns its
/// cache.
struct PlannerCacheKey {
  std::string planner;     // Planner::name()
  ShuffleProblem problem;  // (N, M, P)

  friend bool operator==(const PlannerCacheKey&,
                         const PlannerCacheKey&) = default;
};

class PlannerCache {
 public:
  explicit PlannerCache(std::size_t capacity = 128);

  [[nodiscard]] std::optional<AssignmentPlan> get_plan(
      const PlannerCacheKey& key);
  [[nodiscard]] std::optional<double> get_value(const PlannerCacheKey& key);
  void put_plan(const PlannerCacheKey& key, AssignmentPlan plan);
  void put_value(const PlannerCacheKey& key, double value);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] double hit_rate() const;  // 0 when never queried
  void clear();

 private:
  struct Entry {
    PlannerCacheKey key;
    std::optional<AssignmentPlan> plan;
    std::optional<double> value;
  };
  struct KeyHash {
    std::size_t operator()(const PlannerCacheKey& k) const noexcept;
  };

  // Returns the entry for `key`, creating (and possibly evicting) as needed;
  // the entry is moved to the front of the LRU list.  Caller holds mutex_.
  Entry& touch(const PlannerCacheKey& key);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<PlannerCacheKey, std::list<Entry>::iterator, KeyHash>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace shuffledef::core
