#include "core/planner_cache.h"

#include <functional>
#include <stdexcept>

namespace shuffledef::core {
namespace {

void hash_mix(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

}  // namespace

std::size_t PlannerCache::KeyHash::operator()(
    const PlannerCacheKey& k) const noexcept {
  std::size_t seed = std::hash<std::string>{}(k.planner);
  hash_mix(seed, std::hash<Count>{}(k.problem.clients));
  hash_mix(seed, std::hash<Count>{}(k.problem.bots));
  hash_mix(seed, std::hash<Count>{}(k.problem.replicas));
  return seed;
}

PlannerCache::PlannerCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("PlannerCache: capacity must be > 0");
  }
}

PlannerCache::Entry& PlannerCache::touch(const PlannerCacheKey& key) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    entries_.splice(entries_.begin(), entries_, it->second);
    return *it->second;
  }
  if (entries_.size() >= capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
  }
  entries_.push_front(Entry{key, std::nullopt, std::nullopt});
  index_[key] = entries_.begin();
  return entries_.front();
}

std::optional<AssignmentPlan> PlannerCache::get_plan(
    const PlannerCacheKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() || !it->second->plan.has_value()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  entries_.splice(entries_.begin(), entries_, it->second);
  return it->second->plan;
}

std::optional<double> PlannerCache::get_value(const PlannerCacheKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end() || !it->second->value.has_value()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  entries_.splice(entries_.begin(), entries_, it->second);
  return it->second->value;
}

void PlannerCache::put_plan(const PlannerCacheKey& key, AssignmentPlan plan) {
  const std::lock_guard<std::mutex> lock(mutex_);
  touch(key).plan = std::move(plan);
}

void PlannerCache::put_value(const PlannerCacheKey& key, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  touch(key).value = value;
}

std::size_t PlannerCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t PlannerCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t PlannerCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

double PlannerCache::hit_rate() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) /
                                static_cast<double>(total);
}

void PlannerCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  index_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace shuffledef::core
