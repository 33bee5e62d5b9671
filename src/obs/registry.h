// obs::Registry — the unified observability substrate.
//
// One Registry instance collects every metric of one "world": a simulator
// run, a cloudsim Scenario, a bench process.  Components accept a
// `obs::Registry*` (nullptr = uninstrumented) and hold cheap *handles*:
//
//   obs::Counter decisions = registry->counter("controller.decisions");
//   decisions.inc();                 // one relaxed atomic add
//
// Handles are trivially copyable pointers into registry-owned cells; a
// default-constructed (null) handle makes every operation a no-op, so hot
// paths pay a single predictable branch when observability is disabled and
// one relaxed atomic op when enabled.  Handle creation (get-or-create by
// name) takes a mutex and may allocate — do it at setup time, not per event.
//
// Determinism contract: counters, gauges and histograms record *event*
// quantities; when the instrumented computation is deterministic, so are
// they — bit-identical across runs and across thread counts (increments are
// commutative integer adds).  Span durations (obs/span.h) are wall-clock
// and excluded from that contract; MetricsSnapshot::deterministic_view()
// strips them.
//
// Scoping: registries are plain objects — create one per simulation for
// isolated, reproducible snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.h"

namespace shuffledef::obs {

class Registry;
class Span;

namespace detail {

struct HistogramCell {
  std::vector<double> bounds;  // ascending upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;  // bounds.size() + 1
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
};

struct SpanNode {
  std::string path;  // "" for the root
  SpanNode* parent = nullptr;
  std::map<std::string, std::unique_ptr<SpanNode>, std::less<>> children;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
};

}  // namespace detail

/// Monotonically increasing event count.  Null handle: all ops no-op.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) const noexcept {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] explicit operator bool() const noexcept {
    return cell_ != nullptr;
  }

 private:
  friend class Registry;
  explicit Counter(std::atomic<std::uint64_t>* cell) noexcept : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Point-in-time signed value.  Null handle: all ops no-op.
class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t v) const noexcept {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) const noexcept {
    if (cell_ != nullptr) cell_->fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raise the gauge to `v` if `v` is larger (high-water mark).
  void max_with(std::int64_t v) const noexcept {
    if (cell_ == nullptr) return;
    std::int64_t cur = cell_->load(std::memory_order_relaxed);
    while (cur < v &&
           !cell_->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] explicit operator bool() const noexcept {
    return cell_ != nullptr;
  }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<std::int64_t>* cell) noexcept : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Fixed-bucket histogram.  Bucket i counts observations <= bounds[i]; one
/// overflow bucket catches the rest.  Bucket counts and the observation
/// count are exact under concurrency; `sum` is a float accumulation whose
/// rounding depends on observation order (single-threaded use: exact order).
class Histogram {
 public:
  Histogram() = default;

  void observe(double v) const noexcept;
  [[nodiscard]] explicit operator bool() const noexcept {
    return cell_ != nullptr;
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) noexcept : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by name.  Cells live as long as the registry; handles
  /// must not outlive it.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  /// `bounds` must be finite and strictly increasing (throws otherwise);
  /// re-requesting an existing histogram with different bounds throws.
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::vector<double> bounds);

  /// Ordered, frozen view of everything recorded so far.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  friend class Span;
  /// Get-or-create the span-tree child (parent == nullptr: child of root).
  [[nodiscard]] detail::SpanNode* span_node(detail::SpanNode* parent,
                                            std::string_view name);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>,
           std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>, std::less<>>
      gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>, std::less<>>
      histograms_;
  detail::SpanNode span_root_;
};

}  // namespace shuffledef::obs
