#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace shuffledef::obs {

void Histogram::observe(double v) const noexcept {
  if (cell_ == nullptr) return;
  const auto& bounds = cell_->bounds;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds.begin());
  cell_->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  cell_->count.fetch_add(1, std::memory_order_relaxed);
  double cur = cell_->sum.load(std::memory_order_relaxed);
  while (!cell_->sum.compare_exchange_weak(cur, cur + v,
                                           std::memory_order_relaxed)) {
  }
}

Counter Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<std::atomic<std::uint64_t>>(0))
             .first;
  }
  return Counter(it->second.get());
}

Gauge Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<std::atomic<std::int64_t>>(0))
             .first;
  }
  return Gauge(it->second.get());
}

Histogram Registry::histogram(std::string_view name,
                              std::vector<double> bounds) {
  if (bounds.empty()) {
    throw std::invalid_argument("Registry::histogram: empty bounds");
  }
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (!std::isfinite(bounds[i]) || (i > 0 && bounds[i] <= bounds[i - 1])) {
      throw std::invalid_argument(
          "Registry::histogram: bounds must be finite and strictly "
          "increasing");
    }
  }
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    auto cell = std::make_unique<detail::HistogramCell>();
    cell->bounds = std::move(bounds);
    cell->buckets = std::make_unique<std::atomic<std::uint64_t>[]>(
        cell->bounds.size() + 1);
    for (std::size_t i = 0; i <= cell->bounds.size(); ++i) {
      cell->buckets[i].store(0, std::memory_order_relaxed);
    }
    it = histograms_.emplace(std::string(name), std::move(cell)).first;
  } else if (it->second->bounds != bounds) {
    throw std::invalid_argument("Registry::histogram: '" + std::string(name) +
                                "' already exists with different bounds");
  }
  return Histogram(it->second.get());
}

detail::SpanNode* Registry::span_node(detail::SpanNode* parent,
                                      std::string_view name) {
  std::lock_guard lock(mu_);
  detail::SpanNode* p = parent == nullptr ? &span_root_ : parent;
  auto it = p->children.find(name);
  if (it == p->children.end()) {
    auto node = std::make_unique<detail::SpanNode>();
    node->parent = p;
    node->path =
        p->path.empty() ? std::string(name) : p->path + "/" + std::string(name);
    it = p->children.emplace(std::string(name), std::move(node)).first;
  }
  return it->second.get();
}

namespace {

void collect_spans(const detail::SpanNode& node,
                   std::vector<MetricsSnapshot::SpanValue>& out) {
  for (const auto& [name, child] : node.children) {
    out.push_back(MetricsSnapshot::SpanValue{
        child->path, child->count.load(std::memory_order_relaxed),
        child->total_ns.load(std::memory_order_relaxed)});
    collect_spans(*child, out);
  }
}

}  // namespace

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    snap.counters.push_back(MetricsSnapshot::CounterValue{
        name, cell->load(std::memory_order_relaxed)});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.push_back(MetricsSnapshot::GaugeValue{
        name, cell->load(std::memory_order_relaxed)});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    MetricsSnapshot::HistogramValue h;
    h.name = name;
    h.bounds = cell->bounds;
    h.counts.resize(cell->bounds.size() + 1);
    for (std::size_t i = 0; i <= cell->bounds.size(); ++i) {
      h.counts[i] = cell->buckets[i].load(std::memory_order_relaxed);
    }
    h.count = cell->count.load(std::memory_order_relaxed);
    h.sum = cell->sum.load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(h));
  }
  collect_spans(span_root_, snap.spans);
  std::sort(snap.spans.begin(), snap.spans.end(),
            [](const auto& a, const auto& b) { return a.path < b.path; });
  return snap;
}

}  // namespace shuffledef::obs
