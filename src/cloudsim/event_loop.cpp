#include "cloudsim/event_loop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace shuffledef::cloudsim {

void EventLoop::validate_time(SimTime t) const {
  // NaN compares false against everything, so `t < now_` alone would let a
  // NaN (or +inf) time into the queue and corrupt the heap ordering.
  if (!std::isfinite(t)) {
    throw std::invalid_argument("EventLoop: non-finite event time");
  }
  if (t < now_) {
    throw std::invalid_argument("EventLoop: scheduling into the past");
  }
}

void EventLoop::schedule_at(SimTime t, std::function<void()> fn) {
  validate_time(t);
  std::uint32_t slot = 0;
  if (free_closures_.empty()) {
    slot = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
  } else {
    slot = free_closures_.back();
    free_closures_.pop_back();
    closures_[slot] = std::move(fn);
  }
  push(Event{t, seq_++, slot, 0, kClosureKind});
}

void EventLoop::schedule_after(SimTime delay, std::function<void()> fn) {
  if (!std::isfinite(delay)) {
    throw std::invalid_argument("EventLoop: non-finite delay");
  }
  if (delay < 0.0) {
    throw std::invalid_argument("EventLoop: negative delay");
  }
  schedule_at(now_ + delay, std::move(fn));
}

std::uint16_t EventLoop::register_pod_handler(PodHandler handler, void* ctx) {
  if (handler == nullptr) {
    throw std::invalid_argument("EventLoop: null POD handler");
  }
  if (pod_kinds_.size() >= kClosureKind) {
    throw std::length_error(
        "EventLoop: POD kinds exhausted (the last kind is reserved for "
        "closures)");
  }
  pod_kinds_.push_back(PodKind{handler, ctx});
  return static_cast<std::uint16_t>(pod_kinds_.size() - 1);
}

void EventLoop::schedule_pod_at(SimTime t, std::uint16_t kind, std::uint32_t a,
                                std::uint32_t b) {
  validate_time(t);
  if (kind >= pod_kinds_.size()) {
    throw std::invalid_argument("EventLoop: unregistered POD kind");
  }
  push(Event{t, seq_++, a, b, kind});
}

void EventLoop::push(const Event& ev) {
  // 4-ary sift-up: parent of i is (i - 1) / 4.
  std::size_t i = heap_.size();
  heap_.push_back(ev);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

EventLoop::Event EventLoop::pop() {
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // 4-ary sift-down of `last` from the root: children of i start at 4i + 1.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

bool EventLoop::drain(SimTime t_end) {
  while (!heap_.empty() && heap_.front().time <= t_end) {
    if (processed_ >= budget_) return false;
    ++processed_;
    dispatched_.inc();
    const Event ev = pop();
    now_ = ev.time;
    if (ev.kind == kClosureKind) {
      // Move out and free the slot first: the closure may schedule more
      // closures, which can reuse the slot or grow the arena under it.
      std::function<void()> fn = std::move(closures_[ev.a]);
      free_closures_.push_back(ev.a);
      fn();
    } else {
      const PodKind& k = pod_kinds_[ev.kind];
      k.handler(k.ctx, ev.a, ev.b);
    }
  }
  return true;
}

bool EventLoop::run_until(SimTime t_end) {
  if (!drain(t_end)) return false;
  if (now_ < t_end) now_ = t_end;
  return true;
}

bool EventLoop::run() {
  return drain(std::numeric_limits<SimTime>::infinity());
}

}  // namespace shuffledef::cloudsim
