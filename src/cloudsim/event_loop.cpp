#include "cloudsim/event_loop.h"

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
  heap_.push(t, seq_++, Event{slot, 0, kClosureKind});
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
  heap_.push(t, seq_++, Event{a, b, kind});
}

bool EventLoop::drain(SimTime t_end) {
  while (!heap_.empty() && heap_.top().time() <= t_end) {
    if (processed_ >= budget_) return false;
    ++processed_;
    const auto node = heap_.pop();
    now_ = node.time();
    const Event& ev = node.value;
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

struct EventLoop::PublishOnReturn {
  EventLoop& loop;
  ~PublishOnReturn() { loop.publish(); }
};

void EventLoop::publish() noexcept {
  dispatched_.inc(processed_ - published_);
  published_ = processed_;
  for (const auto& [hook, ctx] : exit_hooks_) hook(ctx);
}

bool EventLoop::run_until(SimTime t_end) {
  const PublishOnReturn publish_on_return{*this};
  if (!drain(t_end)) return false;
  if (now_ < t_end) now_ = t_end;
  return true;
}

bool EventLoop::run() {
  const PublishOnReturn publish_on_return{*this};
  return drain(std::numeric_limits<SimTime>::infinity());
}

}  // namespace shuffledef::cloudsim
