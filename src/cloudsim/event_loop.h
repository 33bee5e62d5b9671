// Discrete-event simulation core.
//
// Single-threaded priority-queue scheduler over simulated seconds.  Events
// scheduled for the same instant fire in schedule order (a monotonically
// increasing sequence number breaks ties), which keeps every simulation
// deterministic for a given seed.
//
// One heap carries every event: a 4-ary (time, seq) heap
// (cloudsim/time_seq_heap.h) of 32-byte (key, a, b, kind) nodes.  A POD
// event's kind indexes a registered handler, called with the two 32-bit
// words — the fast path for subsystems that schedule millions of events.  A
// std::function closure moves into a free-listed slot arena and rides the
// heap as the reserved kind kClosureKind, with `a` naming its slot; it is
// moved out of the arena before it runs, so it may schedule (and grow the
// arena) freely.  Registry copies of counters (processed(), and through
// exit hooks the network's) are published when run()/run_until() returns.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "cloudsim/time_seq_heap.h"
#include "obs/registry.h"

namespace shuffledef::cloudsim {

using SimTime = double;  // seconds since simulation start

inline constexpr std::string_view kMetricLoopEventsDispatched =
    "loop.events_dispatched";

class EventLoop {
 public:
  /// Handler for POD fast-path events (see register_pod_handler).
  using PodHandler = void (*)(void* ctx, std::uint32_t a, std::uint32_t b);

  /// The heap kind closure events ride under; never a POD kind.
  static constexpr std::uint16_t kClosureKind = 0xFFFF;

  /// Schedule `fn` at absolute simulated time `t` (finite, >= now).
  void schedule_at(SimTime t, std::function<void()> fn);

  /// Schedule `fn` after `delay` seconds (finite, >= 0).
  void schedule_after(SimTime delay, std::function<void()> fn);

  /// Register a POD event kind: a plain function pointer plus an opaque
  /// context, called as handler(ctx, a, b).  Hot subsystems (the network's
  /// delivery walkers) register once and then schedule millions of events
  /// that cost a 32-byte heap node each — no std::function, no allocation,
  /// no destructor on pop.  The registrant must outlive the loop's run.
  /// Throws once every kind below kClosureKind is taken.
  std::uint16_t register_pod_handler(PodHandler handler, void* ctx);

  /// Schedule a POD event at absolute time `t` (finite, >= now).  POD and
  /// closure events share the one (time, schedule-order) sequence.
  void schedule_pod_at(SimTime t, std::uint16_t kind, std::uint32_t a,
                       std::uint32_t b);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  /// Pre-size the event heap (large scenarios avoid growth reallocations).
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Run events with time <= t_end; afterwards now() == t_end (or the time
  /// of the event that hit the event budget).  Returns false if the event
  /// budget was exhausted.
  [[nodiscard]] bool run_until(SimTime t_end);

  /// Drain the queue completely.  Returns false on event-budget exhaustion.
  [[nodiscard]] bool run();

  /// Guard against runaway simulations (default: 200M events).
  void set_event_budget(std::uint64_t budget) noexcept { budget_ = budget; }

  /// Publish processed() onto kMetricLoopEventsDispatched at every return
  /// from run()/run_until(), counting from attachment (nullptr detaches).
  void set_registry(obs::Registry* registry) {
    dispatched_ = registry == nullptr
                      ? obs::Counter{}
                      : registry->counter(kMetricLoopEventsDispatched);
    published_ = processed_;
  }

  /// Call hook(ctx) on every return from run()/run_until() — normal,
  /// event-budget exhaustion, or an escaping exception — after the loop
  /// publishes its own count.  Hooks must not throw; the registrant must
  /// outlive the loop's runs.
  using ExitHook = void (*)(void* ctx);
  void add_exit_hook(ExitHook hook, void* ctx) {
    exit_hooks_.push_back({hook, ctx});
  }

 private:
  struct Event {
    std::uint32_t a;
    std::uint32_t b;
    std::uint16_t kind;
  };
  struct PodKind {
    PodHandler handler = nullptr;
    void* ctx = nullptr;
  };
  struct PublishOnReturn;  // runs publish() when run()/run_until() returns

  /// Fire events with time <= t_end; false on event-budget exhaustion.
  bool drain(SimTime t_end);
  void validate_time(SimTime t) const;
  void publish() noexcept;

  detail::TimeSeqHeap<Event> heap_;  // by (time, schedule order)
  std::vector<std::function<void()>> closures_;  // slot arena
  std::vector<std::uint32_t> free_closures_;
  std::vector<PodKind> pod_kinds_;
  std::vector<std::pair<ExitHook, void*>> exit_hooks_;
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t published_ = 0;  // processed_ as of the last publication
  std::uint64_t budget_ = 200'000'000;
  obs::Counter dispatched_;  // null handle when uninstrumented
};

}  // namespace shuffledef::cloudsim
