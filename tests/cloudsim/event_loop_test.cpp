#include "cloudsim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/registry.h"
#include "util/random.h"

namespace shuffledef::cloudsim {
namespace {

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(3.0, [&] { order.push_back(3); });
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  loop.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_TRUE(loop.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.processed(), 3u);
}

TEST(EventLoop, SameTimeFiresInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(1.0, [&, i] { order.push_back(i); });
  }
  ASSERT_TRUE(loop.run());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, NowAdvancesWithEvents) {
  EventLoop loop;
  double seen = -1.0;
  loop.schedule_at(5.5, [&] { seen = loop.now(); });
  ASSERT_TRUE(loop.run());
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(loop.now(), 5.5);
}

TEST(EventLoop, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1.0, [&] { ++fired; });
  loop.schedule_at(10.0, [&] { ++fired; });
  EXPECT_TRUE(loop.run_until(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 5.0);
  EXPECT_FALSE(loop.empty());
  ASSERT_TRUE(loop.run_until(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(1.0, recurse);
  };
  loop.schedule_after(0.0, recurse);
  ASSERT_TRUE(loop.run());
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(loop.now(), 4.0);
}

TEST(EventLoop, RejectsPastAndNegative) {
  EventLoop loop;
  loop.schedule_at(2.0, [] {});
  ASSERT_TRUE(loop.run());
  EXPECT_THROW(loop.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_after(-0.1, [] {}), std::invalid_argument);
}

TEST(EventLoop, RejectsNonFiniteTimes) {
  // Regression: NaN compares false against `now_`, so NaN/Inf times used to
  // slip past the past-time guard and corrupt the heap ordering.
  EventLoop loop;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(loop.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_at(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_at(-inf, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_after(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_after(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_after(-inf, [] {}), std::invalid_argument);
  // The queue stayed clean and ordered after the rejected schedules.
  std::vector<int> order;
  loop.schedule_at(2.0, [&] { order.push_back(2); });
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  EXPECT_TRUE(loop.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, BudgetStopsRunaway) {
  EventLoop loop;
  loop.set_event_budget(100);
  std::function<void()> forever = [&] { loop.schedule_after(0.1, forever); };
  loop.schedule_after(0.0, forever);
  EXPECT_FALSE(loop.run());
  EXPECT_EQ(loop.processed(), 100u);
}

/// POD handler that appends `a` to the std::vector<int> behind ctx.
void record_a(void* ctx, std::uint32_t a, std::uint32_t /*b*/) {
  static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(a));
}

TEST(EventLoop, ClosuresAndPodEventsShareOneScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  const auto kind = loop.register_pod_handler(record_a, &order);
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      loop.schedule_at(1.0, [&order, i] { order.push_back(i); });
    } else {
      loop.schedule_pod_at(1.0, kind, static_cast<std::uint32_t>(i), 0);
    }
  }
  loop.schedule_pod_at(0.5, kind, 100, 0);
  loop.schedule_at(0.5, [&order] { order.push_back(101); });
  EXPECT_TRUE(loop.run());
  EXPECT_EQ(order, (std::vector<int>{100, 101, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                     10, 11}));
  EXPECT_EQ(loop.processed(), 14u);
}

TEST(EventLoop, ClosureMayGrowTheArenaWhileItRuns) {
  // The running closure's slot is freed and reused by its own first
  // schedule, and the later ones reallocate the slot arena.  The closure is
  // small enough to sit inside std::function's own storage, so running it
  // in place would read its captures from a reused or freed slot (the ASan
  // lane checks the move-out-before-call).
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(1.0, [&loop, &order] {
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(2.0, [&order, i] { order.push_back(i); });
    }
    order.push_back(-1);
  });
  EXPECT_TRUE(loop.run());
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order[0], -1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
  }
  EXPECT_EQ(loop.processed(), 1001u);
}

TEST(EventLoop, RejectsBadPodRegistrationsAndKinds) {
  EventLoop loop;
  std::vector<int> order;
  EXPECT_THROW(loop.register_pod_handler(nullptr, &order),
               std::invalid_argument);
  EXPECT_THROW(loop.schedule_pod_at(1.0, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW(loop.schedule_pod_at(1.0, EventLoop::kClosureKind, 0, 0),
               std::invalid_argument);
  // Every kind below the reserved closure kind can be registered; the next
  // registration would collide with it.
  for (std::uint32_t k = 0; k < EventLoop::kClosureKind; ++k) {
    ASSERT_EQ(loop.register_pod_handler(record_a, &order), k);
  }
  EXPECT_THROW(loop.register_pod_handler(record_a, &order), std::length_error);
  loop.schedule_pod_at(1.0, EventLoop::kClosureKind - 1, 5, 0);
  EXPECT_TRUE(loop.run());
  EXPECT_EQ(order, std::vector<int>{5});
}

TEST(EventLoop, BudgetCountsClosuresAndPodEvents) {
  EventLoop loop;
  std::vector<int> order;
  const auto kind = loop.register_pod_handler(record_a, &order);
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(1.0 + i, [&order] { order.push_back(-1); });
    loop.schedule_pod_at(1.5 + i, kind, static_cast<std::uint32_t>(i), 0);
  }
  loop.set_event_budget(7);
  EXPECT_FALSE(loop.run());
  EXPECT_EQ(loop.processed(), 7u);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, -1, 1, -1, 2, -1}));
  loop.set_event_budget(20);
  EXPECT_TRUE(loop.run());
  EXPECT_EQ(loop.processed(), 20u);
  EXPECT_TRUE(loop.empty());
}

// Property: the (time, seq) heap fires events in exactly the order of a
// stable sort by (time, schedule order), across POD and closure events,
// many equal times, -0.0 against 0.0, neighbouring doubles and times beyond
// 2^53 (where the key's time half is all that separates them), drained over
// several run_until windows.
TEST(EventLoop, FiresInStableSortOrderOfTimeThenScheduleOrder) {
  const double big = std::ldexp(1.0, 53);
  const std::vector<double> times = {
      -0.0, 0.0, std::nextafter(0.0, 1.0), 0.5, std::nextafter(1.0, 0.0),
      1.0, std::nextafter(1.0, 2.0), 2.5, big, std::nextafter(big, 0.0),
      std::nextafter(big, 1e300), 3.0 * big, 1e300};
  constexpr std::uint32_t kEvents = 10'000;
  util::Rng rng(2024);
  std::vector<double> at(kEvents);
  for (auto& t : at) {
    t = times[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(times.size()) - 1))];
  }

  EventLoop loop;
  std::vector<std::uint32_t> fired;
  std::vector<double> fired_at;
  struct Ctx {
    EventLoop* loop;
    std::vector<std::uint32_t>* fired;
    std::vector<double>* fired_at;
  } ctx{&loop, &fired, &fired_at};
  const auto kind = loop.register_pod_handler(
      [](void* c, std::uint32_t a, std::uint32_t /*b*/) {
        auto* x = static_cast<Ctx*>(c);
        x->fired->push_back(a);
        x->fired_at->push_back(x->loop->now());
      },
      &ctx);
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    if (rng.bernoulli(0.5)) {
      loop.schedule_pod_at(at[i], kind, i, 0);
    } else {
      loop.schedule_at(at[i], [&, i] {
        fired.push_back(i);
        fired_at.push_back(loop.now());
      });
    }
  }
  EXPECT_TRUE(loop.run_until(0.0));
  EXPECT_TRUE(loop.run_until(1.0));
  EXPECT_TRUE(loop.run_until(big));
  EXPECT_TRUE(loop.run());
  EXPECT_EQ(loop.processed(), kEvents);

  std::vector<std::uint32_t> want(kEvents);
  std::iota(want.begin(), want.end(), 0u);
  std::stable_sort(want.begin(), want.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return at[a] < at[b];
                   });
  EXPECT_EQ(fired, want);
  ASSERT_EQ(fired_at.size(), fired.size());
  for (std::size_t k = 0; k < fired.size(); ++k) {
    ASSERT_EQ(fired_at[k], at[fired[k]]) << "event " << fired[k];
  }
}

TEST(EventLoop, PublishesOnEveryReturn) {
  // The registry copy of processed() and every exit hook are refreshed on
  // each return from run()/run_until(): normal, event-budget exhaustion,
  // and an escaping exception.  Counting starts at attachment, even when
  // the registry is attached by an event in the middle of a run.
  obs::Registry registry;
  EventLoop loop;
  int hook_calls = 0;
  loop.add_exit_hook([](void* n) { ++*static_cast<int*>(n); }, &hook_calls);
  const auto published = [&] {
    return registry.snapshot().counter(kMetricLoopEventsDispatched);
  };
  loop.schedule_at(0.5, [] {});
  loop.schedule_at(0.6, [&] { loop.set_registry(&registry); });
  loop.schedule_at(0.7, [] {});
  EXPECT_TRUE(loop.run_until(1.0));
  EXPECT_EQ(published(), 1u);  // only the event after attachment
  EXPECT_EQ(hook_calls, 1);

  for (int i = 0; i < 3; ++i) loop.schedule_at(2.0, [] {});
  EXPECT_TRUE(loop.run_until(3.0));
  EXPECT_EQ(published(), 4u);
  EXPECT_EQ(hook_calls, 2);

  std::function<void()> forever = [&] { loop.schedule_after(0.1, forever); };
  loop.schedule_after(0.0, forever);
  loop.set_event_budget(10);
  EXPECT_FALSE(loop.run());
  EXPECT_EQ(loop.processed(), 10u);
  EXPECT_EQ(published(), 8u);  // the budget counts the two before attachment
  EXPECT_EQ(hook_calls, 3);

  EventLoop thrower;
  thrower.set_registry(&registry);
  thrower.add_exit_hook([](void* n) { ++*static_cast<int*>(n); },
                        &hook_calls);
  thrower.schedule_at(1.0, [] {});
  thrower.schedule_at(2.0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(static_cast<void>(thrower.run_until(5.0)),
               std::runtime_error);
  EXPECT_EQ(thrower.processed(), 2u);
  EXPECT_EQ(published(), 10u);  // one registry, two loops: the counts sum
  EXPECT_EQ(hook_calls, 4);
}

}  // namespace
}  // namespace shuffledef::cloudsim
