#include "cloudsim/event_loop.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

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
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, NowAdvancesWithEvents) {
  EventLoop loop;
  double seen = -1.0;
  loop.schedule_at(5.5, [&] { seen = loop.now(); });
  loop.run();
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
  loop.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(1.0, recurse);
  };
  loop.schedule_after(0.0, recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(loop.now(), 4.0);
}

TEST(EventLoop, RejectsPastAndNegative) {
  EventLoop loop;
  loop.schedule_at(2.0, [] {});
  loop.run();
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

}  // namespace
}  // namespace shuffledef::cloudsim
