// Concurrent growth of one LogFactorialTable: readers below the filled
// length never lock while other threads extend it, and every value any
// thread reads is the eager recurrence's double.  Runs in threading_tests,
// so the TSan lane checks the acquire/release publication.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "eager_log_factorial.h"
#include "util/math.h"

namespace shuffledef::util {
namespace {

TEST(LogFactorialTableThreads, ConcurrentReadsMatchEagerBuild) {
  constexpr int kThreads = 8;
  constexpr std::int64_t kRequests = 4096;
  constexpr std::int64_t kCapacity = LogFactorialTable::kCapacity;
  const auto& eager = eager_log_factorials();
  LogFactorialTable table;
  std::vector<int> mismatches(kThreads, 0);
  std::atomic<int> starting{kThreads};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      starting.fetch_sub(1);
      while (starting.load() > 0) std::this_thread::yield();
      std::mt19937_64 gen(static_cast<std::uint64_t>(w) + 1);
      for (std::int64_t i = 0; i < kRequests; ++i) {
        // Each thread draws below a bound that sweeps up to the end of the
        // table, so the table grows chunk by chunk throughout the run and
        // many reads land on entries another thread has just built.
        const std::int64_t bound = (i + 1) * (kCapacity / kRequests);
        const std::int64_t n =
            std::uniform_int_distribution<std::int64_t>(0, bound - 1)(gen);
        const double value = table.cover(n)[n];
        if (std::bit_cast<std::uint64_t>(value) !=
            std::bit_cast<std::uint64_t>(eager[static_cast<std::size_t>(n)])) {
          ++mismatches[static_cast<std::size_t>(w)];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(w)], 0) << "thread " << w;
  }
  EXPECT_EQ(table.filled() % LogFactorialTable::kChunk, 0);
}

}  // namespace
}  // namespace shuffledef::util
