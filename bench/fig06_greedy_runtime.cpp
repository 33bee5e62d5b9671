// Figure 6 — "Running time of the greedy algorithm with 1000 clients."
//
// The paper reports 1-4 ms (Matlab).  The shape to reproduce: runtime is
// flat-to-mildly-growing across the bot sweep and small enough to run on
// every shuffle of a live attack.  (This C++ implementation lands in
// microseconds; the table reports both the per-call average in ms, like the
// paper's axis, and in microseconds.)
#include <iostream>
#include <utility>

#include "bench_main.h"
#include "core/greedy_planner.h"
#include "shuffle_series.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timer.h"

using namespace shuffledef;
using core::Count;

namespace {

int run_bench(int argc, char** argv) {
  util::Flags flags("fig06_greedy_runtime",
                    "Figure 6: running time of the greedy algorithm");
  auto& clients = flags.add_int("clients", 1000, "N, total clients");
  auto& iters = flags.add_int("iters", 2000, "timing iterations per point");
  // This is a wall-clock timing bench: concurrent cells contend for cores and
  // inflate each other's per-call averages, so the default stays serial.
  auto& jobs_flag = bench::add_jobs_flag(flags, 1);
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags);
  flags.parse(argc, argv);
  // Zero iterations would divide by zero: every timing cell would read inf.
  bench::require_at_least_one("iters", iters);

  const std::vector<Count> replica_counts = {50, 100, 150, 200};
  const std::vector<Count> bot_counts = {50, 100, 200, 300, 400, 500};

  util::Table table("Figure 6 — greedy planner running time (N = " +
                    std::to_string(clients) + ")");
  table.set_headers({"replicas", "bots", "mean ms", "mean us"});

  std::vector<std::pair<Count, Count>> grid;
  for (const Count p : replica_counts) {
    for (const Count m : bot_counts) grid.emplace_back(p, m);
  }
  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  const auto sweep = runner.run(grid.size(), [&](const sim::SweepCell& cell) {
    const auto [p, m] = grid[cell.index];
    const core::ShuffleProblem problem{clients, m, p};
    const core::GreedyPlanner greedy;
    // Warm-up (log-factorial cache etc).
    (void)greedy.plan(problem);
    util::Timer timer;
    for (Count i = 0; i < iters; ++i) {
      (void)greedy.plan(problem);
    }
    return timer.elapsed_us() / static_cast<double>(iters);
  });
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto [p, m] = grid[i];
    const double us = sweep.value(i);
    table.add_row({util::fmt(p), util::fmt(m), util::fmt(us / 1000.0, 4),
                   util::fmt(us, 1)});
  }
  table.print_with_csv();
  metrics_export.write_if_requested([&] { return sweep.metrics; });
  std::cout << "Reproduction check: per-plan time is orders of magnitude "
               "below Figure 5's DP and safe to run on every live shuffle."
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
