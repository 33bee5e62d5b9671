// Figure 4 — "Compare the effectiveness of greedy algorithm and even
// distribution for one shuffle with 1000 clients."
//
// The paper's finding to reproduce: even distribution keeps up with the
// greedy planner only while the number of persistent bots is smaller than
// the number of replicas; beyond that it collapses towards zero saved
// clients while greedy keeps carving out bot-free buckets.
#include <iostream>
#include <utility>

#include "bench_main.h"
#include "core/even_planner.h"
#include "core/greedy_planner.h"
#include "core/plan.h"
#include "shuffle_series.h"
#include "util/flags.h"
#include "util/table.h"

using namespace shuffledef;
using core::Count;

namespace {

int run_bench(int argc, char** argv) {
  util::Flags flags("fig04_greedy_vs_even",
                    "Figure 4: greedy vs even distribution, one shuffle");
  auto& clients = flags.add_int("clients", 1000, "N, total clients");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags);
  flags.parse(argc, argv);

  const std::vector<Count> replica_counts = {100, 200};
  const std::vector<Count> bot_counts = {50, 100, 150, 200, 250,
                                         300, 350, 400, 450, 500};

  util::Table table("Figure 4 — % benign clients saved in one shuffle (N = " +
                    std::to_string(clients) + ")");
  table.set_headers({"replicas", "bots", "greedy %", "even %"});

  std::vector<std::pair<Count, Count>> grid;
  for (const Count p : replica_counts) {
    for (const Count m : bot_counts) grid.emplace_back(p, m);
  }
  // Each cell is a pure function of (p, m); results come back in grid order.
  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  const auto sweep = runner.run(grid.size(), [&](const sim::SweepCell& cell) {
    const auto [p, m] = grid[cell.index];
    const core::ShuffleProblem problem{clients, m, p};
    const core::GreedyPlanner greedy;
    const core::EvenPlanner even;
    return std::pair<double, double>(
        core::expected_saved(problem, greedy.plan(problem)),
        core::expected_saved(problem, even.plan(problem)));
  });
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto [p, m] = grid[i];
    const auto benign =
        static_cast<double>(core::ShuffleProblem{clients, m, p}.benign());
    const auto& [e_greedy, e_even] = sweep.value(i);
    table.add_row({util::fmt(p), util::fmt(m),
                   util::fmt(100.0 * e_greedy / benign, 2),
                   util::fmt(100.0 * e_even / benign, 2)});
  }
  table.print_with_csv();
  metrics_export.write_if_requested([&] { return sweep.metrics; });
  std::cout << "Reproduction check: 'even' tracks 'greedy' while bots < "
               "replicas, then collapses towards 0 once bots >> replicas."
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
