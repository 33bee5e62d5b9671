// Figure 7 — "Evaluate MLE algorithm through examples (10000 clients, 100
// shuffling replica servers)."
//
// For each true persistent-bot count, place the bots uniformly, observe how
// many replicas are attacked, and run the MLE.  Each data point is the mean
// of 40 repetitions with a 99% confidence interval, exactly as in the paper.
//
// Shape to reproduce: the estimate tracks the truth closely until nearly
// every replica is attacked, at which point it blows up towards N (the
// degenerate all-attacked regime Theorem 1 exists to avoid).
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.h"
#include "core/mle_estimator.h"
#include "shuffle_series.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/table.h"

using namespace shuffledef;
using core::Count;

namespace {

int run_bench(int argc, char** argv) {
  util::Flags flags("fig07_mle_accuracy", "Figure 7: MLE accuracy");
  auto& clients = flags.add_int("clients", 10000, "N, total clients");
  auto& replicas = flags.add_int("replicas", 100, "P, shuffling replicas");
  auto& reps = flags.add_int("reps", 40, "repetitions per data point");
  auto& seed = flags.add_int("seed", 20140623, "base RNG seed");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags);
  flags.parse(argc, argv);
  const std::vector<Count> true_bots = {10,  20,  50,  80,  100,
                                        150, 200, 250, 300, 350};
  bench::require_reps(reps);
  // Every replica must hold a client, or no bot placement exists.
  bench::require_at_least_one("replicas", replicas);
  bench::require_at_least("clients", clients, replicas, "replicas");
  // Every true bot count must fit among the clients.
  bench::require_at_least("clients", clients, true_bots.back());
  // Every replica gets clients / replicas, so a remainder would go
  // unsimulated while the title still names --clients.
  if (clients % replicas != 0) {
    throw std::invalid_argument(
        "--clients must be a multiple of --replicas = " +
        std::to_string(replicas) + " (got " + std::to_string(clients) + ")");
  }

  const Count per_replica = clients / replicas;
  const core::AssignmentPlan plan(std::vector<Count>(
      static_cast<std::size_t>(replicas), per_replica));
  const core::MleEstimator mle;

  util::Table table(
      "Figure 7 — MLE-estimated persistent bots and attacked-replica "
      "percentage (" + std::to_string(clients) + " clients, " +
      std::to_string(replicas) + " replicas, " + std::to_string(reps) +
      " reps, 99% CI)");
  table.set_headers({"true bots", "estimated bots (mean ± 99% CI)",
                     "attacked replicas % (mean ± 99% CI)"});

  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  obs::MetricsSnapshot sweep_metrics;
  for (const Count m : true_bots) {
    // Repetitions fan out across --jobs threads; the historical per-rep RNG
    // seeding is keyed on the repetition index, so outputs are bit-identical
    // at every jobs setting.
    const auto sweep = runner.run(
        static_cast<std::size_t>(reps), [&](const sim::SweepCell& cell) {
          util::Rng rng(static_cast<std::uint64_t>(seed) * 1000003 +
                        static_cast<std::uint64_t>(m) * 131 +
                        static_cast<std::uint64_t>(cell.index));
          const auto placed =
              rng.multivariate_hypergeometric(plan.counts(), m);
          std::vector<bool> attacked;
          Count attacked_count = 0;
          for (const auto b : placed) {
            attacked.push_back(b > 0);
            if (b > 0) ++attacked_count;
          }
          const core::ShuffleObservation obs{plan, std::move(attacked)};
          return std::pair<double, double>(
              static_cast<double>(mle.estimate(obs)),
              100.0 * static_cast<double>(attacked_count) /
                  static_cast<double>(replicas));
        });
    sweep_metrics.merge(sweep.metrics);
    util::Accumulator est;
    util::Accumulator attacked_pct;
    for (std::size_t r = 0; r < sweep.cells.size(); ++r) {
      const auto& [estimate, pct] = sweep.value(r);
      est.add(estimate);
      attacked_pct.add(pct);
    }
    const auto e = est.summary();
    const auto a = attacked_pct.summary();
    table.add_row({util::fmt(m),
                   util::fmt_ci(e.mean, e.ci_half_width(0.99), 1),
                   util::fmt_ci(a.mean, a.ci_half_width(0.99), 1)});
  }
  table.print_with_csv();
  metrics_export.write_if_requested([&] { return sweep_metrics; });
  std::cout << "Reproduction check: estimates track the truth until the "
               "attacked percentage saturates at 100%, then explode towards "
               "N — the paper's degenerate regime." << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
