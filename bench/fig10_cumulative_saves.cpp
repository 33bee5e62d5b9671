// Figure 10 — "Cumulative percentage of saved benign clients vs. number of
// shuffles, with 10^5 persistent bots, 10^4 and 5x10^4 benign clients."
//
// Shape to reproduce: concave curves — the early shuffles save far more
// benign clients than the late ones, because as the benign pool drains the
// remaining population is increasingly bot-dominated.
#include <iostream>

#include "bench_main.h"
#include "shuffle_series.h"
#include "util/flags.h"
#include "util/table.h"

using namespace shuffledef;
using core::Count;

namespace {

int run_bench(int argc, char** argv) {
  util::Flags flags("fig10_cumulative_saves",
                    "Figure 10: cumulative saved percentage vs shuffles");
  auto& reps = flags.add_int("reps", 30, "repetitions per series");
  auto& seed = flags.add_int("seed", 1014, "base RNG seed");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags);
  flags.parse(argc, argv);
  bench::require_reps(reps);

  const std::vector<double> percentages = {0.1, 0.2, 0.3, 0.4, 0.5,
                                           0.6, 0.7, 0.8, 0.9, 0.95};

  util::Table table(
      "Figure 10 — shuffles needed to reach each cumulative saved "
      "percentage (100K bots, 1000 replicas, " +
      std::to_string(static_cast<int>(reps)) + " reps, 99% CI)");
  table.set_headers({"saved %", "10K benign: shuffles", "50K benign: shuffles"});

  std::vector<std::vector<util::Summary>> columns;
  for (const Count benign : {10000, 50000}) {
    bench::SeriesPoint pt;
    pt.benign = benign;
    pt.bots = 100000;
    pt.replicas = 1000;
    columns.push_back(bench::shuffles_to_save_multi(
        pt, percentages, static_cast<int>(reps),
        static_cast<std::uint64_t>(seed) + static_cast<std::uint64_t>(benign),
        static_cast<std::size_t>(jobs_flag)));
  }
  for (std::size_t i = 0; i < percentages.size(); ++i) {
    table.add_row({util::fmt(100.0 * percentages[i], 0),
                   util::fmt_ci(columns[0][i].mean,
                                columns[0][i].ci_half_width(0.99), 1),
                   util::fmt_ci(columns[1][i].mean,
                                columns[1][i].ci_half_width(0.99), 1)});
  }
  table.print_with_csv();
  metrics_export.write_if_requested([&] {
    bench::SeriesPoint pt;
    pt.benign = 10000;
    pt.bots = 100000;
    pt.replicas = 1000;
    const auto cfg =
        bench::make_sim_config(pt, static_cast<std::uint64_t>(seed));
    return sim::ShuffleSimulator(cfg).run().metrics;
  });
  std::cout << "Reproduction check: the shuffle count per extra 10% saved "
               "grows towards the tail (early shuffles save more)."
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
