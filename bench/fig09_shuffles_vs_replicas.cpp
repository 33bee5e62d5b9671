// Figure 9 — "Number of shuffles to save 80% and 95% of 10^4 and 5x10^4
// benign clients, with 10^5 persistent bots and varying shuffling replica
// server numbers."
//
// Shape to reproduce: the shuffle count drops steadily as more shuffling
// replicas are added (900 -> 2000).
#include <iostream>

#include "bench_main.h"
#include "shuffle_series.h"
#include "util/flags.h"
#include "util/table.h"

using namespace shuffledef;
using core::Count;

namespace {

int run_bench(int argc, char** argv) {
  util::Flags flags("fig09_shuffles_vs_replicas",
                    "Figure 9: shuffles to save benign clients vs replicas");
  auto& reps = flags.add_int("reps", 30, "repetitions per data point");
  auto& full = flags.add_bool("full", false,
                              "paper-scale grid (12 replica counts, 30 reps)");
  auto& seed = flags.add_int("seed", 914, "base RNG seed");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags);
  flags.parse(argc, argv);
  bench::require_reps(reps);
  const auto jobs = static_cast<std::size_t>(jobs_flag);

  const int r = full ? 30 : static_cast<int>(reps);
  std::vector<Count> replica_counts;
  if (full) {
    for (Count p = 900; p <= 2000; p += 100) replica_counts.push_back(p);
  } else {
    replica_counts = {900, 1000, 1100, 1200, 1400, 1600, 1800, 2000};
  }

  util::Table table("Figure 9 — number of shuffles (100K persistent bots, " +
                    std::to_string(r) + " reps, 99% CI)");
  table.set_headers({"shuffling replicas", "10K benign, 80%",
                     "10K benign, 95%", "50K benign, 80%", "50K benign, 95%"});

  for (const Count p : replica_counts) {
    std::vector<std::string> row = {util::fmt(p)};
    for (const Count benign : {10000, 50000}) {
      bench::SeriesPoint pt;
      pt.benign = benign;
      pt.bots = 100000;
      pt.replicas = p;
      const auto summaries = bench::shuffles_to_save_multi(
          pt, {0.80, 0.95}, r,
          static_cast<std::uint64_t>(seed) + static_cast<std::uint64_t>(p) * 7 +
              static_cast<std::uint64_t>(benign),
          jobs);
      for (const auto& s : summaries) {
        row.push_back(util::fmt_ci(s.mean, s.ci_half_width(0.99), 1));
      }
    }
    table.add_row(std::move(row));
  }
  table.print_with_csv();
  metrics_export.write_if_requested([&] {
    bench::SeriesPoint pt;
    pt.benign = 10000;
    pt.bots = 100000;
    pt.replicas = replica_counts.front();
    const auto cfg =
        bench::make_sim_config(pt, static_cast<std::uint64_t>(seed));
    return sim::ShuffleSimulator(cfg).run().metrics;
  });
  std::cout << "Reproduction check: every column falls steadily as the "
               "replica budget grows." << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
