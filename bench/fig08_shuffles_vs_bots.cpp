// Figure 8 — "Number of shuffles to save 80% and 95% of 10^4 and 5x10^4
// benign clients, with 1000 shuffling replica servers, and varying
// persistent bot numbers."
//
// Shapes to reproduce (paper §VI-A):
//   * shuffle counts rise slowly with the bot population — a ten-fold bot
//     increase costs less than a three-fold shuffle increase;
//   * five-fold more benign clients adds less than ~70% more shuffles;
//   * saving 95% needs >= ~40% more shuffles than saving 80%.
//
// The whole grid runs as ONE SweepRunner campaign (every (bots, benign,
// rep) cell in a single work-stealing fan-out — see shuffle_series.h), and
// `--bench-json` doubles as the repo's parallel-sweep perf trajectory:
// `--jobs-sweep 1,2,4,8` times the identical campaign at each jobs
// setting, verifies bit-identity against --jobs 1 everywhere, and records
// per-jobs walls, speedups and scheduler stats.  `--min-speedup2` turns
// the jobs=2 speedup into a hard gate for CI.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_json.h"
#include "bench_main.h"
#include "shuffle_series.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace shuffledef;
using core::Count;

namespace {

std::vector<std::size_t> parse_jobs_list(const std::string& spec) {
  std::vector<std::size_t> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const long long v = std::stoll(item);
    if (v < 1) throw std::invalid_argument("--jobs-sweep entries must be >= 1");
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

int run_bench(int argc, char** argv) {
  util::Flags flags("fig08_shuffles_vs_bots",
                    "Figure 8: shuffles to save benign clients vs bot count");
  auto& reps = flags.add_int("reps", 30, "repetitions per data point");
  auto& full = flags.add_bool("full", false,
                              "paper-scale grid (10 bot counts, 30 reps)");
  auto& all_at_start = flags.add_bool(
      "all-at-start", false,
      "arrival-model sensitivity: the full botnet attacks from round 1 "
      "instead of ramping in at 5000 bots per 3 shuffles");
  auto& seed = flags.add_int("seed", 814, "base RNG seed");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  auto& bench_json = flags.add_string(
      "bench-json", "",
      "time the identical campaign at every --jobs-sweep setting, verify "
      "bit-identical outputs, and write walls/speedups to this JSON file");
  auto& jobs_sweep = flags.add_string(
      "jobs-sweep", "",
      "comma list of jobs settings for --bench-json (default: 1,<--jobs>)");
  auto& min_speedup2 = flags.add_double(
      "min-speedup2", 0.0,
      "with --bench-json: exit nonzero when the jobs=2 speedup is below "
      "this (0 = no gate)");
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags, /*bench_json_alias=*/false);
  flags.parse(argc, argv);
  bench::require_reps(reps);

  const int r = full ? 30 : static_cast<int>(reps);
  std::vector<Count> bot_counts;
  if (full) {
    for (Count b = 10000; b <= 100000; b += 10000) bot_counts.push_back(b);
  } else {
    bot_counts = {10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000, 90000, 100000};
  }
  const std::vector<Count> benign_counts = {10000, 50000};

  // Flatten the figure grid into campaign points (row-major: bots outer,
  // benign inner) — one SweepRunner job covers every (point, rep) cell.
  std::vector<bench::SeriesPoint> pts;
  for (const Count bots : bot_counts) {
    for (const Count benign : benign_counts) {
      bench::SeriesPoint pt;
      pt.benign = benign;
      pt.bots = bots;
      pt.replicas = 1000;
      pt.bots_all_at_start = all_at_start;
      pts.push_back(pt);
    }
  }
  const auto seed_of = [&](const bench::SeriesPoint& pt) {
    return static_cast<std::uint64_t>(seed) +
           static_cast<std::uint64_t>(pt.bots) +
           static_cast<std::uint64_t>(pt.benign);
  };
  const auto run_grid = [&](std::size_t jobs, bench::CampaignStats* stats) {
    return bench::shuffles_campaign(pts, {0.80, 0.95}, r, seed_of, jobs,
                                    stats);
  };

  const std::size_t jobs = sim::SweepRunner(sim::SweepConfig{
      .jobs = static_cast<std::size_t>(jobs_flag)}).jobs();

  // One-time setup happens BEFORE any timed region: grow the log-factorial
  // table through the largest campaign population and spawn the
  // process-shared pool.  The regression assertion pins the hoist — the
  // table must already cover that population, or the first timed campaign
  // would pay for growing it inside its wall (one-time setup inside the
  // serial wall is the bug behind the 0.91x "speedup" this JSON once
  // recorded).
  const Count max_population =
      *std::max_element(bot_counts.begin(), bot_counts.end()) +
      *std::max_element(benign_counts.begin(), benign_counts.end());
  util::warm_math_tables(max_population);
  (void)util::ThreadPool::shared();
  if (!util::math_tables_warm(max_population)) {
    std::cerr << "BUG: warm_math_tables() did not warm the tables; timed "
                 "regions would include one-time setup\n";
    return EXIT_FAILURE;
  }

  using Rows = std::vector<std::vector<util::Summary>>;
  const auto rows_equal = [](const Rows& a, const Rows& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].size() != b[i].size()) return false;
      for (std::size_t j = 0; j < a[i].size(); ++j) {
        const auto& x = a[i][j];
        const auto& y = b[i][j];
        if (x.count != y.count || x.mean != y.mean || x.stddev != y.stddev ||
            x.min != y.min || x.max != y.max) {
          return false;
        }
      }
    }
    return true;
  };

  Rows table_rows;
  bench::CampaignStats table_stats;
  if (bench_json.empty()) {
    table_rows = run_grid(jobs, &table_stats);
  } else {
    // Perf-trajectory mode: time the identical campaign at every jobs
    // setting (always including the serial baseline), check the
    // determinism contract end to end, and persist the numbers.
    auto jobs_list =
        parse_jobs_list(jobs_sweep.empty() ? "1," + std::to_string(jobs)
                                           : jobs_sweep);
    if (std::find(jobs_list.begin(), jobs_list.end(), std::size_t{1}) ==
        jobs_list.end()) {
      jobs_list.insert(jobs_list.begin(), 1);
    }
    Rows serial_rows;
    double serial_wall = 0.0;
    bool identical = true;
    bench::BenchJson out;
    struct JobsRun {
      std::size_t jobs = 0;
      double wall_s = 0.0;
      bench::CampaignStats stats;
    };
    std::vector<JobsRun> runs;
    for (const std::size_t k : jobs_list) {
      JobsRun run;
      run.jobs = k;
      util::Timer timer;
      auto rows = run_grid(k, &run.stats);
      run.wall_s = timer.elapsed_ms() / 1000.0;
      if (k == 1) {
        serial_rows = rows;
        serial_wall = run.wall_s;
      } else if (!rows_equal(rows, serial_rows)) {
        identical = false;
      }
      if (k == jobs_list.back()) table_rows = std::move(rows);
      runs.push_back(run);
    }
    const auto& primary = runs.back();
    out.set("bench", std::string("fig08_shuffles_vs_bots"));
    out.set("grid_cells", static_cast<std::int64_t>(primary.stats.cells));
    out.set("reps", static_cast<std::int64_t>(r));
    out.set("hardware_threads",
            static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    out.set("jobs", static_cast<std::int64_t>(primary.jobs));
    out.set("serial_wall_s", serial_wall);
    out.set("parallel_wall_s", primary.wall_s);
    out.set("speedup", primary.wall_s > 0.0 ? serial_wall / primary.wall_s
                                            : 0.0);
    out.set("cells_per_sec",
            primary.wall_s > 0.0
                ? static_cast<double>(primary.stats.cells) / primary.wall_s
                : 0.0);
    double speedup2 = 0.0;
    for (const auto& run : runs) {
      const auto key = "jobs" + std::to_string(run.jobs);
      out.set("wall_s_" + key, run.wall_s);
      if (run.jobs != 1) {
        const double speedup =
            run.wall_s > 0.0 ? serial_wall / run.wall_s : 0.0;
        out.set("speedup_" + key, speedup);
        if (run.jobs == 2) speedup2 = speedup;
      }
    }
    out.set("cells_stolen",
            static_cast<std::int64_t>(primary.stats.cells_stolen));
    out.set("cell_wall_p50_ms", primary.stats.cell_wall_p50_s * 1e3);
    out.set("cell_wall_p90_ms", primary.stats.cell_wall_p90_s * 1e3);
    out.set("cell_wall_max_ms", primary.stats.cell_wall_max_s * 1e3);
    out.set("setup_wall_s", primary.stats.setup_seconds);
    out.set("bit_identical", identical);
    out.write(bench_json);
    if (!identical) {
      std::cerr << "BUG: sweep outputs differ across jobs settings\n";
      return EXIT_FAILURE;
    }
    if (min_speedup2 > 0.0 && speedup2 > 0.0 && speedup2 < min_speedup2) {
      std::cerr << "FAIL: jobs=2 speedup " << speedup2 << " below required "
                << min_speedup2 << "\n";
      return EXIT_FAILURE;
    }
  }

  util::Table table("Figure 8 — number of shuffles (1000 shuffling replicas, "
                    + std::to_string(r) + " reps, 99% CI)");
  table.set_headers({"bots", "10K benign, 80%", "10K benign, 95%",
                     "50K benign, 80%", "50K benign, 95%"});
  for (std::size_t i = 0; i < bot_counts.size(); ++i) {
    std::vector<std::string> row = {util::fmt(bot_counts[i])};
    for (std::size_t p = i * benign_counts.size();
         p < (i + 1) * benign_counts.size(); ++p) {
      for (const auto& s : table_rows[p]) {
        row.push_back(util::fmt_ci(s.mean, s.ci_half_width(0.99), 1));
      }
    }
    table.add_row(std::move(row));
  }
  table.print_with_csv();

  // Optional observability export: one representative simulation (first grid
  // point, base seed) with its complete metric snapshot — counters, planner
  // cache, MLE activity, span timings (see EXPERIMENTS.md).
  metrics_export.write_if_requested([&] {
    bench::SeriesPoint pt;
    pt.benign = 10000;
    pt.bots = 10000;
    pt.replicas = 1000;
    const auto cfg =
        bench::make_sim_config(pt, static_cast<std::uint64_t>(seed));
    return sim::ShuffleSimulator(cfg).run().metrics;
  });
  std::cout << "Reproduction check: ~60 shuffles to save 80% of 50K benign "
               "clients under 100K bots; 10x bots < 3x shuffles; 95% costs "
               ">= ~40% more shuffles than 80%." << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
