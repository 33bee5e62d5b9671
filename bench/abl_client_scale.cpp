// Ablation — client-level simulator at scale (paper §VII dynamics, 10^6
// clients).
//
// Two jobs:
//   * correctness at scale: the SoA engine (sim/client_sim.h) must produce
//     round metrics bit-identical to itself across thread counts {1, 4, 8},
//     at every population scale.  The whole verification grid fans out
//     across --jobs via SweepRunner.  (Its answers at these three scales are
//     also pinned to recorded digests of the pre-SoA engine by
//     tests/sim/client_sim_golden_test.cpp.)
//   * performance trajectory: wall-clock of the SoA engine at threads
//     {1, 4, 8}, N in {10^4, 10^5, 10^6}, with the minor page faults of each
//     kept run (a run that re-faults memory the allocator handed back to
//     the kernel pays for it in wall time; EXPERIMENTS.md, "Client-level
//     round passes").  --bench-json persists the numbers (CI uploads
//     BENCH_clientsim.json).
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_main.h"
#include "shuffle_series.h"
#include "sim/client_sim.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timer.h"

using namespace shuffledef;
using core::Count;

namespace {

sim::ClientSimConfig scale_config(Count clients, Count rounds,
                                  std::uint64_t seed, Count threads) {
  sim::ClientSimConfig cfg;
  cfg.bots = std::max<Count>(10, clients / 2000);
  cfg.benign = clients - cfg.bots;
  cfg.strategy.strategy = "always-on";
  cfg.controller.planner = "greedy";
  // Twice as many replicas as bots: ~40% of buckets catch a bot per round,
  // so most of the population is saved within a few shuffles — the regime
  // the paper provisions for (replicas comfortably above the bot count).
  cfg.controller.replicas = std::max<Count>(50, 2 * cfg.bots);
  cfg.controller.use_mle = true;
  cfg.rounds = rounds;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

int run_bench(int argc, char** argv) {
  util::Flags flags("abl_client_scale",
                    "Client-level simulator at 10^4..10^6 clients: "
                    "thread-count bit-identity and wall-clock");
  auto& rounds = flags.add_int("rounds", 50, "shuffle rounds per run");
  auto& reps = flags.add_int(
      "reps", 3, "timing repetitions per run (the minimum is reported)");
  auto& seed = flags.add_int("seed", 5, "RNG seed");
  auto& max_scale =
      flags.add_int("max-scale", 1000000, "largest client count to run");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  auto& bench_json = flags.add_string(
      "bench-json", "",
      "write wall-clock / bit-identity numbers to this JSON file");
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags, /*bench_json_alias=*/false);
  flags.parse(argc, argv);
  bench::require_reps(reps);
  bench::require_at_least_one("rounds", rounds);
  bench::require_at_least_one("max-scale", max_scale);

  std::vector<Count> scales;
  for (const Count n : {Count{10000}, Count{100000}, Count{1000000}}) {
    if (n <= max_scale) scales.push_back(n);
  }
  if (scales.empty()) scales.push_back(std::max<Count>(1000, max_scale));
  const std::vector<Count> thread_grid = {1, 4, 8};

  // --- Verification grid: every scale x SoA@{1, 4, 8}, fanned out across
  // --jobs.  Each cell returns the full round-metrics sequence; afterwards
  // all thread counts of a scale must agree exactly.
  const std::size_t variants = thread_grid.size();
  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  // Cost hints: cells span two orders of magnitude in client count, so the
  // 10^6 cells start first and the 10^4 ones backfill.
  sim::SweepPlan grid;
  grid.cell_count = scales.size() * variants;
  grid.cost_hints.reserve(grid.cell_count);
  for (const Count clients : scales) {
    for (std::size_t v = 0; v < variants; ++v) {
      grid.cost_hints.push_back(static_cast<double>(clients));
    }
  }
  const auto sweep = runner.run(
      grid, [&](const sim::SweepCell& cell) {
        const Count clients = scales[cell.index / variants];
        // Fixed per-scale seed (not the sweep's seed chain): all variants
        // of one scale must simulate the identical scenario.
        auto cfg = scale_config(clients, rounds,
                                static_cast<std::uint64_t>(seed),
                                thread_grid[cell.index % variants]);
        cfg.registry = cell.registry;
        return sim::ClientLevelSimulator(cfg).run().rounds;
      });

  bool identical = true;
  for (std::size_t si = 0; si < scales.size(); ++si) {
    const auto& serial = sweep.value(si * variants);
    for (std::size_t v = 1; v < variants; ++v) {
      if (sweep.value(si * variants + v) != serial) {
        identical = false;
        std::cerr << "BUG: N=" << scales[si] << " threads="
                  << thread_grid[v] << " diverges from threads=1\n";
      }
    }
  }

  // --- Timing: strictly serial (one run at a time), so the wall-clock
  // numbers are not polluted by sweep concurrency.  Each thread count is
  // timed --reps times and the minimum kept — the run is deterministic, so
  // the minimum is the least-noise estimate of its true cost.  The minor
  // faults reported are the process's (every thread's) during that run.
  struct Timed {
    double s = 0.0;
    std::int64_t minflt = 0;
  };
  struct ScaleTiming {
    Count clients = 0;
    std::vector<Timed> soa;  // one per thread_grid entry

    [[nodiscard]] double best_soa_s() const {
      return std::ranges::min(soa, {}, &Timed::s).s;
    }
  };
  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::int64_t>(usage.ru_minflt);
  };
  const int timing_reps = static_cast<int>(reps);
  const auto timed_min = [&](const auto& run_once) {
    Timed best;
    for (int rep = 0; rep < timing_reps; ++rep) {
      const std::int64_t faults_before = minor_faults();
      util::Timer timer;
      run_once();
      const double s = timer.elapsed_ms() / 1000.0;
      const std::int64_t faults = minor_faults() - faults_before;
      if (rep == 0 || s < best.s) best = {s, faults};
    }
    return best;
  };
  std::vector<ScaleTiming> timings;
  for (const Count clients : scales) {
    ScaleTiming t;
    t.clients = clients;
    for (const Count threads : thread_grid) {
      t.soa.push_back(timed_min([&] {
        auto cfg = scale_config(clients, rounds,
                                static_cast<std::uint64_t>(seed), threads);
        if (sim::ClientLevelSimulator(cfg).run().rounds.empty()) std::abort();
      }));
    }
    timings.push_back(std::move(t));
  }

  util::Table table("Client-level simulator at scale — " +
                    std::to_string(rounds) +
                    " rounds, always-on bots (N/2000), MLE controller");
  table.set_headers({"clients", "SoA t=1 (s)", "SoA t=4 (s)", "SoA t=8 (s)",
                     "t=1 faults"});
  for (const auto& t : timings) {
    table.add_row({util::fmt(t.clients), util::fmt(t.soa[0].s, 3),
                   util::fmt(t.soa[1].s, 3), util::fmt(t.soa[2].s, 3),
                   util::fmt(t.soa[0].minflt)});
  }
  table.print_with_csv();

  const auto& head = timings.back();
  if (!bench_json.empty()) {
    bench::BenchJson out;
    out.set("bench", std::string("abl_client_scale"));
    out.set("rounds", static_cast<std::int64_t>(rounds));
    out.set("jobs", static_cast<std::int64_t>(runner.jobs()));
    out.set("bit_identical", identical);
    for (const auto& t : timings) {
      const std::string prefix = "n" + std::to_string(t.clients) + "_";
      for (std::size_t i = 0; i < thread_grid.size(); ++i) {
        const std::string key =
            prefix + "soa_t" + std::to_string(thread_grid[i]);
        out.set(key + "_wall_s", t.soa[i].s);
        out.set(key + "_minflt", t.soa[i].minflt);
      }
    }
    out.set("clients", static_cast<std::int64_t>(head.clients));
    out.set("soa_best_wall_s", head.best_soa_s());
    out.write(bench_json);
  }

  // Optional observability export: the merged client.* metric family of the
  // verification sweep (pool-size histogram, saves, rounds) — see
  // EXPERIMENTS.md.
  metrics_export.write_if_requested([&] { return sweep.metrics; });

  if (!identical) return EXIT_FAILURE;
  std::cout << "Reproduction check: SoA engine bit-identical across thread "
               "counts at every scale; N=" << head.clients << " x " << rounds
            << " rounds ran in " << util::fmt(head.best_soa_s(), 3)
            << " s." << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
