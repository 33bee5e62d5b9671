// Ablation — packet-level cloudsim at scale (paper §VII infrastructure,
// 10^6 clients against the full DNS/LB/replica/coordinator stack).
//
// Two jobs:
//   * correctness at scale: the ClientSwarm engine must produce aggregate
//     results bit-identical to itself across shard-thread counts {1, 4, 8}
//     at every population scale, with the network conservation invariant
//     intact — fault injection on, replica crash mid-campaign.  The
//     verification grid fans out across --jobs via SweepRunner.
//   * performance trajectory: wall-clock at N in {10^4, 10^5, 10^6} for
//     each shard-thread count.  --bench-json persists the numbers (CI
//     uploads BENCH_cloudsim.json); --metrics-json / --metrics-csv export
//     the largest run's metrics snapshot (its shard_threads = 1 cell).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_main.h"
#include "cloudsim/scenario.h"
#include "shuffle_series.h"
#include "sim/sweep.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timer.h"

using namespace shuffledef;
using cloudsim::Scenario;
using cloudsim::ScenarioConfig;

namespace {

/// A fault-injected world sized for `clients` members: fat pipes and small
/// pages so the population — not the NIC model — is the load.
ScenarioConfig scale_config(std::int64_t clients, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas =
      std::max<std::int32_t>(2, static_cast<std::int32_t>(clients / 2500));
  cfg.hot_spares = 1;
  cfg.clients = static_cast<std::int32_t>(clients);
  cfg.client_start_spread_s = 8.0;
  cfg.client_heartbeat_s = 2.0;
  cfg.persistent_bots = 4;
  cfg.bot_junk_rate_pps = 400.0;
  cfg.replica.page_bytes = 2 * 1024;
  cfg.replica.cpu_per_request_s = 50e-6;
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 100.0;
  cfg.replica_nic = {.egress_bps = 10e9, .ingress_bps = 10e9,
                     .base_latency_s = 0.002, .domain = 0};
  cfg.lb_nic = {.egress_bps = 40e9, .ingress_bps = 40e9,
                .base_latency_s = 0.002, .domain = 0};
  cfg.infra_nic = {.egress_bps = 40e9, .ingress_bps = 40e9,
                   .base_latency_s = 0.002, .domain = 0};
  cfg.coordinator.controller.replicas =
      std::max<std::int32_t>(4, cfg.initial_replicas);
  cfg.faults.data_loss_prob = 0.01;
  cfg.faults.ctrl_loss_prob = 0.02;
  cfg.faults.replica_crash_times_s = {6.0};
  return cfg;
}

/// Deterministic aggregate fingerprint of one finished run.  Two runs of
/// the same world must match field for field.
struct Fingerprint {
  std::uint64_t sends = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_faulted = 0;
  std::int64_t bytes_delivered = 0;
  std::int64_t page_loads = 0;
  std::int64_t timeouts = 0;
  std::int64_t rejoins = 0;
  std::int64_t migrations = 0;
  std::int64_t junk_sent = 0;
  std::int64_t connected = 0;
  bool conserved = false;
  bool operator==(const Fingerprint&) const = default;
};

/// `metrics` (optional) receives the run's metrics snapshot.
Fingerprint run_scale(std::int64_t clients, std::uint64_t seed, int threads,
                     double horizon, obs::MetricsSnapshot* metrics = nullptr) {
  auto cfg = scale_config(clients, seed);
  cfg.shard_threads = threads;
  Scenario s(cfg);
  if (!s.run_until(horizon)) {
    throw std::runtime_error("event budget exhausted at N=" +
                             std::to_string(clients));
  }
  if (metrics != nullptr) *metrics = s.metrics();
  const auto& net = s.world().network().stats();
  const auto& sw = s.swarm()->stats();
  return Fingerprint{net.sends,
                     net.delivered,
                     net.dropped_faulted,
                     net.bytes_delivered,
                     sw.page_loads,
                     sw.timeouts,
                     sw.rejoins,
                     sw.migrations_completed,
                     sw.junk_sent,
                     s.clients_connected(),
                     net.conserved()};
}

int run_bench(int argc, char** argv) {
  util::Flags flags("abl_cloudsim_scale",
                    "Packet-level cloudsim at 10^4..10^6 clients: "
                    "ClientSwarm wall time, shard-thread bit-identity, "
                    "conservation under faults");
  auto& horizon = flags.add_double("horizon", 10.0, "simulated seconds per run");
  auto& reps = flags.add_int(
      "reps", 2,
      "timing repetitions per shard-thread count (the minimum is reported)");
  auto& seed = flags.add_int("seed", 7, "RNG seed");
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
  bench::require_horizon(horizon);
  bench::require_at_least_one("max-scale", max_scale);

  std::vector<std::int64_t> scales;
  for (const std::int64_t n : {10'000, 100'000, 1'000'000}) {
    if (n <= max_scale) scales.push_back(n);
  }
  if (scales.empty()) scales.push_back(std::max<std::int64_t>(1000, max_scale));
  const std::vector<int> thread_grid = {1, 4, 8};
  const auto cfg_seed = static_cast<std::uint64_t>(seed);

  // --- Verification grid: every scale x shard-thread count, fanned out
  // across --jobs.  All thread counts of one scale must fingerprint
  // identically and conserve every message.
  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  sim::SweepPlan grid;
  grid.cell_count = scales.size() * thread_grid.size();
  grid.cost_hints.reserve(grid.cell_count);
  for (const std::int64_t clients : scales) {
    for (std::size_t v = 0; v < thread_grid.size(); ++v) {
      grid.cost_hints.push_back(static_cast<double>(clients));
    }
  }
  // The exported snapshot: the largest scale's shard_threads = 1 cell.
  const std::size_t largest_cell = (scales.size() - 1) * thread_grid.size();
  obs::MetricsSnapshot largest_metrics;
  const auto sweep = runner.run(grid, [&](const sim::SweepCell& cell) {
    const std::int64_t clients = scales[cell.index / thread_grid.size()];
    const int threads = thread_grid[cell.index % thread_grid.size()];
    // Fixed per-scale seed (not the sweep's seed chain): every thread count
    // must simulate the identical scenario.
    return run_scale(clients, cfg_seed, threads, horizon,
                    cell.index == largest_cell && metrics_export.requested()
                        ? &largest_metrics
                        : nullptr);
  });

  bool identical = true;
  bool conserved = true;
  for (std::size_t si = 0; si < scales.size(); ++si) {
    const auto& reference = sweep.value(si * thread_grid.size());
    if (!reference.conserved) {
      conserved = false;
      std::cerr << "BUG: N=" << scales[si] << " violates conservation\n";
    }
    for (std::size_t v = 1; v < thread_grid.size(); ++v) {
      if (!(sweep.value(si * thread_grid.size() + v) == reference)) {
        identical = false;
        std::cerr << "BUG: N=" << scales[si] << " shard_threads="
                  << thread_grid[v] << " diverges\n";
      }
    }
  }

  // --- Timing: strictly serial, minimum over --reps (deterministic runs,
  // so the minimum is the least-noise estimate).
  struct ScaleTiming {
    std::int64_t clients = 0;
    std::vector<double> wall_s;  // one per thread_grid entry
  };
  const int timing_reps = static_cast<int>(reps);
  const auto timed_min = [&](const auto& run_once) {
    double best = 0.0;
    for (int rep = 0; rep < timing_reps; ++rep) {
      util::Timer timer;
      run_once();
      const double s = timer.elapsed_ms() / 1000.0;
      if (rep == 0 || s < best) best = s;
    }
    return best;
  };
  std::vector<ScaleTiming> timings;
  for (const std::int64_t clients : scales) {
    ScaleTiming t;
    t.clients = clients;
    for (const int threads : thread_grid) {
      t.wall_s.push_back(timed_min([&] {
        if (!run_scale(clients, cfg_seed, threads, horizon).conserved) {
          std::abort();
        }
      }));
    }
    timings.push_back(std::move(t));
  }

  util::Table table("Packet-level cloudsim at scale — " +
                    util::fmt(horizon, 1) +
                    " simulated seconds, fault-injected");
  table.set_headers({"clients", "shard_threads=1 (s)", "shard_threads=4 (s)",
                     "shard_threads=8 (s)"});
  for (const auto& t : timings) {
    table.add_row({util::fmt(t.clients), util::fmt(t.wall_s[0], 3),
                   util::fmt(t.wall_s[1], 3), util::fmt(t.wall_s[2], 3)});
  }
  table.print_with_csv();

  if (!bench_json.empty()) {
    bench::BenchJson out;
    out.set("bench", std::string("abl_cloudsim_scale"));
    out.set("horizon_s", static_cast<double>(horizon));
    out.set("jobs", static_cast<std::int64_t>(runner.jobs()));
    out.set("bit_identical", identical);
    out.set("conserved", conserved);
    for (const auto& t : timings) {
      const std::string prefix = "n" + std::to_string(t.clients) + "_";
      for (std::size_t i = 0; i < thread_grid.size(); ++i) {
        out.set(prefix + "flat_t" + std::to_string(thread_grid[i]) + "_wall_s",
                t.wall_s[i]);
      }
    }
    out.write(bench_json);
  }

  metrics_export.write_if_requested([&] { return largest_metrics; });

  if (!identical || !conserved) return EXIT_FAILURE;
  std::cout << "Reproduction check: swarm bit-identical across shard "
               "threads at every scale, conservation intact under faults "
               "(replica crash + lossy lanes) up to N="
            << scales.back() << "." << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
