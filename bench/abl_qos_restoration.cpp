// Ablation — quality-of-service restoration, end to end.
//
// The paper's promise is "restoring quality of service for benign-but-
// affected clients".  This bench measures it directly on the simulated
// cloud: browsing clients continuously reload the page while a botnet of
// whitelisted insiders floods the replicas it joined.  Two worlds run side
// by side:
//
//   * DEFENDED   — the full pipeline (detection -> replication -> shuffle);
//   * UNDEFENDED — identical, but detection is disabled, so the attacked
//     replicas are never replaced (the "static server" strawman).
//
// Reported per 10-second window: page-load success rate (completed loads /
// (loads + timeouts)) and mean page latency across all benign clients.
#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_main.h"
#include "cloudsim/scenario.h"
#include "shuffle_series.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

using namespace shuffledef;
using namespace shuffledef::cloudsim;

namespace {

struct WindowStats {
  double success_rate = 1.0;
  double mean_latency_s = 0.0;
  std::int64_t loads = 0;
  std::int64_t timeouts = 0;
};

std::vector<WindowStats> run_world(bool defended, int clients, int bots,
                                   double horizon_s, double window_s,
                                   std::uint64_t seed,
                                   obs::Registry* registry = nullptr) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.registry = registry;
  cfg.domains = 2;
  cfg.initial_replicas = 4;
  cfg.clients = clients;
  cfg.client_browse_think_s = 2.0;
  cfg.client_request_timeout_s = 2.0;
  cfg.persistent_bots = bots;
  // Each bot pushes ~56 Mbps of junk — enough to saturate its replica's
  // 30 Mbps NIC data lane and starve co-located page traffic.
  cfg.bot_junk_rate_pps = 5000.0;
  cfg.bot_start_spread_s = 1.0;
  cfg.coordinator.controller.planner = "greedy";
  cfg.coordinator.controller.replicas = 6;
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold =
      defended ? 200.0 : 1e18;  // undefended: detection never fires
  cfg.boot_delay_s = 0.3;
  Scenario s(cfg);

  // Benign clients' page loads and timeouts, binned by completion window.
  const auto windows = static_cast<std::size_t>(horizon_s / window_s);
  std::vector<std::int64_t> loads(windows, 0);
  std::vector<std::int64_t> timeouts(windows, 0);
  std::vector<double> latency(windows, 0.0);
  const std::int32_t benign = s.swarm()->benign_members();
  s.swarm()->set_observer([&](const MemberEvent& e) {
    const auto w = static_cast<std::size_t>(e.end_s / window_s);
    if (e.member >= benign || w >= windows) return;
    if (e.kind == MemberEvent::Kind::kPageLoad) {
      ++loads[w];
      latency[w] += e.duration();
    } else if (e.kind == MemberEvent::Kind::kTimeout) {
      ++timeouts[w];
    }
  });
  if (!s.run_until(horizon_s)) {
    throw std::runtime_error("event budget exhausted before --horizon");
  }
  std::vector<WindowStats> out(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    const auto attempts = loads[w] + timeouts[w];
    out[w].loads = loads[w];
    out[w].timeouts = timeouts[w];
    out[w].success_rate =
        attempts > 0 ? static_cast<double>(loads[w]) /
                           static_cast<double>(attempts)
                     : 1.0;
    out[w].mean_latency_s =
        loads[w] > 0 ? latency[w] / static_cast<double>(loads[w]) : 0.0;
  }
  return out;
}

int run_bench(int argc, char** argv) {
  util::Flags flags("abl_qos_restoration",
                    "Ablation: benign QoS with and without the defense");
  auto& clients = flags.add_int("clients", 40, "browsing benign clients");
  auto& bots = flags.add_int("bots", 4, "persistent flooding bots");
  auto& horizon = flags.add_double("horizon", 80.0, "simulated seconds");
  auto& window = flags.add_double("window", 10.0, "reporting window seconds");
  auto& seed = flags.add_int("seed", 4242, "RNG seed");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags);
  flags.parse(argc, argv);
  bench::require_horizon(horizon);
  bench::require_positive("window", window);
  bench::require_at_least_one("clients", clients);
  bench::require_at_least_zero("bots", bots);
  if (window > horizon) {
    throw std::invalid_argument("--window must not exceed --horizon (got " +
                                util::fmt(window, 1) + " > " +
                                util::fmt(horizon, 1) + ")");
  }

  // The two worlds are independent simulations; --jobs 2 runs them side by
  // side with results identical to the serial order.
  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  const auto sweep = runner.run(2, [&](const sim::SweepCell& cell) {
    return run_world(cell.index == 0, static_cast<int>(clients),
                     static_cast<int>(bots), horizon, window,
                     static_cast<std::uint64_t>(seed), cell.registry);
  });
  const auto& defended = sweep.value(0);
  const auto& undefended = sweep.value(1);

  util::Table table("QoS restoration — " + std::to_string(clients) +
                    " browsing clients vs " + std::to_string(bots) +
                    " flooding insiders (windows of " + util::fmt(window, 0) +
                    " s)");
  table.set_headers({"window", "defended success %", "undefended success %",
                     "defended latency s", "undefended latency s"});
  for (std::size_t w = 0; w < defended.size(); ++w) {
    table.add_row(
        {util::fmt(window * static_cast<double>(w), 0) + "-" +
             util::fmt(window * static_cast<double>(w + 1), 0) + "s",
         util::fmt(100.0 * defended[w].success_rate, 1),
         util::fmt(100.0 * undefended[w].success_rate, 1),
         util::fmt(defended[w].mean_latency_s, 2),
         util::fmt(undefended[w].mean_latency_s, 2)});
  }
  table.print_with_csv();
  metrics_export.write_if_requested([&] { return sweep.metrics; });
  std::cout << "Reproduction check (the mechanism's purpose): both worlds "
               "degrade when the flood lands; the defended world's success "
               "rate recovers to ~100% within a few shuffle rounds while "
               "the undefended world stays degraded for the whole attack."
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
