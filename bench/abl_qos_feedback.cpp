// Ablation — closed-loop latency feedback vs fixed-cadence shuffling.
//
// The paper's §VII shuffles on a fixed cadence; the closed control loop
// (cloudsim/qos.h) instead watches per-replica latency EWMAs and shuffles
// only when QoS actually degrades.  This campaign measures the difference
// on the judge metric of Shan & Kesidis (arXiv:1704.06794):
// time-to-QoS-restoration after a step-function attack.
//
// One world per variant, identical seed and step attack (a ~10 s
// computational burst landing at t=10 s):
//
//   * closed       — feedback trigger + Theorem-1 autoscaling;
//   * fixed <c> s  — every c seconds, all replicas shuffle (the paper's
//                    proactive baseline), for several cadences;
//   * undefended   — no trigger at all (context row).
//
// Restoration time = end of the last sliding window whose benign p90
// page-load latency violates the threshold.  The closed loop must restore
// at least as fast as the *best* fixed cadence — that is this PR's
// acceptance criterion, recorded machine-readably via --bench-json
// (BENCH_qos.json in CI).
#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_main.h"
#include "cloudsim/scenario.h"
#include "shuffle_series.h"
#include "util/flags.h"
#include "util/table.h"

using namespace shuffledef;
using namespace shuffledef::cloudsim;

namespace {

constexpr double kAttackAt = 10.0;

struct VariantResult {
  std::string name;
  double restoration_s = 0.0;     // after-attack time QoS came back for good
  double worst_p90_s = 0.0;       // worst sliding-window p90 (severity)
  double clean_p90_s = 0.0;       // p90 over the final two windows
  std::int64_t rounds = 0;
  std::int64_t migrations = 0;
  std::int64_t phase_switches = 0;
  std::int64_t autoscale_provisioned = 0;
  std::int64_t autoscale_released = 0;
  std::int64_t provider_peak_active = 0;
};

ScenarioConfig step_world(std::uint64_t seed, int clients) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas = 2;
  cfg.clients = clients;
  cfg.client_start_spread_s = 0.5;
  cfg.client_browse_think_s = 1.0;
  cfg.client_heartbeat_s = 0.5;
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 0.0;
  cfg.bot_heavy_interval_s = 0.05;
  cfg.bot_heavy_cpu_seconds = 0.15;
  cfg.bot_start_offset_s = kAttackAt;
  cfg.bot_start_spread_s = 0.25;
  cfg.bot_strategy = "synchronized-waves";
  cfg.bot_strategy_options.wave_period = 1000;
  cfg.bot_strategy_options.wave_duty = 0.01;  // one ~10 s burst, then quiet
  // Every variant relies purely on its trigger, never on attack detection.
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 1e18;
  cfg.replica.cpu_backlog_threshold_s = 1e18;
  cfg.coordinator.controller.planner = "greedy";
  cfg.coordinator.controller.replicas = 4;
  cfg.coordinator.controller.use_mle = true;
  cfg.boot_delay_s = 0.2;
  return cfg;
}

/// p90 of the page-load durations completing in [from, to).
double p90_window(const std::vector<MemberEvent>& loads, double from,
                  double to) {
  std::vector<double> d;
  for (const auto& load : loads) {
    if (load.end_s >= from && load.end_s < to) d.push_back(load.duration());
  }
  if (d.empty()) return 0.0;
  std::sort(d.begin(), d.end());
  return d[static_cast<std::size_t>(0.9 * static_cast<double>(d.size() - 1))];
}

VariantResult run_variant(std::string name, ScenarioConfig cfg,
                          double horizon_s, double window_s,
                          double threshold_s, obs::Registry* registry) {
  cfg.registry = registry;
  Scenario s(cfg);
  // Benign clients' page loads (bots load pages too; they are not QoS).
  std::vector<MemberEvent> loads;
  const std::int32_t benign = s.swarm()->benign_members();
  s.swarm()->set_observer([&](const MemberEvent& e) {
    if (e.kind == MemberEvent::Kind::kPageLoad && e.member < benign) {
      loads.push_back(e);
    }
  });
  if (!s.run_until(horizon_s)) {
    throw std::runtime_error(name + ": event budget exhausted");
  }

  VariantResult r;
  r.name = std::move(name);
  r.restoration_s = kAttackAt;
  for (double t = kAttackAt; t + window_s <= horizon_s; t += 0.5) {
    const double p90 = p90_window(loads, t, t + window_s);
    r.worst_p90_s = std::max(r.worst_p90_s, p90);
    if (p90 >= threshold_s) r.restoration_s = t + window_s;
  }
  r.clean_p90_s = p90_window(loads, horizon_s - 2.0 * window_s, horizon_s);
  const auto& cs = s.coordinator()->stats();
  r.rounds = cs.rounds_executed;
  r.migrations = cs.clients_migrated;
  r.phase_switches = cs.phase_switches;
  r.autoscale_provisioned = cs.autoscale_provisioned;
  r.autoscale_released = cs.autoscale_released;
  if (registry != nullptr) {
    r.provider_peak_active =
        registry->snapshot().gauge(kMetricProviderActiveReplicasPeak);
  }
  return r;
}

int run_bench(int argc, char** argv) {
  util::Flags flags("abl_qos_feedback",
                    "Ablation: latency-feedback trigger vs fixed cadences");
  auto& clients = flags.add_int("clients", 16, "browsing benign clients");
  auto& horizon = flags.add_double("horizon", 40.0, "simulated seconds");
  auto& window = flags.add_double("window", 2.0, "p90 sliding window seconds");
  auto& threshold =
      flags.add_double("threshold", 0.6, "p90 QoS threshold seconds");
  auto& seed = flags.add_int("seed", 21, "RNG seed");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  auto& bench_json = flags.add_string(
      "bench-json", "", "write machine-readable results (BENCH_qos.json)");
  flags.parse(argc, argv);
  bench::require_horizon(horizon);
  bench::require_positive("window", window);
  bench::require_positive("threshold", threshold);
  bench::require_at_least_one("clients", clients);
  if (horizon < kAttackAt + window) {
    // Restoration is read from windows after the attack; with none, every
    // variant "restores" at the attack instant and the verdict is vacuous.
    throw std::invalid_argument(
        "--horizon must fit one --window after the attack at " +
        util::fmt(kAttackAt, 0) + " s (got horizon " + util::fmt(horizon, 1) +
        ", window " + util::fmt(window, 1) + ")");
  }

  const std::vector<double> cadences = {1.0, 2.0, 4.0, 8.0};

  // Cell 0 = closed loop, 1..n = fixed cadences, last = undefended.  Each
  // cell is an independent world; --jobs N runs them side by side with
  // results identical to the serial order.
  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  const auto sweep =
      runner.run(cadences.size() + 2, [&](const sim::SweepCell& cell) {
        auto cfg = step_world(static_cast<std::uint64_t>(seed),
                              static_cast<int>(clients));
        std::string name;
        if (cell.index == 0) {
          name = "closed loop";
          cfg.qos.enabled = true;
          cfg.qos.report_interval_s = 0.25;
          cfg.qos.overload_latency_s = 0.2;
          cfg.qos.overload_queue_s = 0.5;
          cfg.qos.start_fraction = 0.4;
          cfg.qos.stop_fraction = 0.3;
          cfg.qos.hysteresis_s = 1.5;
          cfg.qos.max_autoscale_replicas = 8;
        } else if (cell.index <= cadences.size()) {
          const double cadence = cadences[cell.index - 1];
          name = "fixed " + util::fmt(cadence, 0) + " s";
          cfg.coordinator.fixed_cadence_s = cadence;
        } else {
          name = "undefended";
        }
        return run_variant(name, cfg, horizon, window, threshold,
                           cell.registry);
      });

  util::Table table("Time to QoS restoration — step attack at " +
                    util::fmt(kAttackAt, 0) + " s, p90 threshold " +
                    util::fmt(threshold, 2) + " s");
  table.set_headers({"variant", "restored at s", "worst p90 s", "clean p90 s",
                     "rounds", "migrations", "peak replicas"});
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const auto& r = sweep.value(i);
    table.add_row({r.name, util::fmt(r.restoration_s, 1),
                   util::fmt(r.worst_p90_s, 2), util::fmt(r.clean_p90_s, 2),
                   std::to_string(r.rounds), std::to_string(r.migrations),
                   std::to_string(r.provider_peak_active)});
  }
  table.print_with_csv();

  const auto& closed = sweep.value(0);
  double best_fixed = horizon;
  for (std::size_t i = 1; i <= cadences.size(); ++i) {
    best_fixed = std::min(best_fixed, sweep.value(i).restoration_s);
  }
  const bool wins = closed.restoration_s <= best_fixed;
  std::cout << "closed loop restored at " << util::fmt(closed.restoration_s, 1)
            << " s vs best fixed cadence " << util::fmt(best_fixed, 1)
            << " s -> " << (wins ? "PASS" : "FAIL") << std::endl;

  if (!bench_json.empty()) {
    bench::BenchJson out;
    out.set("bench", std::string("abl_qos_feedback"));
    out.set("clients", static_cast<std::int64_t>(clients));
    out.set("horizon_s", static_cast<double>(horizon));
    out.set("threshold_s", static_cast<double>(threshold));
    out.set("attack_at_s", kAttackAt);
    out.set("closed_restoration_s", closed.restoration_s);
    out.set("closed_worst_p90_s", closed.worst_p90_s);
    out.set("closed_phase_switches", closed.phase_switches);
    out.set("closed_autoscale_provisioned", closed.autoscale_provisioned);
    out.set("closed_autoscale_released", closed.autoscale_released);
    out.set("closed_peak_replicas", closed.provider_peak_active);
    for (std::size_t i = 1; i <= cadences.size(); ++i) {
      const std::string key =
          "fixed_" + util::fmt(cadences[i - 1], 0) + "s_restoration_s";
      out.set(key, sweep.value(i).restoration_s);
    }
    out.set("undefended_restoration_s",
            sweep.value(cadences.size() + 1).restoration_s);
    out.set("best_fixed_restoration_s", best_fixed);
    out.set("closed_beats_best_fixed", wins);
    out.write(bench_json);
  }
  return wins ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
