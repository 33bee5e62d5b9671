// Figure 12 — "Client migration time between two replica servers."
//
// The paper's prototype: two replica web servers (P1, P2) and a coordinator
// on EC2 micro instances, 10..60 geo-distributed PlanetLab browsers loading
// a 246 KB page, WebSockets open.  A *simulated* attack is triggered on P1;
// the time for every client to complete steps 1-7 (P1 consults the
// coordinator, the decision returns, P1 pushes WebSocket redirects, every
// client reloads the page from P2 and reconnects) is the migration time.
//
// Here the EC2/PlanetLab substrate is the discrete-event cloud simulator
// (see DESIGN.md §5): replicas get micro-instance-like 30 Mbps NICs, client
// base latencies are drawn from a PlanetLab-like 10..80 ms range, and P2 is
// a pre-booted hot spare so no instance boot time pollutes the measurement
// — matching the prototype, where P2 already existed.
//
// Shapes to reproduce: total redirection time grows roughly linearly with
// the client count (the single egress pipe serializes the page reloads) and
// stays within a few seconds at 60 clients; the per-client average grows
// much more slowly.
#include <iostream>
#include <stdexcept>
#include <string>
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

/// Bench-local junk source: floods a fixed target at a constant rate,
/// modelling the network DDoS that motivated the shuffle in the first
/// place (the "flooded" variant of the experiment).
class Flooder final : public Node {
 public:
  Flooder(World& world, std::string name, NodeId target, double pps)
      : Node(world, std::move(name)), target_(target), interval_(1.0 / pps) {}
  void on_start() override { tick(); }
  void on_message(const Message&) override {}

 private:
  void tick() {
    send(target_, MessageType::kJunkPacket, kJunkPacketBytes);
    loop().schedule_after(interval_, [this] { tick(); });
  }
  NodeId target_;
  double interval_;
};

void run_or_throw(Scenario& s, double t) {
  if (!s.run_until(t)) {
    throw std::runtime_error("event budget exhausted before t = " +
                             std::to_string(t) + " s");
  }
}

struct MigrationResult {
  double total_s = 0.0;       // trigger -> last client done
  double per_client_s = 0.0;  // mean over clients (trigger -> that client done)
  bool complete = false;
};

MigrationResult run_once(int client_count, std::uint64_t seed,
                         double flood_pps = 0.0,
                         obs::Registry* registry = nullptr) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.registry = registry;
  cfg.domains = 1;
  cfg.initial_replicas = 1;  // P1
  cfg.hot_spares = 1;        // P2, pre-booted like the prototype's
  cfg.clients = client_count;
  cfg.client_start_spread_s = 2.0;
  // All clients must move to the single replacement replica.
  cfg.coordinator.controller.planner = "even";
  cfg.coordinator.controller.replicas = 1;
  cfg.coordinator.controller.use_mle = false;
  cfg.coordinator.aggregation_window_s = 0.05;
  // Prototype-like capacities: micro instance behind ~30 Mbps, page 246 KB.
  cfg.replica_nic.egress_bps = 30e6;
  cfg.replica_nic.ingress_bps = 30e6;
  // A benign 60-connection reload is flow-controlled by TCP, not dropped:
  // let the egress queue absorb the whole burst instead of tail-dropping
  // (the 0.5 s default models routers under junk floods, not this case).
  cfg.replica_nic.max_queue_s = 30.0;
  // Browsers wait out a slow page; do not let the retry logic re-request
  // while the response is queued behind 59 others.
  cfg.client_request_timeout_s = 20.0;
  cfg.client_latency_min_s = 0.010;
  cfg.client_latency_max_s = 0.080;

  Scenario s(cfg);
  // Each client's first completed migration (-1 = none yet).
  std::vector<double> migrated_at(static_cast<std::size_t>(client_count),
                                  -1.0);
  s.swarm()->set_observer([&](const MemberEvent& e) {
    auto& at = migrated_at[static_cast<std::size_t>(e.member)];
    if (e.kind == MemberEvent::Kind::kMigration && at < 0.0) at = e.end_s;
  });
  // Let every client finish the join flow (page + WebSocket) first.
  run_or_throw(s, 20.0);
  if (s.clients_connected() != client_count) return {};

  const double trigger_at = s.now() + 0.1;
  ReplicaServer* p1 = s.replica(s.initial_replicas()[0]);
  if (flood_pps > 0.0) {
    // The flood saturates P1's data lanes just before the trigger; the
    // WebSocket pushes ride the prioritized control lane regardless, and
    // the reloads go to the (unattacked) replacement replica.
    s.world().spawn<Flooder>(
        NicConfig{.egress_bps = 1e9, .ingress_bps = 1e9,
                  .base_latency_s = 0.02, .domain = 100},
        "flooder", p1->id(), flood_pps);
  }
  s.world().loop().schedule_at(trigger_at,
                               [&] { p1->simulate_attack_detected(); });
  run_or_throw(s, trigger_at + 60.0);

  MigrationResult result;
  util::Accumulator per_client;
  double last_done = trigger_at;
  for (std::int32_t i = 0; i < client_count; ++i) {
    const double done = migrated_at[static_cast<std::size_t>(i)];
    if (done < 0.0 || !s.swarm()->connected(i)) return {};
    per_client.add(done - trigger_at);
    last_done = std::max(last_done, done);
  }
  result.total_s = last_done - trigger_at;
  result.per_client_s = per_client.mean();
  result.complete = true;
  return result;
}

int run_bench(int argc, char** argv) {
  util::Flags flags("fig12_migration_latency",
                    "Figure 12: client migration time between two replicas");
  auto& reps = flags.add_int("reps", 15, "repetitions per data point");
  auto& seed = flags.add_int("seed", 1214, "base RNG seed");
  auto& flood_pps = flags.add_double(
      "flood-pps", 4000.0, "junk rate for the flooded variant (packets/s)");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags);
  flags.parse(argc, argv);
  bench::require_reps(reps);
  bench::require_non_negative("flood-pps", flood_pps);

  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  obs::MetricsSnapshot sweep_metrics;
  const std::vector<int> client_counts = {10, 20, 30, 40, 50, 60};

  const auto run_table = [&](const std::string& caption, double pps) {
    util::Table table(caption);
    table.set_headers({"clients", "all clients s (mean ± 95% CI)",
                       "per client s (mean ± 95% CI)", "complete runs"});
    // Every (client count, repetition) scenario fans out across --jobs
    // threads; the per-rep seed keeps the historical formula keyed on the
    // repetition index, so results are bit-identical at any jobs setting.
    const std::size_t r_per_n = static_cast<std::size_t>(reps);
    const auto sweep = runner.run(
        client_counts.size() * r_per_n, [&](const sim::SweepCell& cell) {
          const int n = client_counts[cell.index / r_per_n];
          const std::size_t r = cell.index % r_per_n;
          return run_once(n,
                          static_cast<std::uint64_t>(seed) +
                              static_cast<std::uint64_t>(n) * 997 +
                              static_cast<std::uint64_t>(r),
                          pps, cell.registry);
        });
    sweep_metrics.merge(sweep.metrics);
    for (std::size_t ni = 0; ni < client_counts.size(); ++ni) {
      const int n = client_counts[ni];
      util::Accumulator total;
      util::Accumulator per_client;
      int complete = 0;
      for (std::size_t r = 0; r < r_per_n; ++r) {
        const auto& result = sweep.value(ni * r_per_n + r);
        if (!result.complete) continue;
        ++complete;
        total.add(result.total_s);
        per_client.add(result.per_client_s);
      }
      const auto t = total.summary();
      const auto p = per_client.summary();
      table.add_row({util::fmt(static_cast<std::int64_t>(n)),
                     util::fmt_ci(t.mean, t.ci_half_width(0.95), 2),
                     util::fmt_ci(p.mean, p.ci_half_width(0.95), 2),
                     util::fmt(static_cast<std::int64_t>(complete)) + "/" +
                         util::fmt(static_cast<std::int64_t>(reps))});
    }
    table.print_with_csv();
  };

  run_table("Figure 12 — redirection time from P1 to P2 (246 KB page, " +
                std::to_string(static_cast<int>(reps)) + " reps, 95% CI)",
            0.0);
  run_table(
      "Figure 12 (extension) — same migration while P1 is junk-flooded at " +
          util::fmt(flood_pps, 0) +
          " pps (prioritized control lane keeps the shuffle moving)",
      flood_pps);
  metrics_export.write_if_requested([&] { return sweep_metrics; });

  std::cout << "Reproduction check: 60 clients migrate in a few seconds "
               "total; the per-client average grows far more slowly than "
               "the all-clients curve; the flood barely moves either curve "
               "because redirection rides the priority lane and reloads go "
               "to the un-attacked replacement replica." << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
