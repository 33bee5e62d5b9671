// End-to-end story: an open web service under a mixed botnet attack,
// defended by the full simulated architecture of Figure 1.
//
// The scenario builds two cloud domains with redirecting load balancers, a
// coordination server, a cloud provider, 30 browser clients, 3 persistent
// bots (insiders that follow redirects and direct the flood) and 12 naive
// hit-list bots.  It then narrates what happens: detection, replication,
// WebSocket-push shuffling, recycling, and the progressive isolation of the
// persistent bots.
//
// Build & run:  cmake --build build && ./build/examples/webservice_defense
#include <iomanip>
#include <iostream>

#include "cloudsim/scenario.h"

using namespace shuffledef;
using namespace shuffledef::cloudsim;

int main() {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.domains = 2;
  cfg.initial_replicas = 2;
  cfg.clients = 30;
  cfg.persistent_bots = 3;
  cfg.naive_bots = 12;
  cfg.bot_junk_rate_pps = 300.0;
  cfg.naive_junk_rate_pps = 400.0;
  cfg.coordinator.controller.planner = "greedy";
  cfg.coordinator.controller.replicas = 8;
  cfg.coordinator.controller.use_mle = true;
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 150.0;
  cfg.boot_delay_s = 0.3;

  Scenario s(cfg);

  std::cout << "t=0s    service online: 2 replicas across 2 cloud domains, "
               "30 clients joining, botnet lurking\n";

  auto report = [&](double t) {
    if (!s.run_until(t)) return false;
    const auto& cs = s.coordinator()->stats();
    std::cout << "t=" << std::setw(4) << t << "s  "
              << "connected=" << s.clients_connected() << "/30"
              << "  shuffle-rounds=" << cs.rounds_executed
              << "  migrations=" << cs.clients_migrated
              << "  replicas-recycled=" << cs.replicas_recycled
              << "  bot-replicas=" << s.replicas_hosting_bots()
              << "  benign-isolated=" << s.benign_clients_isolated_from_bots()
              << "/30\n";
    return true;
  };

  // At 5 s joining finishes, floods ramp and detection fires.
  for (const double t : {5.0, 10.0, 20.0, 40.0, 60.0}) {
    if (!report(t)) {
      std::cerr << "event budget exhausted before t=" << t << "s\n";
      return 1;
    }
  }

  const auto& net = s.world().network().stats();
  std::cout << "\nNetwork totals: " << net.delivered << " messages delivered, "
            << net.dropped_ingress + net.dropped_egress
            << " dropped by congestion, " << net.dropped_detached
            << " dropped at recycled instances (naive bots shooting at "
               "ghosts)\n";

  const auto& sw = s.swarm()->stats();
  std::cout << "\nClient experience (30 browsers and 3 persistent bots): "
            << sw.migrations_completed << " migrations completed (mean "
            << std::setprecision(2) << std::fixed
            << (sw.migrations_completed > 0
                    ? sw.migration_seconds_sum /
                          static_cast<double>(sw.migrations_completed)
                    : 0.0)
            << " s), " << sw.page_loads << " pages loaded, " << sw.timeouts
            << " request timeouts, " << sw.rejoins << " rejoins\n";

  // Perfect isolation = every persistent bot alone on its own replica and
  // (virtually) every benign client on a bot-free one.
  const bool isolated = s.replicas_hosting_bots() <= 3 &&
                        s.benign_clients_isolated_from_bots() >= 27;
  std::cout << "\nOutcome: "
            << (isolated
                    ? "persistent bots quarantined on a shrinking replica "
                      "set; the benign crowd is clean. Defense holds."
                    : "isolation still in progress — run longer.")
            << "\n";
  return isolated ? 0 : 1;
}
