// Scenario builder: assembles a complete protected deployment.
//
// One call wires up the whole Figure-1 architecture — DNS, per-domain load
// balancers, initial replicas, the coordination server, the cloud provider
// — plus a client population and (optionally) a botnet with persistent and
// naive bots.  Browsers and persistent bots are members of one ClientSwarm
// (cloudsim/client_swarm.h).  Tests, examples, and the Figure-12 bench all
// build on this.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cloudsim/botnet.h"
#include "cloudsim/client_swarm.h"
#include "cloudsim/cloud_provider.h"
#include "cloudsim/coordination_server.h"
#include "cloudsim/dns_server.h"
#include "cloudsim/fault.h"
#include "cloudsim/load_balancer.h"
#include "cloudsim/node.h"
#include "cloudsim/replica_server.h"
#include "obs/registry.h"
#include "obs/snapshot.h"

namespace shuffledef::cloudsim {

/// Selects nothing: ClientSwarm is the only client engine.  The enum and
/// ScenarioConfig::client_engine remain only because perfbench/runner.cpp
/// assigns kFlat; both go when that line does.
enum class ClientEngine { kFlat };

struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::string service = "www.example.com";

  // Infrastructure.
  std::int32_t domains = 2;
  std::int32_t load_balancers_per_domain = 1;
  std::int32_t initial_replicas = 2;
  std::int32_t hot_spares = 0;
  CoordinatorConfig coordinator;
  ReplicaConfig replica;
  double boot_delay_s = 0.5;

  // NICs.  Replica defaults approximate the prototype's EC2 micro instance
  // behind a shared link; client defaults approximate geo-distributed
  // PlanetLab nodes (base one-way latency drawn uniformly per client).
  NicConfig replica_nic{.egress_bps = 30e6, .ingress_bps = 30e6,
                        .base_latency_s = 0.002, .domain = 0};
  NicConfig lb_nic{.egress_bps = 1e9, .ingress_bps = 1e9,
                   .base_latency_s = 0.002, .domain = 0};
  NicConfig infra_nic{.egress_bps = 1e9, .ingress_bps = 1e9,
                      .base_latency_s = 0.002, .domain = 0};
  NicConfig client_nic{.egress_bps = 20e6, .ingress_bps = 20e6,
                       .base_latency_s = 0.04, .domain = 100};
  double client_latency_min_s = 0.01;
  double client_latency_max_s = 0.08;

  // Populations.
  std::int32_t clients = 10;
  double client_start_spread_s = 1.0;
  double client_request_timeout_s = 4.0;
  /// Mean think time between page reloads (0 = load once, prototype-style).
  double client_browse_think_s = 0.0;
  /// WebSocket keepalive interval (0 = disabled, prototype-style).
  double client_heartbeat_s = 0.0;
  std::int32_t persistent_bots = 0;
  std::int32_t naive_bots = 0;
  double bot_start_spread_s = 1.0;
  /// Delay before any bot starts (a step-function attack wave: the world
  /// runs clean until the offset, then the whole botnet arrives within the
  /// spread).
  double bot_start_offset_s = 0.0;
  double bot_junk_rate_pps = 0.0;
  double bot_heavy_interval_s = 0.0;
  double bot_heavy_cpu_seconds = 0.2;
  double naive_junk_rate_pps = 500.0;
  /// Persistent-bot behaviour: a core::AttackerStrategy registry name
  /// ("on-off", "coupon-collector", "churn", ...).  Empty = the legacy
  /// unconditional flood, with a world event/draw sequence bit-identical to
  /// the pre-registry scenario (fault_determinism_test relies on this).
  /// Per-bot behavior streams fork off the scenario seed chain, never the
  /// world's shared stream.
  std::string bot_strategy;
  core::StrategyOptions bot_strategy_options;

  // ---- client engine ---------------------------------------------------------
  /// Read by nothing (see ClientEngine).
  ClientEngine client_engine = ClientEngine::kFlat;
  /// Worker threads for the swarm's sweep scan, its batched strategy
  /// rounds, and the replicas' shuffle-push fan-out build (1 = serial;
  /// results are bit-identical at every setting).
  std::int32_t shard_threads = 1;

  NetworkConfig network;

  /// Closed-loop QoS control plane (cloudsim/qos.h).  When `qos.enabled`
  /// the Scenario wires the whole loop: every replica (initial, spare, and
  /// autoscale-provisioned) samples and reports latency/queue depth, and
  /// the coordinator runs the phase machine + Theorem-1 autoscaler.  Off by
  /// default — the world stays bit-identical to a pre-QoS build.
  QosConfig qos;

  /// Fault injection (deterministic in `seed`): message loss/duplication,
  /// link flaps, replica crashes, provisioning faults.  A default-constructed
  /// config is inert — the world behaves exactly as if no injector existed.
  FaultConfig faults;

  /// Record every resolved message into Network::trace() (determinism
  /// golden tests; costs memory proportional to traffic).
  bool record_net_trace = false;

  /// Observability sink for the whole world — event loop, network, fault
  /// injector, coordinator, controller, planner, estimator all record here.
  /// nullptr = the Scenario owns a private registry (see
  /// Scenario::registry() / Scenario::metrics()).
  obs::Registry* registry = nullptr;

  /// All configuration violations at once (empty = valid).  The Scenario
  /// constructor throws std::invalid_argument listing every violation.
  [[nodiscard]] std::vector<std::string> validate() const;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  /// Advance simulated time.  Returns false if the event budget blew up.
  [[nodiscard]] bool run_until(SimTime t);

  [[nodiscard]] World& world() { return *world_; }
  [[nodiscard]] SimTime now() const { return world_->now(); }

  [[nodiscard]] DnsServer* dns() { return dns_; }
  [[nodiscard]] CoordinationServer* coordinator() { return coordinator_; }
  [[nodiscard]] CloudProvider& provider() { return *provider_; }
  [[nodiscard]] const std::vector<LoadBalancer*>& load_balancers() const {
    return load_balancers_;
  }
  [[nodiscard]] const std::vector<NodeId>& initial_replicas() const {
    return initial_replicas_;
  }
  /// Every benign client (members [0, clients)) and persistent bot
  /// (the trailing members).
  [[nodiscard]] ClientSwarm* swarm() { return swarm_; }
  [[nodiscard]] const std::vector<NaiveBot*>& naive_bots() const {
    return naive_bots_;
  }
  [[nodiscard]] Botmaster* botmaster() { return botmaster_; }
  /// The shared persistent-bot strategy object (nullptr under the legacy
  /// flood, i.e. when ScenarioConfig::bot_strategy is empty).
  [[nodiscard]] const core::AttackerStrategy* bot_strategy() const {
    return bot_strategy_.get();
  }

  /// Injected-fault counters (all zero when no injector is installed).
  [[nodiscard]] FaultStats fault_stats() const {
    return fault_ ? fault_->stats() : FaultStats{};
  }

  [[nodiscard]] ReplicaServer* replica(NodeId id);

  /// The world's metrics sink (the external one from ScenarioConfig, or the
  /// Scenario-owned default).
  [[nodiscard]] obs::Registry& registry() noexcept { return *registry_; }
  /// Convenience: a frozen snapshot of everything recorded so far.
  [[nodiscard]] obs::MetricsSnapshot metrics() const {
    return registry_->snapshot();
  }

  // ---- aggregate metrics ----------------------------------------------------

  /// Clients whose join flow completed (page loaded, WebSocket open).
  [[nodiscard]] std::int64_t clients_connected() const;

  /// Replicas currently serving at least one persistent bot.
  [[nodiscard]] std::int64_t replicas_hosting_bots() const;

  /// Benign clients currently on replicas that host no persistent bot.
  [[nodiscard]] std::int64_t benign_clients_isolated_from_bots() const;

 private:
  void crash_one_replica();
  void build_population(const ScenarioConfig& config);

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;  // effective sink (owned or external)
  std::unique_ptr<core::AttackerStrategy> bot_strategy_;
  std::unique_ptr<World> world_;
  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<CloudProvider> provider_;
  DnsServer* dns_ = nullptr;
  CoordinationServer* coordinator_ = nullptr;
  std::vector<LoadBalancer*> load_balancers_;
  std::vector<NodeId> initial_replicas_;
  ClientSwarm* swarm_ = nullptr;
  std::vector<NaiveBot*> naive_bots_;
  Botmaster* botmaster_ = nullptr;
};

}  // namespace shuffledef::cloudsim
