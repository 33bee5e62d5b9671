#include "cloudsim/scenario.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "util/validation.h"

namespace shuffledef::cloudsim {
namespace {

// Salts of the world-stream forks: the fault injector's substream and the
// per-member behaviour roots of bots and clients.
constexpr std::uint64_t kFaultStreamSalt = 0xFA177;
constexpr std::uint64_t kBotBehaviorStreamSalt = 101;
constexpr std::uint64_t kClientBehaviorStreamSalt = 202;

}  // namespace

std::vector<std::string> ScenarioConfig::validate() const {
  std::vector<std::string> violations;
  const auto append = [&](std::vector<std::string> more) {
    for (auto& v : more) violations.push_back(std::move(v));
  };
  const auto require_nonnegative = [&](double v, const char* name) {
    if (!std::isfinite(v) || v < 0.0) {
      violations.push_back(std::string(name) + " must be finite and >= 0");
    }
  };
  if (domains < 1) violations.push_back("domains must be >= 1");
  if (load_balancers_per_domain < 1) {
    violations.push_back("load_balancers_per_domain must be >= 1");
  }
  if (initial_replicas < 1) {
    violations.push_back("initial_replicas must be >= 1");
  }
  if (hot_spares < 0) violations.push_back("hot_spares must be >= 0");
  require_nonnegative(boot_delay_s, "boot_delay_s");
  if (clients < 0) violations.push_back("clients must be >= 0");
  if (persistent_bots < 0) {
    violations.push_back("persistent_bots must be >= 0");
  }
  if (naive_bots < 0) violations.push_back("naive_bots must be >= 0");
  if (!std::isfinite(client_latency_max_s) ||
      !(client_latency_min_s >= 0.0 &&
        client_latency_max_s >= client_latency_min_s)) {
    violations.push_back(
        "client_latency_min_s / client_latency_max_s must satisfy "
        "0 <= min <= max < inf");
  }
  require_nonnegative(client_start_spread_s, "client_start_spread_s");
  if (!std::isfinite(client_request_timeout_s) ||
      client_request_timeout_s <= 0.0) {
    violations.push_back("client_request_timeout_s must be finite and > 0");
  }
  require_nonnegative(client_browse_think_s, "client_browse_think_s");
  require_nonnegative(client_heartbeat_s, "client_heartbeat_s");
  require_nonnegative(bot_start_spread_s, "bot_start_spread_s");
  require_nonnegative(bot_start_offset_s, "bot_start_offset_s");
  require_nonnegative(bot_junk_rate_pps, "bot_junk_rate_pps");
  require_nonnegative(bot_heavy_interval_s, "bot_heavy_interval_s");
  require_nonnegative(naive_junk_rate_pps, "naive_junk_rate_pps");
  append(network.violations("network."));
  append(replica_nic.violations("replica_nic."));
  append(lb_nic.violations("lb_nic."));
  append(infra_nic.violations("infra_nic."));
  append(client_nic.violations("client_nic."));
  if (!bot_strategy.empty()) {
    const auto& names = core::strategy_names();
    if (std::find(names.begin(), names.end(), bot_strategy) == names.end()) {
      std::string known;
      for (const auto& n : names) {
        if (!known.empty()) known += "|";
        known += n;
      }
      violations.push_back("bot_strategy unknown strategy '" + bot_strategy +
                           "' (expected " + known + ")");
    }
    append(bot_strategy_options.violations("bot_strategy_options."));
  }
  if (shard_threads < 1) violations.push_back("shard_threads must be >= 1");
  append(coordinator.controller.violations("coordinator.controller."));
  if (qos.enabled) append(qos.violations("qos."));
  append(faults.violations("faults."));
  return violations;
}

Scenario::Scenario(ScenarioConfig config) {
  util::throw_if_invalid("ScenarioConfig", config.validate());
  // Replica-side shuffle fan-out shards on the same knob as the swarm.
  config.replica.shard_threads = config.shard_threads;

  // One registry observes the whole world: owned by default, external when
  // the caller wants to scope several scenarios onto one sink.
  if (config.registry != nullptr) {
    registry_ = config.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  config.coordinator.controller.registry = registry_;

  // Close the QoS loop: replicas sample/report, the coordinator decides.
  // Set on config.replica *before* the provider config is built below, so
  // autoscale-provisioned replicas report exactly like the initial ones.
  if (config.qos.enabled) {
    config.coordinator.qos = config.qos;
    config.replica.qos_report_interval_s = config.qos.report_interval_s;
    config.replica.qos_latency_alpha = config.qos.latency_alpha;
    config.replica.registry = registry_;
  }

  world_ = std::make_unique<World>(
      WorldConfig{.seed = config.seed, .network = config.network});
  world_->loop().set_registry(registry_);
  world_->network().set_registry(registry_);
  if (config.record_net_trace) world_->network().enable_trace();
  const auto population = static_cast<std::size_t>(
      config.clients + config.persistent_bots + config.naive_bots);
  world_->network().reserve_messages(population / 4 + 1024);
  world_->loop().reserve(population + 1024);

  // Fault injection: the injector draws from its own substream (forked off
  // the scenario seed), so a given seed replays bit-identically and an
  // inert config leaves the world untouched.
  if (config.faults.active()) {
    fault_ = std::make_unique<FaultInjector>(
        config.faults, world_->rng().fork(kFaultStreamSalt));
    fault_->set_registry(registry_);
    world_->network().set_fault_injector(fault_.get());
    for (const double t : config.faults.replica_crash_times_s) {
      world_->loop().schedule_at(t, [this] { crash_one_replica(); });
    }
  }

  // Cloud provider, spreading replicas across all domains.
  CloudProviderConfig provider_config;
  provider_config.boot_delay_s = config.boot_delay_s;
  provider_config.replica_nic = config.replica_nic;
  provider_config.replica = config.replica;
  provider_config.domains.clear();
  for (std::int32_t d = 0; d < config.domains; ++d) {
    provider_config.domains.push_back(d);
  }
  provider_ = std::make_unique<CloudProvider>(*world_, provider_config);
  provider_->set_registry(registry_);
  if (fault_) provider_->set_fault_injector(fault_.get());

  // Control plane.
  dns_ = world_->spawn<DnsServer>(config.infra_nic, "dns");
  coordinator_ = world_->spawn<CoordinationServer>(config.infra_nic,
                                                   "coordinator",
                                                   config.coordinator);
  for (std::int32_t d = 0; d < config.domains; ++d) {
    for (std::int32_t i = 0; i < config.load_balancers_per_domain; ++i) {
      NicConfig nic = config.lb_nic;
      nic.domain = d;
      auto* lb = world_->spawn<LoadBalancer>(
          nic, "lb-" + std::to_string(d) + "-" + std::to_string(i));
      lb->reserve_records(static_cast<std::size_t>(
          std::max<std::int32_t>(config.clients, 16)));
      load_balancers_.push_back(lb);
      dns_->register_load_balancer(config.service, lb->id());
    }
  }
  coordinator_->set_infrastructure(provider_.get(), load_balancers_);

  // Initial replicas (synchronously attached — the service pre-exists).
  for (std::int32_t r = 0; r < config.initial_replicas; ++r) {
    NicConfig nic = config.replica_nic;
    nic.domain = r % config.domains;
    auto* replica = world_->spawn<ReplicaServer>(
        nic, "replica-initial-" + std::to_string(r), config.replica,
        coordinator_->id());
    initial_replicas_.push_back(replica->id());
    coordinator_->register_replica(replica->id());
  }
  for (std::int32_t s = 0; s < config.hot_spares; ++s) {
    NicConfig nic = config.replica_nic;
    nic.domain = s % config.domains;
    auto* spare = world_->spawn<ReplicaServer>(
        nic, "replica-spare-" + std::to_string(s), config.replica,
        coordinator_->id());
    coordinator_->add_hot_spare(spare->id());
  }
  // The pre-existing fleet joins the provider's active ledger so recycling
  // an initial replica (or releasing a seed spare) balances its books.
  provider_->adopt(config.initial_replicas + config.hot_spares);

  build_population(config);
}

void Scenario::build_population(const ScenarioConfig& config) {
  // The botmaster attaches before the swarm: member ports must stay a
  // contiguous range, so no other node may attach between add_* calls.
  if (config.persistent_bots > 0 || config.naive_bots > 0) {
    botmaster_ = world_->spawn<Botmaster>(config.infra_nic, "botmaster");
  }
  // One shared strategy object for the whole botnet; per-bot behavior
  // streams fork off the scenario seed chain (Rng::fork is const, so an
  // empty bot_strategy leaves the world's shared draw sequence — and thus
  // fault-replay traces — untouched).
  if (!config.bot_strategy.empty()) {
    bot_strategy_ =
        core::make_strategy(config.bot_strategy, config.bot_strategy_options);
  }
  const util::Rng behavior_root = world_->rng().fork(kBotBehaviorStreamSalt);

  SwarmConfig sc;
  sc.service = config.service;
  sc.dns = dns_->id();
  sc.request_timeout_s = config.client_request_timeout_s;
  sc.browse_think_s = config.client_browse_think_s;
  sc.heartbeat_s = config.client_heartbeat_s;
  sc.botmaster = botmaster_ != nullptr ? botmaster_->id() : kInvalidNode;
  sc.bot_junk_rate_pps = config.bot_junk_rate_pps;
  sc.bot_heavy_interval_s = config.bot_heavy_interval_s;
  sc.bot_heavy_cpu_seconds = config.bot_heavy_cpu_seconds;
  sc.strategy = bot_strategy_.get();
  sc.strategy_replicas = config.initial_replicas;
  sc.shard_threads = config.shard_threads;
  sc.behavior_root = world_->rng().fork(kClientBehaviorStreamSalt);
  swarm_ = world_->spawn<ClientSwarm>(config.infra_nic, "swarm",
                                      std::move(sc));

  // Benign clients: geo spread via per-client base latency, then a start
  // instant, both drawn from the world stream.
  auto& rng = world_->rng();
  for (std::int32_t c = 0; c < config.clients; ++c) {
    NicConfig nic = config.client_nic;
    nic.base_latency_s =
        config.client_latency_min_s +
        rng.uniform() * (config.client_latency_max_s - config.client_latency_min_s);
    swarm_->add_client(nic, rng.uniform() * config.client_start_spread_s);
  }
  for (std::int32_t b = 0; b < config.persistent_bots; ++b) {
    NicConfig nic = config.client_nic;
    nic.base_latency_s =
        config.client_latency_min_s +
        rng.uniform() * (config.client_latency_max_s - config.client_latency_min_s);
    const double start =
        config.bot_start_offset_s + rng.uniform() * config.bot_start_spread_s;
    swarm_->add_bot(nic, start,
                    core::BotState(behavior_root.fork_small(
                        static_cast<std::uint64_t>(b))));
  }
  swarm_->finalize();
  for (std::int32_t b = 0; b < config.naive_bots; ++b) {
    NicConfig nic = config.client_nic;
    auto* bot = world_->spawn<NaiveBot>(
        nic, "nbot-" + std::to_string(b),
        NaiveBotConfig{.junk_rate_pps = config.naive_junk_rate_pps});
    naive_bots_.push_back(bot);
    if (botmaster_ != nullptr) botmaster_->add_naive_bot(bot->id());
  }
}

bool Scenario::run_until(SimTime t) { return world_->loop().run_until(t); }

void Scenario::crash_one_replica() {
  // Victim: a live (attached) member of the coordinator's active set, chosen
  // through the fault RNG so the pick replays deterministically.  The crash
  // is unannounced — no decommission, no redirects — recovery must come from
  // client heartbeats and the coordinator's command watchdog.
  std::vector<NodeId> candidates;
  for (const NodeId r : coordinator_->active_replicas()) {
    if (world_->network().is_attached(r)) candidates.push_back(r);
  }
  if (candidates.empty() || fault_ == nullptr) return;
  const NodeId victim = candidates[static_cast<std::size_t>(
      fault_->pick_index(static_cast<std::int64_t>(candidates.size())))];
  fault_->note_crash();
  replica(victim)->crash();
  world_->retire(victim);
}

ReplicaServer* Scenario::replica(NodeId id) {
  auto* r = dynamic_cast<ReplicaServer*>(world_->node(id));
  if (r == nullptr) throw std::invalid_argument("Scenario: not a replica id");
  return r;
}

std::int64_t Scenario::clients_connected() const {
  return swarm_->clients_connected();
}

std::int64_t Scenario::replicas_hosting_bots() const {
  std::set<NodeId> bot_homes;
  for (std::int32_t i = swarm_->benign_members(); i < swarm_->members(); ++i) {
    const NodeId r = swarm_->current_replica(i);
    if (r != kInvalidNode && world_->network().is_attached(r)) {
      bot_homes.insert(r);
    }
  }
  return static_cast<std::int64_t>(bot_homes.size());
}

std::int64_t Scenario::benign_clients_isolated_from_bots() const {
  std::set<NodeId> bot_homes;
  const std::int32_t benign = swarm_->benign_members();
  for (std::int32_t i = benign; i < swarm_->members(); ++i) {
    bot_homes.insert(swarm_->current_replica(i));
  }
  std::int64_t n = 0;
  for (std::int32_t i = 0; i < benign; ++i) {
    const NodeId r = swarm_->current_replica(i);
    if (r != kInvalidNode && world_->network().is_attached(r) &&
        !bot_homes.contains(r)) {
      ++n;
    }
  }
  return n;
}

}  // namespace shuffledef::cloudsim
