// Swarm scale battery: bit-identical sharded sweeps and conservation at
// 10^5 members.
//
// The ClientSwarm's sweep scan, its batched strategy rounds, and the
// replicas' shuffle-push fan-out build all shard across
// util::ThreadPool::shared() under the deterministic-chunk contract: chunk
// boundaries depend only on (range, grain), every draw comes from a
// per-member stream, every write lands in that member's own slot, and all
// sends happen in a serial emission pass.  These tests hold the engine to
// that promise — full network traces, not just counters — which is why the
// executable carries the "threading" ctest label and runs under TSan.
#include <gtest/gtest.h>

#include "cloudsim/scenario.h"

namespace shuffledef::cloudsim {
namespace {

/// A fault-injected world sized for `clients` members.  NICs are fat
/// and pages small so the population — not the pipes — is the load.
ScenarioConfig scale_world(std::int32_t clients, std::uint64_t seed = 31) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas = std::max<std::int32_t>(2, clients / 2500);
  cfg.hot_spares = 1;
  cfg.clients = clients;
  cfg.client_start_spread_s = 4.0;
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

struct RunResult {
  std::vector<NetTraceEvent> trace;
  NetworkStats net;
  SwarmStats swarm;
  std::int64_t connected = 0;
  std::int64_t migrated = 0;
};

RunResult run(ScenarioConfig cfg, double horizon) {
  Scenario s(cfg);
  EXPECT_TRUE(s.run_until(horizon));
  RunResult r;
  r.trace = s.world().network().trace();
  r.net = s.world().network().stats();
  r.swarm = s.swarm()->stats();
  r.connected = s.clients_connected();
  r.migrated = s.coordinator()->stats().clients_migrated;
  EXPECT_TRUE(r.net.conserved());
  return r;
}

void expect_same_world(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.net.sends, b.net.sends);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
  EXPECT_EQ(a.net.dropped_faulted, b.net.dropped_faulted);
  EXPECT_EQ(a.net.bytes_delivered, b.net.bytes_delivered);
  EXPECT_EQ(a.swarm.page_loads, b.swarm.page_loads);
  EXPECT_EQ(a.swarm.timeouts, b.swarm.timeouts);
  EXPECT_EQ(a.swarm.rejoins, b.swarm.rejoins);
  EXPECT_EQ(a.swarm.migrations_completed, b.swarm.migrations_completed);
  EXPECT_EQ(a.swarm.junk_sent, b.swarm.junk_sent);
  EXPECT_EQ(a.connected, b.connected);
  EXPECT_EQ(a.migrated, b.migrated);
}

TEST(SwarmScale, ShardedSweepIsBitIdenticalAcrossThreadCounts) {
  // Full-trace identity at 10^4 members: serial vs 4 worker threads.
  auto cfg = scale_world(10'000);
  cfg.record_net_trace = true;

  cfg.shard_threads = 1;
  const auto serial = run(cfg, 12.0);
  cfg.shard_threads = 4;
  const auto sharded = run(cfg, 12.0);

  ASSERT_FALSE(serial.trace.empty());
  ASSERT_EQ(serial.trace.size(), sharded.trace.size());
  for (std::size_t i = 0; i < serial.trace.size(); ++i) {
    ASSERT_EQ(serial.trace[i], sharded.trace[i])
        << "trace diverges at event " << i;
  }
  expect_same_world(serial, sharded);
  // The run exercised what it claims to: faults fired and clients migrated.
  EXPECT_GT(serial.net.dropped_faulted, 0u);
  EXPECT_GT(serial.migrated, 0);
}

TEST(SwarmScale, SameSeedReplaysBitIdenticallyAtScale) {
  auto cfg = scale_world(10'000, 33);
  cfg.record_net_trace = true;
  cfg.shard_threads = 4;
  const auto a = run(cfg, 12.0);
  const auto b = run(cfg, 12.0);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);
  expect_same_world(a, b);
}

TEST(SwarmScale, ConservationAndStatsIdentityAtHundredThousand) {
  // 10^5 members, no trace recording (memory), short horizon: the invariant
  // `sends + duplicated == delivered + dropped_* + in_flight` and the full
  // aggregate-stat vector must agree across thread counts.
  auto cfg = scale_world(100'000, 35);
  cfg.client_start_spread_s = 8.0;

  cfg.shard_threads = 1;
  const auto serial = run(cfg, 10.0);
  cfg.shard_threads = 4;
  const auto sharded = run(cfg, 10.0);

  expect_same_world(serial, sharded);
  EXPECT_GT(serial.swarm.page_loads, 50'000);
  EXPECT_GT(serial.connected, 50'000);
}

}  // namespace
}  // namespace shuffledef::cloudsim
