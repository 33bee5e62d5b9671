// Browsing, keepalive and timeout behaviour of one swarm member.
#include <gtest/gtest.h>

#include "cloudsim/client_swarm.h"
#include "cloudsim/dns_server.h"
#include "cloudsim/load_balancer.h"
#include "cloudsim/replica_server.h"
#include "member_log.h"

namespace shuffledef::cloudsim {
namespace {

NicConfig nic(double latency = 0.005) {
  return NicConfig{.egress_bps = 1e9, .ingress_bps = 1e9,
                   .base_latency_s = latency, .domain = 0};
}

struct Rig {
  Rig() {
    dns = world.spawn<DnsServer>(nic(), "dns");
    lb = world.spawn<LoadBalancer>(nic(), "lb");
    r1 = world.spawn<ReplicaServer>(nic(), "r1", ReplicaConfig{});
    r2 = world.spawn<ReplicaServer>(nic(), "r2", ReplicaConfig{});
    dns->register_load_balancer("svc", lb->id());
    lb->add_replica(r1->id());
  }
  /// One client joining at t = now: a one-member swarm.
  ClientSwarm* add_client(SwarmConfig sc, double latency = 0.02) {
    sc.dns = dns->id();
    auto* swarm = world.spawn<ClientSwarm>(nic(), "client", std::move(sc));
    swarm->add_client(nic(latency), 0.0);
    swarm->finalize();
    return swarm;
  }
  ClientSwarm* add_browser(double think_s) {
    SwarmConfig sc;
    sc.service = "svc";
    sc.browse_think_s = think_s;
    return add_client(sc);
  }
  /// Ships member 0 of `c` from r1 to r2 the way the coordinator does:
  /// whitelist on the target, then the shuffle command to the old replica.
  void migrate_to_r2(ClientSwarm* c) {
    Message wl{lb->id(), r2->id(), MessageType::kWhitelistAdd,
               kControlMessageBytes,
               WhitelistAddPayload{c->member_ip(0), c->member_port(0)}};
    world.network().send(std::move(wl));
    ShuffleCommandPayload cmd;
    cmd.client_to_replica.emplace_back(c->member_port(0), r2->id());
    Message m{lb->id(), r1->id(), MessageType::kShuffleCommand,
              kControlMessageBytes, cmd};
    world.network().send(std::move(m));
  }
  World world;
  DnsServer* dns;
  LoadBalancer* lb;
  ReplicaServer* r1;
  ReplicaServer* r2;
};

constexpr auto kPageLoad = MemberEvent::Kind::kPageLoad;

TEST(BrowsingClient, ReloadsRepeatedly) {
  Rig rig;
  auto* c = rig.add_browser(1.0);
  MemberLog log(*c);
  ASSERT_TRUE(rig.world.loop().run_until(30.0));
  ASSERT_TRUE(c->connected(0));
  // ~30s of browsing at ~1s think time: plenty of loads.
  const auto loads = log.of(0, kPageLoad);
  EXPECT_GE(loads.size(), 10u);
  EXPECT_GT(rig.r1->stats().pages_served, 10u);
  // Timestamps are ordered and self-consistent.
  double prev = -1.0;
  for (const auto& load : loads) {
    EXPECT_GT(load.duration(), 0.0);
    EXPECT_GE(load.end_s, prev);
    prev = load.end_s;
  }
}

TEST(BrowsingClient, NoReloadsWhenThinkTimeZero) {
  Rig rig;
  auto* c = rig.add_browser(0.0);
  MemberLog log(*c);
  ASSERT_TRUE(rig.world.loop().run_until(20.0));
  ASSERT_TRUE(c->connected(0));
  EXPECT_EQ(log.of(0, kPageLoad).size(), 1u);  // prototype behaviour
}

TEST(BrowsingClient, KeepsBrowsingAcrossAMigration) {
  Rig rig;
  auto* c = rig.add_browser(0.5);
  MemberLog log(*c);
  // Reloads start on sweep boundaries (every 0.25 s) and finish well within
  // 0.1 s, so between boundaries the browser is connected, not mid-reload.
  ASSERT_TRUE(rig.world.loop().run_until(10.1));
  ASSERT_TRUE(c->connected(0));
  const auto loads_before = log.of(0, kPageLoad).size();

  rig.world.loop().schedule_at(10.5, [&] { rig.migrate_to_r2(c); });
  ASSERT_TRUE(rig.world.loop().run_until(25.0));
  EXPECT_TRUE(c->connected(0));
  EXPECT_EQ(c->current_replica(0), rig.r2->id());
  ASSERT_EQ(log.of(0, MemberEvent::Kind::kMigration).size(), 1u);
  // Browsing continued on the new replica.
  EXPECT_GT(log.of(0, kPageLoad).size(), loads_before + 5);
  EXPECT_GT(rig.r2->stats().pages_served, 5u);
}

TEST(HeartbeatClient, DetectsSilentReplicaDeathAndRejoins) {
  Rig rig;
  rig.lb->add_replica(rig.r2->id());
  SwarmConfig sc;
  sc.service = "svc";
  sc.heartbeat_s = 1.0;
  sc.request_timeout_s = 1.0;
  auto* c = rig.add_client(sc);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  ASSERT_TRUE(c->connected(0));
  const NodeId home = c->current_replica(0);

  // The replica dies WITHOUT any shuffle command (instance failure).
  rig.world.retire(home);
  ASSERT_TRUE(rig.world.loop().run_until(20.0));

  EXPECT_GE(c->stats().heartbeat_failures, 1);
  EXPECT_TRUE(c->connected(0));
  EXPECT_NE(c->current_replica(0), home);  // recovered onto the survivor
}

TEST(HeartbeatClient, QuietConnectionStaysUpWithoutRejoins) {
  Rig rig;
  SwarmConfig sc;
  sc.service = "svc";
  sc.heartbeat_s = 0.5;  // a ping 0.5 s after each pong
  sc.request_timeout_s = 0.5;
  auto* c = rig.add_client(sc);
  ASSERT_TRUE(rig.world.loop().run_until(30.0));
  EXPECT_TRUE(c->connected(0));
  EXPECT_EQ(c->stats().heartbeat_failures, 0);
  EXPECT_EQ(c->stats().rejoins, 0);
  // Pings actually flowed.
  EXPECT_GT(rig.world.network().stats().delivered, 60u);
}

TEST(HeartbeatClient, SurvivesAPushMigrationWithoutFalseAlarms) {
  Rig rig;
  SwarmConfig sc;
  sc.service = "svc";
  sc.heartbeat_s = 0.5;
  auto* c = rig.add_client(sc);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  ASSERT_TRUE(c->connected(0));
  ASSERT_EQ(c->current_replica(0), rig.r1->id());

  rig.world.loop().schedule_at(6.0, [&] { rig.migrate_to_r2(c); });
  ASSERT_TRUE(rig.world.loop().run_until(30.0));
  EXPECT_TRUE(c->connected(0));
  EXPECT_EQ(c->current_replica(0), rig.r2->id());
  // The push-based migration must not be misread as a dead WebSocket.
  EXPECT_EQ(c->stats().heartbeat_failures, 0);
  EXPECT_EQ(c->stats().rejoins, 0);
}

TEST(BrowsingClient, TimeoutsAreTimestamped) {
  Rig rig;
  SwarmConfig sc;
  sc.service = "nonexistent";
  sc.request_timeout_s = 0.5;
  auto* c = rig.add_client(sc, 0.005);
  MemberLog log(*c);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  EXPECT_FALSE(c->connected(0));
  const auto timeouts = log.of(0, MemberEvent::Kind::kTimeout);
  ASSERT_GT(timeouts.size(), 0u);
  EXPECT_EQ(static_cast<std::int64_t>(timeouts.size()), c->stats().timeouts);
  for (const auto& t : timeouts) {
    EXPECT_GE(t.end_s, 0.5);
    EXPECT_LE(t.end_s, 5.0);
  }
}

}  // namespace
}  // namespace shuffledef::cloudsim
