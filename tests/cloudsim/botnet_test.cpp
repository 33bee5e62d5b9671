// Botnet mechanics: botmaster hit lists, naive-bot retargeting, persistent
// bots acting as whitelisted insiders.
#include <gtest/gtest.h>

#include "cloudsim/botnet.h"
#include "cloudsim/client_swarm.h"
#include "cloudsim/dns_server.h"
#include "cloudsim/load_balancer.h"
#include "cloudsim/replica_server.h"
#include "core/attacker_strategy.h"

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
    replica = world.spawn<ReplicaServer>(nic(), "r1", ReplicaConfig{});
    dns->register_load_balancer("svc", lb->id());
    lb->add_replica(replica->id());
    botmaster = world.spawn<Botmaster>(nic(), "botmaster");
  }
  /// One persistent bot joining now: a one-bot swarm reporting to the
  /// botmaster.
  ClientSwarm* add_pbot(double junk_pps, double heavy_interval_s = 0.0,
                        double heavy_cpu_seconds = 0.2) {
    SwarmConfig sc;
    sc.service = "svc";
    sc.dns = dns->id();
    sc.botmaster = botmaster->id();
    sc.bot_junk_rate_pps = junk_pps;
    sc.bot_heavy_interval_s = heavy_interval_s;
    sc.bot_heavy_cpu_seconds = heavy_cpu_seconds;
    auto* swarm = world.spawn<ClientSwarm>(nic(), "pbot", std::move(sc));
    swarm->add_bot(nic(0.02), 0.0, core::BotState{});
    swarm->finalize();
    return swarm;
  }
  World world;
  DnsServer* dns;
  LoadBalancer* lb;
  ReplicaServer* replica;
  Botmaster* botmaster;
};

TEST(Botnet, PersistentBotJoinsLikeAClientAndIsWhitelisted) {
  Rig rig;
  auto* bot = rig.add_pbot(0.0);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  EXPECT_TRUE(bot->connected(0));
  EXPECT_EQ(bot->current_replica(0), rig.replica->id());
  const auto clients = rig.replica->connected_clients();
  ASSERT_EQ(clients.size(), 1u);  // indistinguishable from a benign client
  EXPECT_EQ(clients[0].first, bot->member_ip(0));
}

TEST(Botnet, PersistentBotFloodsItsReplica) {
  Rig rig;
  auto* bot = rig.add_pbot(500.0);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  EXPECT_GT(bot->stats().junk_sent, 500);
  EXPECT_GT(rig.replica->stats().junk_received, 500u);
}

TEST(Botnet, BotmasterBuildsHitListFromScoutReports) {
  Rig rig;
  rig.add_pbot(0.0);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  EXPECT_TRUE(rig.botmaster->hit_list().contains(rig.replica->id()));
}

TEST(Botnet, NaiveBotsFloodOnlyCommandedTargets) {
  Rig rig;
  auto* naive = rig.world.spawn<NaiveBot>(nic(), "nbot",
                                          NaiveBotConfig{.junk_rate_pps = 300});
  rig.botmaster->add_naive_bot(naive->id());
  ASSERT_TRUE(rig.world.loop().run_until(2.0));
  EXPECT_EQ(naive->junk_sent(), 0u);  // no hit list yet

  rig.add_pbot(0.0);  // the scout reports the replica
  ASSERT_TRUE(rig.world.loop().run_until(8.0));
  EXPECT_GT(naive->junk_sent(), 100u);
  EXPECT_GT(rig.replica->stats().junk_received, 100u);
}

TEST(Botnet, NaiveBotsKeepShootingAtRecycledInstances) {
  Rig rig;
  auto* naive = rig.world.spawn<NaiveBot>(nic(), "nbot",
                                          NaiveBotConfig{.junk_rate_pps = 300});
  rig.botmaster->add_naive_bot(naive->id());
  rig.add_pbot(0.0);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  const auto junk_before = rig.replica->stats().junk_received;
  EXPECT_GT(junk_before, 0u);

  // The defense replaces the replica; the naive bots never learn.
  rig.world.retire(rig.replica->id());
  ASSERT_TRUE(rig.world.loop().run_until(10.0));
  EXPECT_GT(naive->junk_sent(), 1000u);
  EXPECT_EQ(rig.replica->stats().junk_received, junk_before);
  EXPECT_GT(rig.world.network().stats().dropped_detached, 500u);
}

TEST(Botnet, HeavyRequestBotBurnsServerCpu) {
  Rig rig;
  auto* bot = rig.add_pbot(0.0, 0.05, 0.2);
  ASSERT_TRUE(rig.world.loop().run_until(6.0));
  EXPECT_GT(bot->stats().heavy_sent, 20);
  // 4 CPU-seconds of work arrive per wall second: backlog builds, shedding
  // eventually kicks in.
  EXPECT_GT(rig.replica->cpu_backlog_s() +
                static_cast<double>(rig.replica->stats().shed_cpu_overload),
            0.5);
}

TEST(Botnet, StrategyBotDecidesAndFiresAtConnect) {
  // A strategy bot decides at its connect instant, so a wave that is on
  // lands its first heavy request then, not at the next botnet-wide round
  // boundary (5 s away here).
  Rig rig;
  core::StrategyOptions options;
  options.wave_period = 1000;
  options.wave_duty = 0.01;  // on for the first 10 rounds
  const auto waves = core::make_strategy("synchronized-waves", options);
  SwarmConfig sc;
  sc.service = "svc";
  sc.dns = rig.dns->id();
  sc.botmaster = rig.botmaster->id();
  sc.bot_heavy_interval_s = 0.05;
  sc.strategy = waves.get();
  sc.strategy_round_s = 5.0;
  auto* bot = rig.world.spawn<ClientSwarm>(nic(), "wave-bot", sc);
  bot->add_bot(nic(0.02), 0.0, core::BotState{});
  bot->finalize();
  // Step to the first instant the bot is connected.
  while (!bot->connected(0)) {
    ASSERT_LT(rig.world.now(), sc.strategy_round_s);
    ASSERT_TRUE(rig.world.loop().run_until(rig.world.now() + 0.001));
  }
  EXPECT_TRUE(bot->bot_active(0));
  EXPECT_EQ(bot->stats().heavy_sent, 1);
}

TEST(Botnet, DetectionTickReportsFloodToCoordinator) {
  // A stub coordinator that records reports.
  struct StubCoordinator final : Node {
    using Node::Node;
    int reports = 0;
    void on_message(const Message& msg) override {
      if (msg.type == MessageType::kAttackReport) ++reports;
    }
  };
  Rig rig;
  auto* coord = rig.world.spawn<StubCoordinator>(nic(), "stub-coord");
  ReplicaConfig rc;
  rc.detect_window_s = 0.2;
  rc.junk_rate_threshold = 100.0;
  auto* watched =
      rig.world.spawn<ReplicaServer>(nic(), "watched", rc, coord->id());
  rig.lb->add_replica(watched->id());
  // Flood it directly.
  for (int i = 0; i < 200; ++i) {
    rig.world.loop().schedule_at(
        1.0 + i * 0.001, [&rig, watched, coord] {
          Message junk{coord->id(), watched->id(), MessageType::kJunkPacket,
                       kJunkPacketBytes, {}};
          rig.world.network().send(std::move(junk));
        });
  }
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  EXPECT_EQ(coord->reports, 1);  // reported once, not spammed
}

}  // namespace
}  // namespace shuffledef::cloudsim
