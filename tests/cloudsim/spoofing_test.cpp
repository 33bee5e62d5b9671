// IP spoofing and reconnaissance resistance (paper §VII).
#include <gtest/gtest.h>

#include "cloudsim/client_swarm.h"
#include "cloudsim/dns_server.h"
#include "cloudsim/load_balancer.h"
#include "cloudsim/node.h"
#include "cloudsim/replica_server.h"

namespace shuffledef::cloudsim {
namespace {

NicConfig nic(double latency = 0.005) {
  return NicConfig{.egress_bps = 1e9, .ingress_bps = 1e9,
                   .base_latency_s = latency, .domain = 0};
}

/// A bot that contacts the load balancer claiming someone else's (or a
/// nonexistent) IP, hoping to learn a replica address.
class SpoofingBot final : public Node {
 public:
  SpoofingBot(World& world, std::string name, NodeId lb, IpId claimed)
      : Node(world, std::move(name)), lb_(lb), claimed_(claimed) {}

  void on_start() override {
    send(lb_, MessageType::kClientHello, kHttpRequestBytes,
         ClientHelloPayload{claimed_});
  }
  void on_message(const Message& msg) override {
    if (msg.type == MessageType::kRedirect) {
      learned_replica_ = payload_as<RedirectPayload>(msg).target_replica;
    }
  }

  [[nodiscard]] NodeId learned_replica() const { return learned_replica_; }

 private:
  NodeId lb_;
  IpId claimed_;
  NodeId learned_replica_ = kInvalidNode;
};

struct Rig {
  Rig() {
    dns = world.spawn<DnsServer>(nic(), "dns");
    lb = world.spawn<LoadBalancer>(nic(), "lb");
    replica = world.spawn<ReplicaServer>(nic(), "r1", ReplicaConfig{});
    dns->register_load_balancer("svc", lb->id());
    lb->add_replica(replica->id());
  }
  /// One legitimate client joining now: a one-member swarm.
  ClientSwarm* add_client() {
    SwarmConfig sc;
    sc.service = "svc";
    sc.dns = dns->id();
    auto* swarm = world.spawn<ClientSwarm>(nic(), "client", std::move(sc));
    swarm->add_client(nic(0.02), 0.0);
    swarm->finalize();
    return swarm;
  }
  World world;
  DnsServer* dns;
  LoadBalancer* lb;
  ReplicaServer* replica;
};

TEST(Spoofing, UnroutableClaimedIpIsDroppedAtTheBalancer) {
  Rig rig;
  auto* bot = rig.world.spawn<SpoofingBot>(
      nic(), "spoofer", rig.lb->id(), rig.world.intern_ip("203.0.113.99"));
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  EXPECT_EQ(bot->learned_replica(), kInvalidNode);
  EXPECT_GE(rig.lb->stats().rejected_spoofed, 1u);
  EXPECT_EQ(rig.lb->stats().assignments, 0u);
}

TEST(Spoofing, StolenIpSendsTheRedirectToItsRealOwner) {
  Rig rig;
  // A legitimate client owns its IP …
  auto* victim = rig.add_client();
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  ASSERT_TRUE(victim->connected(0));

  // … and a bot claims it.  The redirect is routed to the victim, so the
  // bot learns nothing and the victim's session is undisturbed.
  auto* bot = rig.world.spawn<SpoofingBot>(nic(), "spoofer", rig.lb->id(),
                                           victim->member_ip(0));
  ASSERT_TRUE(rig.world.loop().run_until(6.0));
  EXPECT_EQ(bot->learned_replica(), kInvalidNode);
  EXPECT_TRUE(victim->connected(0));
  EXPECT_EQ(victim->current_replica(0), rig.replica->id());
}

TEST(Spoofing, WhitelistKeysToTheIpOwnerNode) {
  Rig rig;
  auto* client = rig.add_client();
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  ASSERT_TRUE(client->connected(0));
  const auto clients = rig.replica->connected_clients();
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0].first, client->member_ip(0));
  EXPECT_EQ(rig.world.ip_owner(clients[0].first), client->member_port(0));
  EXPECT_EQ(clients[0].second, client->member_port(0));
}

TEST(Spoofing, ReconnaissanceProbeGetsNoService) {
  Rig rig;
  // Even a prober that somehow knows the replica's address (e.g. via IP
  // scanning) gets nothing without the load balancer's whitelist entry.
  struct Prober final : Node {
    using Node::Node;
    NodeId target = kInvalidNode;
    int responses = 0;
    void on_message(const Message& msg) override {
      if (msg.type == MessageType::kHttpResponse) ++responses;
    }
  };
  auto* prober = rig.world.spawn<Prober>(nic(), "prober");
  prober->target = rig.replica->id();
  Message m{prober->id(), rig.replica->id(), MessageType::kHttpGet,
            kHttpRequestBytes, HttpGetPayload{rig.world.intern_ip("8.8.4.4")}};
  rig.world.network().send(std::move(m));
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  EXPECT_EQ(prober->responses, 0);
  EXPECT_GE(rig.replica->stats().rejected_not_whitelisted, 1u);
}

}  // namespace
}  // namespace shuffledef::cloudsim
