// DNS + load balancer + replica behaviour through real message flows.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cloudsim/client_swarm.h"
#include "cloudsim/dns_server.h"
#include "cloudsim/load_balancer.h"
#include "cloudsim/node.h"
#include "cloudsim/replica_server.h"
#include "member_log.h"
#include "util/random.h"

namespace shuffledef::cloudsim {
namespace {

NicConfig nic(double latency = 0.005) {
  return NicConfig{.egress_bps = 1e9, .ingress_bps = 1e9,
                   .base_latency_s = latency, .domain = 0};
}

struct Stack {
  explicit Stack(std::uint64_t seed = 1) : world(WorldConfig{.seed = seed, .network = {}}) {
    dns = world.spawn<DnsServer>(nic(), "dns");
    lb = world.spawn<LoadBalancer>(nic(), "lb");
    r1 = world.spawn<ReplicaServer>(nic(), "r1", ReplicaConfig{});
    r2 = world.spawn<ReplicaServer>(nic(), "r2", ReplicaConfig{});
    dns->register_load_balancer("svc", lb->id());
    lb->add_replica(r1->id());
    lb->add_replica(r2->id());
  }
  /// One client joining `start` seconds from now: a one-member swarm.
  ClientSwarm* add_client(double start = 0.0, std::string service = "svc",
                          double request_timeout_s = 4.0) {
    SwarmConfig sc;
    sc.service = std::move(service);
    sc.dns = dns->id();
    sc.request_timeout_s = request_timeout_s;
    auto* swarm = world.spawn<ClientSwarm>(nic(), "client", std::move(sc));
    swarm->add_client(nic(0.02), start);
    swarm->finalize();
    return swarm;
  }
  World world;
  DnsServer* dns;
  LoadBalancer* lb;
  ReplicaServer* r1;
  ReplicaServer* r2;
};

/// A host that takes over `ip` and says hello to the balancer directly,
/// recording the replica it is redirected to.
class Returner final : public Node {
 public:
  Returner(World& world, std::string name, NodeId lb, IpId ip)
      : Node(world, std::move(name)), lb_(lb), ip_(ip) {}
  void on_start() override {
    world().register_ip(ip_, id());
    send(lb_, MessageType::kClientHello, kHttpRequestBytes,
         ClientHelloPayload{ip_});
  }
  void on_message(const Message& msg) override {
    if (msg.type == MessageType::kRedirect) {
      redirected_to = payload_as<RedirectPayload>(msg).target_replica;
    }
  }
  NodeId redirected_to = kInvalidNode;

 private:
  NodeId lb_;
  IpId ip_;
};

TEST(ServiceStack, FullJoinFlowConnectsClient) {
  Stack s;
  auto* c = s.add_client();
  MemberLog log(*c);
  ASSERT_TRUE(s.world.loop().run_until(5.0));
  EXPECT_TRUE(c->connected(0));
  EXPECT_NE(c->current_replica(0), kInvalidNode);
  EXPECT_EQ(log.of(0, MemberEvent::Kind::kPageLoad).size(), 1u);
  EXPECT_GT(c->stats().first_page_at, 0.0);
  EXPECT_EQ(s.dns->queries_served(), 1u);
}

TEST(ServiceStack, RoundRobinSpreadsClients) {
  Stack s;
  auto* c1 = s.add_client(0.0);
  auto* c2 = s.add_client(0.1);
  ASSERT_TRUE(s.world.loop().run_until(5.0));
  ASSERT_TRUE(c1->connected(0));
  ASSERT_TRUE(c2->connected(0));
  EXPECT_NE(c1->current_replica(0), c2->current_replica(0));
  EXPECT_EQ(s.lb->stats().assignments, 2u);
}

TEST(ServiceStack, StickySessionsPinReturningIps) {
  Stack s;
  auto* c1 = s.add_client(0.0);
  ASSERT_TRUE(s.world.loop().run_until(5.0));
  const NodeId home = c1->current_replica(0);
  // The same IP joining again (e.g. after a browser restart) goes home.
  auto* again = s.world.spawn<Returner>(nic(0.02), "again", s.lb->id(),
                                        c1->member_ip(0));
  ASSERT_TRUE(s.world.loop().run_until(10.0));
  EXPECT_EQ(again->redirected_to, home);
  EXPECT_GE(s.lb->stats().sticky_hits, 1u);
}

TEST(ServiceStack, NonWhitelistedRequestsAreDropped) {
  Stack s;
  // A client that skips the load balancer and guesses the replica address.
  struct Prober final : Node {
    using Node::Node;
    NodeId target = kInvalidNode;
    int responses = 0;
    void on_start() override {
      send(target, MessageType::kHttpGet, kHttpRequestBytes,
           HttpGetPayload{world().intern_ip("6.6.6.6")});
    }
    void on_message(const Message& msg) override {
      if (msg.type == MessageType::kHttpResponse) ++responses;
    }
  };
  auto* prober = s.world.spawn<Prober>(nic(), "prober");
  prober->target = s.r1->id();
  prober->on_start();
  ASSERT_TRUE(s.world.loop().run_until(5.0));
  EXPECT_EQ(prober->responses, 0);
  EXPECT_GE(s.r1->stats().rejected_not_whitelisted, 1u);
}

TEST(ServiceStack, WhitelistTableMatchesAMapOracle) {
  // The replica's open-addressing whitelist starts sized for 1,024 clients.
  // Mixed single adds, batches and overwrites push it well past that (it
  // must grow), and afterwards it must hold exactly what a std::map holds
  // and admit exactly the IPs it holds.
  Stack s;
  util::Rng rng(77);
  std::map<IpId, NodeId> oracle;
  const auto deliver = [&](MessageType type, Payload payload) {
    s.r1->on_message(Message{s.lb->id(), s.r1->id(), type,
                             kControlMessageBytes, std::move(payload)});
  };
  constexpr IpId kIpSpace = 6000;
  for (int op = 0; op < 400; ++op) {
    if (rng.bernoulli(0.7)) {
      // Single adds, often re-pointing an IP already listed.
      const auto ip = static_cast<IpId>(rng.uniform_int(0, kIpSpace - 1));
      const auto node = static_cast<NodeId>(rng.uniform_int(0, 999));
      deliver(MessageType::kWhitelistAdd, WhitelistAddPayload{ip, node});
      oracle[ip] = node;
    } else {
      // A coordinator batch: a strided run of IPs, like a shuffle's slice.
      WhitelistBatchPayload batch;
      const auto stride = static_cast<IpId>(rng.uniform_int(1, 8));
      IpId ip = static_cast<IpId>(rng.uniform_int(0, kIpSpace - 1));
      for (int k = 0; k < 40; ++k, ip = (ip + stride) % kIpSpace) {
        const auto node = static_cast<NodeId>(rng.uniform_int(0, 999));
        batch.entries.emplace_back(ip, node);
        oracle[ip] = node;
      }
      deliver(MessageType::kWhitelistBatch, std::move(batch));
    }
  }
  ASSERT_GT(oracle.size(), 2048u);  // past the pre-sized table, twice over
  const std::vector<std::pair<IpId, NodeId>> want(oracle.begin(),
                                                  oracle.end());
  EXPECT_EQ(s.r1->connected_clients(), want);

  for (IpId ip = 0; ip < kIpSpace; ++ip) {
    deliver(MessageType::kHttpGet, HttpGetPayload{ip});
  }
  deliver(MessageType::kHttpGet, HttpGetPayload{kInvalidIp});
  EXPECT_EQ(s.r1->stats().pages_served, oracle.size());
  EXPECT_EQ(s.r1->stats().rejected_not_whitelisted,
            static_cast<std::uint64_t>(kIpSpace) + 1 - oracle.size());
}

TEST(ServiceStack, LoadBalancerSkipsRecycledReplicas) {
  Stack s;
  s.world.retire(s.r1->id());
  auto* c = s.add_client();
  ASSERT_TRUE(s.world.loop().run_until(5.0));
  ASSERT_TRUE(c->connected(0));
  EXPECT_EQ(c->current_replica(0), s.r2->id());
}

TEST(ServiceStack, NoReplicasMeansRejection) {
  Stack s;
  s.lb->remove_replica(s.r1->id());
  s.lb->remove_replica(s.r2->id());
  auto* c = s.add_client();
  ASSERT_TRUE(s.world.loop().run_until(3.0));
  EXPECT_FALSE(c->connected(0));
  EXPECT_GE(s.lb->stats().rejected_no_replica, 1u);
}

TEST(ServiceStack, ShuffleCommandMigratesClientViaWsPush) {
  Stack s;
  s.lb->remove_replica(s.r2->id());  // force everyone onto r1
  auto* c = s.add_client();
  MemberLog log(*c);
  ASSERT_TRUE(s.world.loop().run_until(5.0));
  ASSERT_TRUE(c->connected(0));
  ASSERT_EQ(c->current_replica(0), s.r1->id());

  // Coordinator-style command: move the client to r2.
  s.world.loop().schedule_at(6.0, [&] {
    // Whitelist on the target first, as the coordinator does.
    Message wl{s.lb->id(), s.r2->id(), MessageType::kWhitelistAdd,
               kControlMessageBytes,
               WhitelistAddPayload{c->member_ip(0), c->member_port(0)}};
    s.world.network().send(std::move(wl));
    ShuffleCommandPayload cmd;
    cmd.client_to_replica.emplace_back(c->member_port(0), s.r2->id());
    Message m{s.lb->id(), s.r1->id(), MessageType::kShuffleCommand,
              kControlMessageBytes, cmd};
    s.world.network().send(std::move(m));
  });
  ASSERT_TRUE(s.world.loop().run_until(15.0));
  EXPECT_EQ(c->current_replica(0), s.r2->id());
  EXPECT_TRUE(c->connected(0));
  const auto migrations = log.of(0, MemberEvent::Kind::kMigration);
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_GT(migrations[0].duration(), 0.0);
  EXPECT_LT(migrations[0].duration(), 5.0);
  EXPECT_TRUE(s.r1->decommissioned());
  EXPECT_EQ(s.r1->stats().redirects_pushed, 1u);
}

TEST(ServiceStack, ComputationalAttackRaisesCpuBacklog) {
  Stack s;
  s.lb->remove_replica(s.r2->id());
  auto* c = s.add_client();
  ASSERT_TRUE(s.world.loop().run_until(5.0));
  ASSERT_TRUE(c->connected(0));
  // Whitelisted heavy requests burn server CPU.
  for (int i = 0; i < 10; ++i) {
    Message m{c->member_port(0), s.r1->id(), MessageType::kHeavyRequest,
              kHttpRequestBytes, HeavyRequestPayload{c->member_ip(0), 0.3}};
    s.world.network().send(std::move(m));
  }
  ASSERT_TRUE(s.world.loop().run_until(5.5));
  EXPECT_GT(s.r1->cpu_backlog_s(), 0.5);
  EXPECT_GT(s.r1->stats().shed_cpu_overload, 0u);  // queue limit kicked in
}

TEST(ServiceStack, DnsUnknownServiceTimesOutClient) {
  Stack s;
  auto* c = s.add_client(0.0, "unknown-svc", 0.5);
  ASSERT_TRUE(s.world.loop().run_until(4.0));
  EXPECT_FALSE(c->connected(0));
  EXPECT_GT(c->stats().timeouts, 0);
}

}  // namespace
}  // namespace shuffledef::cloudsim
