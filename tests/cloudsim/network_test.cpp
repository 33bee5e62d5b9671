#include "cloudsim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cloudsim/fault.h"
#include "cloudsim/node.h"
#include "obs/registry.h"
#include "util/random.h"

namespace shuffledef::cloudsim {
namespace {

/// Records every delivery with its arrival time.
class SinkNode final : public Node {
 public:
  using Node::Node;
  void on_message(const Message& msg) override {
    arrivals.push_back({loop().now(), msg.type, msg.size_bytes, msg.src});
  }
  struct Arrival {
    SimTime time;
    MessageType type;
    std::int64_t bytes;
    NodeId src;
  };
  std::vector<Arrival> arrivals;
};

NicConfig fast_nic(double latency = 0.01, std::int32_t domain = 0) {
  return NicConfig{.egress_bps = 1e9,
                   .ingress_bps = 1e9,
                   .base_latency_s = latency,
                   .domain = domain};
}

TEST(Network, DeliversWithPropagationDelay) {
  World world;
  auto* a = world.spawn<SinkNode>(fast_nic(0.010), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(0.020), "b");
  world.network().send(
      {a->id(), b->id(), MessageType::kHttpGet, 100, HttpGetPayload{}});
  ASSERT_TRUE(world.loop().run());
  ASSERT_EQ(b->arrivals.size(), 1u);
  // one-way = 0.010 + 0.020 + intra-domain extra (0.0005) + serialization.
  EXPECT_NEAR(b->arrivals[0].time, 0.0305, 0.001);
}

TEST(Network, InterDomainCostsMore) {
  World world;
  auto* a = world.spawn<SinkNode>(fast_nic(0.01, 0), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(0.01, 0), "b-same");
  auto* c = world.spawn<SinkNode>(fast_nic(0.01, 1), "c-other");
  world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  world.network().send({a->id(), c->id(), MessageType::kHttpGet, 100, {}});
  ASSERT_TRUE(world.loop().run());
  ASSERT_EQ(b->arrivals.size(), 1u);
  ASSERT_EQ(c->arrivals.size(), 1u);
  EXPECT_GT(c->arrivals[0].time, b->arrivals[0].time + 0.02);
}

TEST(Network, BandwidthSerializesLargeTransfers) {
  World world;
  NicConfig slow = fast_nic(0.0);
  slow.egress_bps = 8e6;  // 1 MB/s
  auto* a = world.spawn<SinkNode>(slow, "a");
  auto* b = world.spawn<SinkNode>(fast_nic(0.0), "b");
  // 500 KB at 1 MB/s (on the 90% data lane) ~ 0.55s.
  world.network().send(
      {a->id(), b->id(), MessageType::kHttpResponse, 500'000, {}});
  ASSERT_TRUE(world.loop().run());
  ASSERT_EQ(b->arrivals.size(), 1u);
  EXPECT_NEAR(b->arrivals[0].time, 0.5 / 0.9, 0.05);
}

TEST(Network, BackToBackTransfersQueueFifo) {
  World world;
  NicConfig slow = fast_nic(0.0);
  slow.egress_bps = 8e6;
  slow.max_queue_s = 100.0;
  auto* a = world.spawn<SinkNode>(slow, "a");
  auto* b = world.spawn<SinkNode>(fast_nic(0.0), "b");
  for (int i = 0; i < 3; ++i) {
    world.network().send(
        {a->id(), b->id(), MessageType::kHttpResponse, 100'000, {}});
  }
  ASSERT_TRUE(world.loop().run());
  ASSERT_EQ(b->arrivals.size(), 3u);
  const double unit = b->arrivals[0].time;
  EXPECT_NEAR(b->arrivals[1].time, 2 * unit, 0.01);
  EXPECT_NEAR(b->arrivals[2].time, 3 * unit, 0.01);
}

TEST(Network, TailDropsWhenQueueExceedsLimit) {
  World world;
  NicConfig tiny = fast_nic(0.0);
  tiny.egress_bps = 8e6;
  tiny.max_queue_s = 0.2;  // at most ~0.2s of backlog
  auto* a = world.spawn<SinkNode>(tiny, "a");
  auto* b = world.spawn<SinkNode>(fast_nic(0.0), "b");
  for (int i = 0; i < 50; ++i) {
    world.network().send(
        {a->id(), b->id(), MessageType::kHttpResponse, 100'000, {}});
  }
  ASSERT_TRUE(world.loop().run());
  EXPECT_LT(b->arrivals.size(), 10u);
  EXPECT_GT(world.network().stats().dropped_egress, 40u);
}

TEST(Network, PriorityLaneBypassesDataBacklog) {
  World world;
  NicConfig nic = fast_nic(0.0);
  nic.egress_bps = 8e6;
  nic.max_queue_s = 10.0;
  auto* a = world.spawn<SinkNode>(nic, "a");
  auto* b = world.spawn<SinkNode>(fast_nic(0.0), "b");
  // Saturate the data lane, then send one control message.
  for (int i = 0; i < 20; ++i) {
    world.network().send(
        {a->id(), b->id(), MessageType::kHttpResponse, 100'000, {}});
  }
  world.network().send({a->id(), b->id(), MessageType::kWsPush, 128,
                        WsPushPayload{}});
  ASSERT_TRUE(world.loop().run());
  // The WsPush must arrive before most of the bulk data.
  SimTime push_time = -1.0;
  std::size_t arrived_before_push = 0;
  for (const auto& ar : b->arrivals) {
    if (ar.type == MessageType::kWsPush) push_time = ar.time;
  }
  ASSERT_GE(push_time, 0.0);
  for (const auto& ar : b->arrivals) {
    if (ar.type != MessageType::kWsPush && ar.time < push_time) {
      ++arrived_before_push;
    }
  }
  EXPECT_LT(arrived_before_push, 3u);
}

TEST(Network, DetachedReceiverDropsTraffic) {
  World world;
  auto* a = world.spawn<SinkNode>(fast_nic(), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(), "b");
  world.retire(b->id());
  world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  ASSERT_TRUE(world.loop().run());
  EXPECT_TRUE(b->arrivals.empty());
  EXPECT_EQ(world.network().stats().dropped_detached, 1u);
}

TEST(Network, InFlightTrafficToRetiredNodeIsDropped) {
  World world;
  auto* a = world.spawn<SinkNode>(fast_nic(0.05), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(0.05), "b");
  world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  world.loop().schedule_at(0.01, [&] { world.retire(b->id()); });
  ASSERT_TRUE(world.loop().run());
  EXPECT_TRUE(b->arrivals.empty());
}

TEST(Network, StatsCountDeliveries) {
  World world;
  auto* a = world.spawn<SinkNode>(fast_nic(), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(), "b");
  world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  world.network().send({b->id(), a->id(), MessageType::kHttpGet, 200, {}});
  ASSERT_TRUE(world.loop().run());
  EXPECT_EQ(world.network().stats().delivered, 2u);
  EXPECT_EQ(world.network().stats().bytes_delivered, 300);
}

// Regression: a message destined for a detached node must count into
// dropped_detached exactly once, no matter where along the path (send time,
// in flight, at arrival) the detach happened.
TEST(Network, RegistryCountsFromAttachment) {
  // NetworkStats counts everything; the registry copies count from
  // set_registry on, published when the loop's run returns.
  World world;
  auto* a = world.spawn<SinkNode>(fast_nic(), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(), "b");
  const auto send = [&] {
    world.network().send({a->id(), b->id(), MessageType::kHttpGet, 512, {}});
  };
  for (int i = 0; i < 3; ++i) send();
  obs::Registry registry;
  world.network().set_registry(&registry);
  send();
  send();
  EXPECT_EQ(registry.snapshot().counter(kMetricNetSends), 0u);  // not yet
  EXPECT_TRUE(world.loop().run());
  const auto m = registry.snapshot();
  const auto& stats = world.network().stats();
  EXPECT_EQ(stats.sends, 5u);
  EXPECT_EQ(m.counter(kMetricNetSends), 2u);
  EXPECT_EQ(m.counter(kMetricNetDelivered), 5u);  // all delivered after
  // The gauge, like every counter, holds the change since attachment.
  EXPECT_EQ(m.gauge(kMetricNetInFlight), -3);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(Network, DetachedDropsAreCountedExactlyOnce) {
  World world;
  auto* a = world.spawn<SinkNode>(fast_nic(0.05), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(0.05), "b");
  // Three in-flight messages when the receiver is retired, plus one sent
  // after the retire.
  for (int i = 0; i < 3; ++i) {
    world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  }
  world.loop().schedule_at(0.01, [&] {
    world.retire(b->id());
    world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  });
  ASSERT_TRUE(world.loop().run());
  const auto& stats = world.network().stats();
  EXPECT_EQ(stats.sends, 4u);
  EXPECT_EQ(stats.dropped_detached, 4u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_TRUE(stats.conserved());
}

TEST(NetworkFaults, InjectedLossHitsOnlyTheConfiguredLane) {
  World world;
  FaultConfig cfg;
  cfg.data_loss_prob = 1.0;  // kill the data lane, spare control
  FaultInjector injector(cfg, util::Rng(7));
  world.network().set_fault_injector(&injector);
  auto* a = world.spawn<SinkNode>(fast_nic(), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(), "b");
  for (int i = 0; i < 5; ++i) {
    world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
    world.network().send(
        {a->id(), b->id(), MessageType::kWsPush, 128, WsPushPayload{}});
  }
  ASSERT_TRUE(world.loop().run());
  ASSERT_EQ(b->arrivals.size(), 5u);
  for (const auto& ar : b->arrivals) {
    EXPECT_EQ(ar.type, MessageType::kWsPush);
  }
  const auto& stats = world.network().stats();
  EXPECT_EQ(stats.dropped_faulted, 5u);
  EXPECT_EQ(injector.stats().drops_data, 5u);
  EXPECT_EQ(injector.stats().drops_ctrl, 0u);
  EXPECT_TRUE(stats.conserved());
}

TEST(NetworkFaults, DuplicationDeliversAnExtraCopy) {
  World world;
  FaultConfig cfg;
  cfg.ctrl_dup_prob = 1.0;
  FaultInjector injector(cfg, util::Rng(7));
  world.network().set_fault_injector(&injector);
  auto* a = world.spawn<SinkNode>(fast_nic(), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(), "b");
  world.network().send(
      {a->id(), b->id(), MessageType::kWsPush, 128, WsPushPayload{}});
  ASSERT_TRUE(world.loop().run());
  EXPECT_EQ(b->arrivals.size(), 2u);  // original + injected copy
  const auto& stats = world.network().stats();
  EXPECT_EQ(stats.sends, 1u);
  EXPECT_EQ(stats.duplicated, 1u);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_TRUE(stats.conserved());
}

TEST(NetworkFaults, LinkFlapWindowDropsThenRecovers) {
  World world;
  FaultConfig cfg;
  cfg.link_flaps.push_back({.start_s = 0.0, .duration_s = 1.0});
  FaultInjector injector(cfg, util::Rng(7));
  world.network().set_fault_injector(&injector);
  auto* a = world.spawn<SinkNode>(fast_nic(), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(), "b");
  world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  world.loop().schedule_at(2.0, [&] {
    world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  });
  ASSERT_TRUE(world.loop().run());
  EXPECT_EQ(b->arrivals.size(), 1u);  // only the post-flap send
  EXPECT_EQ(injector.stats().drops_flap, 1u);
  EXPECT_TRUE(world.network().stats().conserved());
}

TEST(NetworkFaults, NodeScopedFlapSparesOtherTraffic) {
  World world;
  auto* a = world.spawn<SinkNode>(fast_nic(), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(), "b");
  auto* c = world.spawn<SinkNode>(fast_nic(), "c");
  FaultConfig cfg;
  cfg.link_flaps.push_back(
      {.start_s = 0.0, .duration_s = 1.0, .node = b->id()});
  FaultInjector injector(cfg, util::Rng(7));
  world.network().set_fault_injector(&injector);
  world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  world.network().send({a->id(), c->id(), MessageType::kHttpGet, 100, {}});
  ASSERT_TRUE(world.loop().run());
  EXPECT_TRUE(b->arrivals.empty());
  EXPECT_EQ(c->arrivals.size(), 1u);
  EXPECT_EQ(injector.stats().drops_flap, 1u);
}

// Property: the conservation invariant holds for arbitrary traffic mixes,
// congested NICs, mid-run retires, and probabilistic loss/duplication.
TEST(NetworkProperty, ConservationHoldsUnderFuzzedTrafficAndFaults) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    util::Rng rng(seed);
    World world;
    FaultConfig cfg;
    cfg.data_loss_prob = 0.2;
    cfg.ctrl_loss_prob = 0.1;
    cfg.data_dup_prob = 0.15;
    cfg.ctrl_dup_prob = 0.1;
    cfg.link_flaps.push_back({.start_s = 0.4, .duration_s = 0.2});
    FaultInjector injector(cfg, rng.fork(99));
    world.network().set_fault_injector(&injector);

    std::vector<SinkNode*> nodes;
    for (int i = 0; i < 6; ++i) {
      NicConfig nic = fast_nic(0.01, i % 2);
      if (i % 3 == 0) {
        nic.egress_bps = 4e6;   // force egress backlog drops
        nic.max_queue_s = 0.1;
      }
      nodes.push_back(world.spawn<SinkNode>(nic, "n" + std::to_string(i)));
    }
    for (int i = 0; i < 300; ++i) {
      const auto src = static_cast<std::size_t>(rng.uniform_int(0, 5));
      const auto dst = static_cast<std::size_t>(rng.uniform_int(0, 5));
      const bool ctrl = rng.bernoulli(0.3);
      const auto bytes = ctrl ? 128 : rng.uniform_int(100, 200'000);
      Message msg{nodes[src]->id(), nodes[dst]->id(),
                  ctrl ? MessageType::kWsPush : MessageType::kHttpResponse,
                  bytes,
                  {}};
      world.loop().schedule_at(rng.uniform(), [&world, msg] {
        world.network().send(msg);
      });
    }
    // Retire two nodes mid-run and spot-check the invariant mid-flight.
    world.loop().schedule_at(0.3, [&] { world.retire(nodes[1]->id()); });
    world.loop().schedule_at(0.6, [&] { world.retire(nodes[4]->id()); });
    for (double t : {0.2, 0.5, 0.8}) {
      world.loop().schedule_at(
          t, [&] { EXPECT_TRUE(world.network().stats().conserved()); });
    }
    ASSERT_TRUE(world.loop().run());

    const auto& stats = world.network().stats();
    EXPECT_TRUE(stats.conserved()) << "seed " << seed;
    EXPECT_EQ(stats.in_flight, 0u) << "seed " << seed;
    EXPECT_GT(stats.delivered, 0u);
    EXPECT_GT(stats.dropped_faulted, 0u);
    EXPECT_GT(stats.duplicated, 0u);
  }
}

/// One open-loop send replayed through the eager model below.
struct EagerSend {
  double t;
  std::size_t src, dst;
  bool ctrl;
  std::int64_t bytes;
};

/// The eager per-message model the lane walkers must reproduce: egress at
/// send time (equal send times in vector order), then each ingress lane in
/// (arrival, send order) against its busy horizon as of the arrival instant.
struct EagerOutcome {
  /// Per node, in sealing order: (delivery instant, index into the sends).
  std::vector<std::vector<std::pair<double, std::size_t>>> deliveries;
  std::uint64_t dropped_egress = 0;
  std::uint64_t dropped_ingress = 0;
};

EagerOutcome eager_model(const std::vector<NicConfig>& nics,
                         const std::vector<EagerSend>& sends) {
  struct Arrival {
    double at;
    std::size_t order, send;
  };
  const NetworkConfig net;  // World's defaults
  const auto lane_bps = [](double bps, const NicConfig& nic, bool ctrl) {
    return ctrl ? bps * nic.control_share : bps * (1.0 - nic.control_share);
  };
  std::vector<std::size_t> by_time(sends.size());
  for (std::size_t i = 0; i < by_time.size(); ++i) by_time[i] = i;
  std::stable_sort(by_time.begin(), by_time.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sends[a].t < sends[b].t;
                   });
  // Busy horizons are indexed 2 * node + ctrl.
  std::vector<double> egress_busy(2 * nics.size(), 0.0);
  std::vector<double> ingress_busy(2 * nics.size(), 0.0);
  std::vector<Arrival> arrivals;
  EagerOutcome out;
  out.deliveries.resize(nics.size());
  for (const std::size_t i : by_time) {
    const EagerSend& s = sends[i];
    const NicConfig& src = nics[s.src];
    const NicConfig& dst = nics[s.dst];
    double& busy = egress_busy[2 * s.src + (s.ctrl ? 1 : 0)];
    if (std::max(0.0, busy - s.t) > src.max_queue_s) {
      ++out.dropped_egress;
      continue;
    }
    busy = std::max(s.t, busy) + static_cast<double>(s.bytes) * 8.0 /
                                     lane_bps(src.egress_bps, src, s.ctrl);
    const double extra = src.domain == dst.domain ? net.intra_domain_extra_s
                                                  : net.inter_domain_extra_s;
    arrivals.push_back(
        Arrival{busy + (src.base_latency_s + dst.base_latency_s + extra),
                arrivals.size(), i});
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return std::tie(a.at, a.order) < std::tie(b.at, b.order);
            });
  for (const Arrival& a : arrivals) {
    const EagerSend& s = sends[a.send];
    const NicConfig& dst = nics[s.dst];
    double& busy = ingress_busy[2 * s.dst + (s.ctrl ? 1 : 0)];
    if (std::max(0.0, busy - a.at) > dst.max_queue_s) {
      ++out.dropped_ingress;
      continue;
    }
    busy = std::max(a.at, busy) + static_cast<double>(s.bytes) * 8.0 /
                                      lane_bps(dst.ingress_bps, dst, s.ctrl);
    out.deliveries[s.dst].emplace_back(busy, a.send);
  }
  return out;
}

/// Schedule every send at its time (equal times fire in vector order).
void schedule_sends(World& world, const std::vector<SinkNode*>& nodes,
                    const std::vector<EagerSend>& sends) {
  for (const EagerSend& s : sends) {
    world.loop().schedule_at(s.t, [&world, &nodes, s] {
      world.network().send(
          {nodes[s.src]->id(), nodes[s.dst]->id(),
           s.ctrl ? MessageType::kWsPush : MessageType::kHttpResponse,
           s.bytes,
           {}});
    });
  }
}

// Property: the lane walkers seal exactly the fates an eager per-message
// evaluation computes.  Open-loop traffic (sinks never reply) over congested
// NICs is replayed through the model directly.
TEST(NetworkProperty, WalkerMatchesEagerOpenLoopModel) {
  using Delivery = std::pair<double, std::int64_t>;
  constexpr std::size_t kNodes = 5;
  for (std::uint64_t seed : {3u, 14u, 15u, 92u}) {
    util::Rng rng(seed);
    World world;
    std::vector<NicConfig> nics;
    std::vector<SinkNode*> nodes;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const double k = static_cast<double>(i + 1);
      nics.push_back(NicConfig{.egress_bps = 1.5e6 * k,
                               .ingress_bps = 2e6 * (6.0 - k),
                               .base_latency_s = 0.004 * k,
                               .domain = static_cast<std::int32_t>(i % 2),
                               .max_queue_s = 0.04 * k});
      nodes.push_back(
          world.spawn<SinkNode>(nics.back(), "n" + std::to_string(i)));
    }
    std::vector<EagerSend> sends;
    for (int i = 0; i < 400; ++i) {
      EagerSend s{};
      s.t = rng.uniform();
      s.src = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
      s.dst = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
      s.ctrl = rng.bernoulli(0.3);
      s.bytes =
          s.ctrl ? rng.uniform_int(64, 1500) : rng.uniform_int(500, 40'000);
      sends.push_back(s);
    }
    schedule_sends(world, nodes, sends);
    ASSERT_TRUE(world.loop().run());

    const EagerOutcome model = eager_model(nics, sends);
    const auto& stats = world.network().stats();
    EXPECT_EQ(stats.dropped_egress, model.dropped_egress) << "seed " << seed;
    EXPECT_EQ(stats.dropped_ingress, model.dropped_ingress) << "seed " << seed;
    EXPECT_GT(model.dropped_egress, 0u) << "seed " << seed;
    EXPECT_GT(model.dropped_ingress, 0u) << "seed " << seed;
    for (std::size_t n = 0; n < kNodes; ++n) {
      std::vector<Delivery> got;
      for (const auto& ar : nodes[n]->arrivals) {
        got.emplace_back(ar.time, ar.bytes);
      }
      std::vector<Delivery> want;
      for (const auto& [t, send] : model.deliveries[n]) {
        want.emplace_back(t, sends[send].bytes);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "seed " << seed << " node " << n;
    }
  }
}

// Many senders whose messages reach one receiver lane at the same instant:
// the lane's heap must seal them in send order (the admission-order half of
// its key), so deliveries follow the send order exactly, with the eager
// model's instants and tail drops.
TEST(NetworkProperty, SameInstantArrivalsSealInSendOrder) {
  constexpr std::size_t kSenders = 48;
  World world;
  std::vector<NicConfig> nics;
  std::vector<SinkNode*> nodes;
  // Node 0 receives through a slow ingress lane that tail-drops part of each
  // burst; every sender is idle and identical, so a burst's messages leave
  // at once and arrive at one instant.
  nics.push_back(NicConfig{.egress_bps = 1e9, .ingress_bps = 4e6,
                           .base_latency_s = 0.003, .max_queue_s = 0.05});
  for (std::size_t i = 1; i <= kSenders; ++i) {
    nics.push_back(NicConfig{.egress_bps = 1e8, .base_latency_s = 0.002});
  }
  for (std::size_t i = 0; i < nics.size(); ++i) {
    nodes.push_back(world.spawn<SinkNode>(nics[i], "n" + std::to_string(i)));
  }
  util::Rng rng(7);
  std::vector<EagerSend> sends;
  for (const double t : {0.25, 0.26, 0.5}) {
    std::vector<std::size_t> order(kSenders);
    for (std::size_t i = 0; i < kSenders; ++i) order[i] = i + 1;
    rng.shuffle(order);
    for (const std::size_t src : order) {
      sends.push_back(EagerSend{t, src, 0, false, 1200});
    }
  }
  schedule_sends(world, nodes, sends);
  ASSERT_TRUE(world.loop().run());

  const EagerOutcome model = eager_model(nics, sends);
  const auto& stats = world.network().stats();
  EXPECT_EQ(stats.dropped_egress, 0u);
  EXPECT_EQ(stats.dropped_ingress, model.dropped_ingress);
  EXPECT_GT(model.dropped_ingress, 0u);
  std::vector<std::pair<double, NodeId>> got;
  for (const auto& ar : nodes[0]->arrivals) got.emplace_back(ar.time, ar.src);
  std::vector<std::pair<double, NodeId>> want;
  for (const auto& [t, send] : model.deliveries[0]) {
    want.emplace_back(t, nodes[sends[send].src]->id());
  }
  EXPECT_EQ(got, want);
  // Not vacuous: a burst delivers several messages, and its send order is
  // not the senders' id order.
  ASSERT_GE(want.size(), 6u);
  EXPECT_FALSE(std::is_sorted(
      want.begin(), want.begin() + 6,
      [](const auto& a, const auto& b) { return a.second < b.second; }));
}

TEST(NetworkFaults, TraceRecordsEveryResolution) {
  World world;
  world.network().enable_trace();
  FaultConfig cfg;
  cfg.data_loss_prob = 1.0;
  FaultInjector injector(cfg, util::Rng(7));
  world.network().set_fault_injector(&injector);
  auto* a = world.spawn<SinkNode>(fast_nic(), "a");
  auto* b = world.spawn<SinkNode>(fast_nic(), "b");
  world.network().send({a->id(), b->id(), MessageType::kHttpGet, 100, {}});
  world.network().send(
      {a->id(), b->id(), MessageType::kWsPush, 128, WsPushPayload{}});
  ASSERT_TRUE(world.loop().run());
  const auto& trace = world.network().trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].outcome, NetTraceEvent::Outcome::kDroppedFaulted);
  EXPECT_EQ(trace[1].outcome, NetTraceEvent::Outcome::kDelivered);
  EXPECT_EQ(trace[1].type, MessageType::kWsPush);
}

TEST(Network, RejectsInvalidNicConfig) {
  World world;
  SinkNode probe(world, "probe");
  NicConfig bad;
  bad.egress_bps = 0;
  EXPECT_THROW(world.network().attach(&probe, bad), std::invalid_argument);
  bad = NicConfig{};
  bad.control_share = 0.0;
  EXPECT_THROW(world.network().attach(&probe, bad), std::invalid_argument);
}

}  // namespace
}  // namespace shuffledef::cloudsim
