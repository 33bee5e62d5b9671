// Flat-engine equivalence and recorded delivery digests.
//
// The ClientSwarm (SoA columns, batched timers) is a performance engine,
// not a new model: a quiet world must produce exactly the same aggregate
// outcomes as the per-object ClientAgent engine.  Every run delivers
// through the network's per-lane walkers; the digests below were recorded
// from the delivery paths those walkers replaced, so they pin every
// delivery to its instant and size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <tuple>

#include "cloudsim/scenario.h"
#include "faulted_world.h"

namespace shuffledef::cloudsim {
namespace {

ScenarioConfig quiet_world(std::uint64_t seed = 21) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas = 2;
  cfg.clients = 12;
  cfg.client_start_spread_s = 0.5;
  cfg.boot_delay_s = 0.2;
  return cfg;
}

ScenarioConfig attacked_world(std::uint64_t seed = 22) {
  auto cfg = quiet_world(seed);
  cfg.clients = 20;
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 400.0;
  cfg.client_heartbeat_s = 0.5;
  cfg.coordinator.controller.replicas = 6;
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 100.0;
  return cfg;
}

void expect_identical_traces(Scenario& a, Scenario& b) {
  const auto& ta = a.world().network().trace();
  const auto& tb = b.world().network().trace();
  ASSERT_FALSE(ta.empty());
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i], tb[i]) << "trace diverges at event " << i;
  }
}

std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// 64-bit digest of the delivered trace events in canonical order: sorted by
/// (time, src, dst, type, size), because two same-instant deliveries may be
/// logged in either order without any count changing.
std::uint64_t delivered_digest(const std::vector<NetTraceEvent>& trace) {
  std::vector<NetTraceEvent> delivered;
  for (const auto& ev : trace) {
    if (ev.outcome == NetTraceEvent::Outcome::kDelivered) {
      delivered.push_back(ev);
    }
  }
  std::sort(delivered.begin(), delivered.end(),
            [](const NetTraceEvent& a, const NetTraceEvent& b) {
              return std::tie(a.time, a.src, a.dst, a.type, a.size_bytes) <
                     std::tie(b.time, b.src, b.dst, b.type, b.size_bytes);
            });
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& ev : delivered) {
    h = fnv1a(h, std::bit_cast<std::int64_t>(ev.time));
    h = fnv1a(h, ev.src);
    h = fnv1a(h, ev.dst);
    h = fnv1a(h, static_cast<std::int64_t>(ev.type));
    h = fnv1a(h, ev.size_bytes);
  }
  return h;
}

TEST(SwarmEquivalence, QuietWorldMatchesPerObjectAggregates) {
  auto cfg = quiet_world();

  cfg.client_engine = ClientEngine::kPerObject;
  Scenario ref(cfg);
  ASSERT_TRUE(ref.run_until(10.0));

  cfg.client_engine = ClientEngine::kFlat;
  Scenario flat(cfg);
  ASSERT_TRUE(flat.run_until(10.0));

  // Everyone joins under both engines, with the same page count (browse
  // think time 0 = exactly one page per member).
  EXPECT_EQ(ref.clients_connected(), 12);
  EXPECT_EQ(flat.clients_connected(), 12);
  std::int64_t ref_pages = 0;
  for (const auto* c : ref.clients()) {
    ref_pages += static_cast<std::int64_t>(c->stats().page_loads.size());
  }
  ASSERT_NE(flat.swarm(), nullptr);
  EXPECT_EQ(flat.swarm()->stats().page_loads, ref_pages);
  EXPECT_EQ(flat.swarm()->stats().timeouts, 0);
  EXPECT_EQ(flat.swarm()->stats().rejoins, 0);
  EXPECT_TRUE(ref.world().network().stats().conserved());
  EXPECT_TRUE(flat.world().network().stats().conserved());
}

TEST(SwarmEquivalence, FlatEngineDefendsLikeThePerObjectEngine) {
  // Under attack the engines' message interleavings differ (quantized
  // timers, batched whitelists), so the comparison is behavioural: the
  // defense detects, shuffles, isolates, and keeps everyone served.
  auto cfg = attacked_world();

  cfg.client_engine = ClientEngine::kPerObject;
  Scenario ref(cfg);
  ASSERT_TRUE(ref.run_until(60.0));

  cfg.client_engine = ClientEngine::kFlat;
  Scenario flat(cfg);
  ASSERT_TRUE(flat.run_until(60.0));

  for (Scenario* s : {&ref, &flat}) {
    EXPECT_GT(s->coordinator()->stats().attack_reports, 0);
    EXPECT_GT(s->coordinator()->stats().rounds_executed, 0);
    EXPECT_LE(s->replicas_hosting_bots(), 2);
    EXPECT_GE(s->benign_clients_isolated_from_bots(), 15);
    EXPECT_GE(s->clients_connected(), 18);
    EXPECT_TRUE(s->world().network().stats().conserved());
  }
  // The flat engine's aggregate stats actually moved.
  const auto& st = flat.swarm()->stats();
  EXPECT_GT(st.page_loads, 0);
  EXPECT_GT(st.migrations_completed, 0);
  EXPECT_GT(st.junk_sent, 0);
}

// The constants in the four tests below were recorded before the lane
// walkers became the only delivery path: the per-object worlds from the
// per-message closure engine, the flat world (which never ran on it) from
// the one-closure-per-hop pooled path.  The walkers reproduced every value
// there.  Drop fates are sealed lazily, so only deliveries are pinned: a
// tail arrival may still be in flight at the horizon where an eager engine
// already counted its drop.
void expect_recorded_deliveries(ScenarioConfig cfg, double horizon_s,
                                std::uint64_t delivered, std::int64_t bytes,
                                std::uint64_t digest) {
  cfg.record_net_trace = true;
  Scenario s(cfg);
  ASSERT_TRUE(s.run_until(horizon_s));
  const auto& net = s.world().network();
  EXPECT_EQ(net.stats().delivered, delivered);
  EXPECT_EQ(net.stats().bytes_delivered, bytes);
  EXPECT_EQ(delivered_digest(net.trace()), digest);
  EXPECT_TRUE(net.stats().conserved());
  EXPECT_GT(s.coordinator()->stats().clients_migrated, 0);
}

TEST(SwarmEquivalence, BatchDeliveryIsTraceInvisible) {
  // Flat engine: shuffle pushes, whitelist batches and page traffic under a
  // junk flood land where one scheduled closure per arrival put them.
  auto cfg = attacked_world(23);
  cfg.client_engine = ClientEngine::kFlat;
  expect_recorded_deliveries(cfg, 30.0, 15068, 37524672,
                             0xBBE67EA2D4025B9BULL);
}

TEST(SwarmEquivalence, PooledArenaIsTraceInvisible) {
  // Per-object engine: messages parked in the pooled slot arena deliver
  // where the legacy engine's per-message heap closures delivered them.
  expect_recorded_deliveries(attacked_world(24), 30.0, 13502, 37357304,
                             0x7C493E58012E3646ULL);
}

TEST(SwarmEquivalence, LaneWalkersDeliverLikeTheLegacyEngine) {
  expect_recorded_deliveries(attacked_world(26), 30.0, 13837, 37819472,
                             0xB220A2821522028BULL);
}

TEST(SwarmEquivalence, FaultedWorldDeliversLikeTheLegacyEngine) {
  // Lossy and duplicating lanes, failing provisioning and a replica crash.
  expect_recorded_deliveries(faulted_config(), 20.0, 7266, 16569320,
                             0x0B3D92EC38009C55ULL);
}

TEST(SwarmEquivalence, FlatEngineReplaysBitIdenticallyUnderFaults) {
  auto cfg = attacked_world(25);
  cfg.client_engine = ClientEngine::kFlat;
  cfg.record_net_trace = true;
  cfg.faults.data_loss_prob = 0.02;
  cfg.faults.ctrl_loss_prob = 0.05;
  cfg.faults.ctrl_dup_prob = 0.02;
  cfg.faults.replica_crash_times_s = {8.0};

  Scenario a(cfg);
  Scenario b(cfg);
  ASSERT_TRUE(a.run_until(25.0));
  ASSERT_TRUE(b.run_until(25.0));
  EXPECT_GT(a.fault_stats().drops_ctrl + a.fault_stats().drops_data, 0u);
  EXPECT_EQ(a.fault_stats().crashes_executed, 1u);
  expect_identical_traces(a, b);
  EXPECT_EQ(a.swarm()->stats().page_loads, b.swarm()->stats().page_loads);
  EXPECT_EQ(a.swarm()->stats().rejoins, b.swarm()->stats().rejoins);
}

}  // namespace
}  // namespace shuffledef::cloudsim
