// Recorded delivery digests of ClientSwarm worlds, and the swarm's observer.
//
// Every run delivers through the network's per-lane walkers; the digests
// below pin every delivery to its instant and size, so any change to the
// swarm's join, timeout, heartbeat or flood timing shows up here.  The
// observer only reads: installing one must leave those bits alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <optional>
#include <tuple>

#include "cloudsim/scenario.h"
#include "faulted_world.h"
#include "member_log.h"

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

// The first constant set below was recorded from the one-closure-per-hop
// pooled delivery path, before the lane walkers replaced it; the lane
// walkers reproduced it.  The other three were recorded on the swarm when
// it became the only client engine.  Drop fates are sealed lazily, so only
// deliveries are pinned: a tail arrival may still be in flight at the
// horizon where an eager engine already counted its drop.  `observe`
// installs a MemberLog first; `inspect`, when set, sees the finished world.
void expect_recorded_deliveries(
    ScenarioConfig cfg, double horizon_s, std::uint64_t delivered,
    std::int64_t bytes, std::uint64_t digest, bool observe = false,
    const std::function<void(Scenario&)>& inspect = {}) {
  cfg.record_net_trace = true;
  Scenario s(cfg);
  std::optional<MemberLog> log;
  if (observe) log.emplace(*s.swarm());
  ASSERT_TRUE(s.run_until(horizon_s));
  if (observe) {
    EXPECT_FALSE(log->events().empty());
  }
  const auto& net = s.world().network();
  EXPECT_EQ(net.stats().delivered, delivered);
  EXPECT_EQ(net.stats().bytes_delivered, bytes);
  EXPECT_EQ(delivered_digest(net.trace()), digest);
  EXPECT_TRUE(net.stats().conserved());
  EXPECT_GT(s.coordinator()->stats().clients_migrated, 0);
  if (inspect) inspect(s);
}

TEST(SwarmEquivalence, BatchDeliveryIsTraceInvisible) {
  // Shuffle pushes, whitelist batches and page traffic under a junk flood
  // land where one scheduled closure per arrival put them.
  expect_recorded_deliveries(attacked_world(23), 30.0, 15068, 37524672,
                             0xBBE67EA2D4025B9BULL);
}

TEST(SwarmEquivalence, PooledArenaIsTraceInvisible) {
  // Messages parked in the pooled slot arena deliver where they did when
  // the digest was recorded.
  expect_recorded_deliveries(attacked_world(24), 30.0, 14375, 36567568,
                             0xD91156B1F3AB3C12ULL);
}

TEST(SwarmEquivalence, LaneWalkersDeliverLikeTheLegacyEngine) {
  expect_recorded_deliveries(attacked_world(26), 30.0, 15384, 37981568,
                             0x2E146A38947FB352ULL);
}

TEST(SwarmEquivalence, FaultedWorldDeliversLikeTheLegacyEngine) {
  // Lossy and duplicating lanes, failing provisioning and a replica crash.
  expect_recorded_deliveries(faulted_config(), 20.0, 3455, 10631056,
                             0x6886163F131F7B55ULL);
}

TEST(SwarmEquivalence, FaultedQosWorldDeliversAsRecorded) {
  // The fault battery under the closed QoS loop: the world that drives the
  // coordinator's provisioning backoff and command re-sends and the
  // network's duplicate delay.  Recorded before those timings became
  // constants, so a constant that drifts from its old default moves it.
  expect_recorded_deliveries(
      faulted_qos_config(), 20.0, 15037, 27047928, 0x92D23741DB325FA2ULL,
      /*observe=*/false, [](Scenario& s) {
        // The digest covers those paths only while the run takes them.
        const auto& coord = s.coordinator()->stats();
        EXPECT_GT(coord.provision_retries, 0);
        EXPECT_GT(coord.command_retries, 0);
        EXPECT_GT(coord.phase_switches, 0);
        EXPECT_GT(s.fault_stats().duplicated, 0u);
        EXPECT_EQ(s.fault_stats().crashes_executed, 1u);
      });
}

TEST(SwarmObserver, LeavesTheFaultedWorldDigestBitIdentical) {
  expect_recorded_deliveries(faulted_config(), 20.0, 3455, 10631056,
                             0x6886163F131F7B55ULL, /*observe=*/true);
}

TEST(SwarmObserver, OneMemberEventsMatchSwarmStats) {
  // One browsing client, lossy lanes (timeouts) and a proactive shuffle
  // every 2 s (migrations): every event the observer sees is one the
  // aggregate counters count, and vice versa.
  ScenarioConfig cfg = quiet_world(27);
  cfg.clients = 1;
  cfg.client_browse_think_s = 0.5;
  cfg.client_request_timeout_s = 0.5;
  cfg.coordinator.fixed_cadence_s = 2.0;
  cfg.faults.data_loss_prob = 0.2;
  Scenario s(cfg);
  const MemberLog log(*s.swarm());
  ASSERT_TRUE(s.run_until(30.0));

  const SwarmStats& st = s.swarm()->stats();
  const auto loads = log.of(0, MemberEvent::Kind::kPageLoad);
  const auto timeouts = log.of(0, MemberEvent::Kind::kTimeout);
  const auto migrations = log.of(0, MemberEvent::Kind::kMigration);
  EXPECT_EQ(log.events().size(),
            loads.size() + timeouts.size() + migrations.size());
  ASSERT_GT(loads.size(), 0u);
  ASSERT_GT(timeouts.size(), 0u);
  ASSERT_GT(migrations.size(), 0u);
  EXPECT_EQ(static_cast<std::int64_t>(loads.size()), st.page_loads);
  EXPECT_EQ(static_cast<std::int64_t>(timeouts.size()), st.timeouts);
  EXPECT_EQ(static_cast<std::int64_t>(migrations.size()),
            st.migrations_completed);
  // Same additions in the same order: the sums match bit for bit.
  double load_sum = 0.0;
  for (const auto& e : loads) load_sum += e.duration();
  double migration_sum = 0.0;
  for (const auto& e : migrations) migration_sum += e.duration();
  EXPECT_EQ(load_sum, st.page_load_seconds_sum);
  EXPECT_EQ(migration_sum, st.migration_seconds_sum);
  EXPECT_EQ(loads.front().end_s, st.first_page_at);
  for (const auto& e : timeouts) {
    // A timed-out request was sent one timeout earlier, give or take the
    // sweep quantum that noticed it.
    EXPECT_GE(e.duration(), cfg.client_request_timeout_s - 1e-9);
    EXPECT_LE(e.duration(),
              cfg.client_request_timeout_s + ClientSwarm::kSweepDtS + 1e-9);
  }
}

TEST(SwarmEquivalence, FlatEngineReplaysBitIdenticallyUnderFaults) {
  auto cfg = attacked_world(25);
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
