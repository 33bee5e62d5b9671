// Closed-loop control-plane battery (ctest label: control_plane).
//
// Three layers of evidence that the latency-feedback trigger is safe to
// deploy:
//   1. the pure QosPhaseMachine obeys its control-law contract on
//      randomized traces (64 seeds): start/stop hysteresis never
//      oscillates inside one window, transitions alternate, and every
//      switch is justified by its thresholds;
//   2. wired into a simulated world, the loop triggers shuffles with
//      detection disabled, honours the concurrent-remap cap, and
//      autoscales the replica pool up and back down;
//   3. the whole loop is deterministic: phase-transition traces are
//      bit-identical across replays and shard_threads settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cloudsim/qos.h"
#include "cloudsim/scenario.h"
#include "util/random.h"

namespace shuffledef::cloudsim {
namespace {

// ---- QosConfig validation --------------------------------------------------

TEST(QosConfigValidation, DefaultsAreValid) {
  QosConfig cfg;
  EXPECT_TRUE(cfg.violations().empty());
  EXPECT_NO_THROW(cfg.validate());
}

TEST(QosConfigValidation, RejectsStopAtOrAboveStart) {
  QosConfig cfg;
  cfg.start_fraction = 0.4;
  cfg.stop_fraction = 0.4;  // equal is already degenerate
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.stop_fraction = 0.6;  // inverted
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.stop_fraction = 0.1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(QosConfigValidation, CollectsEveryViolationAtOnce) {
  QosConfig cfg;
  cfg.report_interval_s = 0.0;
  cfg.latency_alpha = 1.5;
  cfg.stop_fraction = 0.9;  // >= start
  cfg.max_concurrent_remaps = -1;
  const auto violations = cfg.violations("qos.");
  EXPECT_GE(violations.size(), 4u);
  for (const auto& v : violations) {
    EXPECT_EQ(v.rfind("qos.", 0), 0u) << v;
  }
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(QosConfigValidation, ScenarioRejectsBadQosOnlyWhenEnabled) {
  ScenarioConfig cfg;
  cfg.qos.stop_fraction = 0.9;  // >= start — invalid, but the loop is off
  EXPECT_TRUE(cfg.validate().empty());
  cfg.qos.enabled = true;
  EXPECT_FALSE(cfg.validate().empty());
  EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
}

// ---- phase-machine properties (randomized, 64 seeds) -----------------------

TEST(QosPhaseMachineProperty, RandomTracesNeverOscillateInsideHysteresis) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    QosConfig cfg;
    cfg.enabled = true;
    cfg.start_fraction = 0.3 + rng.uniform() * 0.5;          // [0.3, 0.8)
    cfg.stop_fraction = rng.uniform() * cfg.start_fraction * 0.9;
    cfg.hysteresis_s = 0.5 + rng.uniform() * 3.0;
    QosPhaseMachine machine(cfg);

    const auto total = static_cast<std::int32_t>(rng.uniform_int(1, 12));
    double now = 0.0;
    for (int step = 0; step < 400; ++step) {
      now += 0.02 + rng.uniform() * 0.3;
      const auto overloaded =
          static_cast<std::int32_t>(rng.uniform_int(0, total));
      const auto before = machine.phase();
      const auto switched = machine.update(now, overloaded, total);
      if (switched.has_value()) {
        EXPECT_NE(*switched, before) << "switch must change the phase";
      }
    }

    const auto& trace = machine.transitions();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      // Every switch justified by its recorded sample.
      const double bound =
          static_cast<double>(trace[i].total) *
          (trace[i].to == QosPhase::kOverload ? cfg.start_fraction
                                              : cfg.stop_fraction);
      if (trace[i].to == QosPhase::kOverload) {
        EXPECT_GT(trace[i].overloaded, bound);
      } else {
        EXPECT_LT(trace[i].overloaded, bound);
      }
      if (i == 0) continue;
      // Alternation: kNormal -> kOverload -> kNormal -> ...
      EXPECT_NE(trace[i].to, trace[i - 1].to);
      // The anti-flap contract: no two switches inside one hysteresis
      // window, so kNormal -> kOverload -> kNormal within the window is
      // impossible by construction.
      EXPECT_GE(trace[i].at - trace[i - 1].at, cfg.hysteresis_s);
    }
  }
}

TEST(QosPhaseMachineProperty, ThresholdSemanticsAreStrict) {
  QosConfig cfg;
  cfg.start_fraction = 0.5;
  cfg.stop_fraction = 0.25;
  cfg.hysteresis_s = 1.0;
  QosPhaseMachine machine(cfg);

  // Exactly at the start threshold: 2/4 is NOT > 0.5*4.
  EXPECT_FALSE(machine.update(0.0, 2, 4).has_value());
  EXPECT_EQ(machine.phase(), QosPhase::kNormal);
  // Above it: switches.
  ASSERT_TRUE(machine.update(0.5, 3, 4).has_value());
  EXPECT_EQ(machine.phase(), QosPhase::kOverload);
  // Recovery sample inside the hysteresis window: suppressed.
  EXPECT_FALSE(machine.update(1.0, 0, 4).has_value());
  EXPECT_EQ(machine.phase(), QosPhase::kOverload);
  // At the stop threshold after the window: 1/4 is NOT < 0.25*4.
  EXPECT_FALSE(machine.update(2.0, 1, 4).has_value());
  // Below it: recovers.
  ASSERT_TRUE(machine.update(2.5, 0, 4).has_value());
  EXPECT_EQ(machine.phase(), QosPhase::kNormal);
  EXPECT_EQ(machine.transitions().size(), 2u);
}

// ---- the loop wired into a world -------------------------------------------

/// A world where the only trigger is latency feedback: rate/backlog
/// detection is effectively disabled, the bots mount a computational attack
/// (heavy requests pile CPU backlog onto the victims' service queue), and
/// the QoS loop must notice and shuffle.
ScenarioConfig closed_loop_world(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas = 3;
  cfg.clients = 12;
  cfg.client_start_spread_s = 0.5;
  cfg.client_browse_think_s = 1.0;  // steady traffic keeps the EWMA fresh
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 0.0;
  cfg.bot_heavy_interval_s = 0.05;
  cfg.bot_heavy_cpu_seconds = 0.15;
  cfg.boot_delay_s = 0.2;
  cfg.coordinator.controller.planner = "greedy";
  cfg.coordinator.controller.replicas = 4;
  cfg.coordinator.controller.use_mle = true;
  // Detection out of the picture: only kQosReport can trigger anything.
  cfg.replica.junk_rate_threshold = 1e12;
  cfg.replica.cpu_backlog_threshold_s = 1e12;
  cfg.qos.enabled = true;
  cfg.qos.report_interval_s = 0.25;
  cfg.qos.overload_latency_s = 0.2;
  cfg.qos.overload_queue_s = 0.5;
  // In a 3-replica world one melting replica is already 1/3 of the fleet;
  // a start fraction of 0.25 makes a single victim trip the phase machine
  // regardless of where the bots land.
  cfg.qos.start_fraction = 0.25;
  cfg.qos.stop_fraction = 0.1;
  cfg.qos.hysteresis_s = 1.0;
  cfg.qos.max_autoscale_replicas = 8;
  return cfg;
}

TEST(QosControl, ClosedLoopShufflesWithoutDetection) {
  Scenario s(closed_loop_world(31));
  ASSERT_TRUE(s.run_until(30.0));
  const auto& cs = s.coordinator()->stats();
  EXPECT_EQ(cs.attack_reports, 0) << "detection was supposed to be disabled";
  EXPECT_GT(cs.qos_reports, 0);
  EXPECT_GT(cs.phase_switches, 0);
  EXPECT_GT(cs.rounds_executed, 0);
  EXPECT_GT(cs.clients_migrated, 0);
  ASSERT_FALSE(s.coordinator()->phase_transitions().empty());
  EXPECT_EQ(s.coordinator()->phase_transitions().front().to,
            QosPhase::kOverload);
  // The obs catalogue carries the loop's state.
  const auto snap = s.metrics();
  EXPECT_GT(snap.counter(kMetricCoordQosReports), 0u);
  EXPECT_GT(snap.counter(kMetricCoordPhaseSwitches), 0u);
  EXPECT_GT(snap.gauge(kMetricReplicaQueueDepthPeakUs), 0);
}

TEST(QosControl, QuietWorldNeverLeavesNormal) {
  auto cfg = closed_loop_world(32);
  cfg.persistent_bots = 0;
  Scenario s(cfg);
  ASSERT_TRUE(s.run_until(20.0));
  EXPECT_EQ(s.coordinator()->qos_phase(), QosPhase::kNormal);
  EXPECT_TRUE(s.coordinator()->phase_transitions().empty());
  EXPECT_EQ(s.coordinator()->stats().rounds_executed, 0);
  EXPECT_GT(s.coordinator()->stats().qos_reports, 0);
}

TEST(QosControl, DisabledLoopLeavesTheWorldBitIdentical) {
  // qos.enabled=false must be a true no-op: the event/message stream is
  // exactly the pre-QoS world's.
  auto cfg = closed_loop_world(33);
  cfg.record_net_trace = true;
  cfg.qos.enabled = false;
  Scenario off(cfg);
  ASSERT_TRUE(off.run_until(15.0));
  for (const auto& ev : off.world().network().trace()) {
    EXPECT_NE(ev.type, MessageType::kQosReport);
  }
  EXPECT_EQ(off.coordinator()->stats().qos_reports, 0);
  EXPECT_EQ(off.coordinator()->stats().rounds_executed, 0)
      << "with detection disabled and the loop off, nothing may trigger";
}

TEST(QosControl, RemapCapNeverExceeded) {
  for (const std::int32_t cap : {1, 2}) {
    for (const std::uint64_t seed : {41u, 42u, 43u}) {
      SCOPED_TRACE("cap " + std::to_string(cap) + " seed " +
                   std::to_string(seed));
      auto cfg = closed_loop_world(seed);
      cfg.initial_replicas = 4;
      cfg.persistent_bots = 4;  // hit many replicas at once
      cfg.qos.max_concurrent_remaps = cap;
      Scenario s(cfg);
      ASSERT_TRUE(s.run_until(30.0));
      const auto& cs = s.coordinator()->stats();
      EXPECT_GT(cs.rounds_executed, 0);
      EXPECT_LE(cs.remaps_inflight_peak, cap);
      EXPECT_LE(s.metrics().gauge(kMetricCoordRemapsInflightPeak), cap);
    }
  }
}

TEST(QosControl, RemapCapDefersButNeverDropsShuffles) {
  auto cfg = closed_loop_world(44);
  cfg.initial_replicas = 4;
  cfg.persistent_bots = 4;
  cfg.qos.max_concurrent_remaps = 1;
  Scenario capped(cfg);
  ASSERT_TRUE(capped.run_until(30.0));
  // The cap had to defer work at least once under a 4-victim attack...
  EXPECT_GT(capped.coordinator()->stats().remap_cap_deferred, 0);
  // ...yet the loop still made progress and the books balance.
  EXPECT_GT(capped.coordinator()->stats().rounds_executed, 0);
  EXPECT_EQ(capped.coordinator()->stats().replicas_recycled,
            capped.provider().recycled());
}

TEST(QosControl, AutoscalerGrowsAndReleasesThePool) {
  auto cfg = closed_loop_world(45);
  cfg.clients = 16;
  // Seed the bot estimate at the full affected pool, so the Theorem-1
  // target comfortably exceeds the initial fleet and the autoscaler has
  // actual work to do.
  cfg.coordinator.initial_bot_fraction = 1.0;
  cfg.qos.reserve_spares = 1;
  // One synchronized attack wave, then silence for the rest of the run —
  // recovery must release the autoscaled capacity back to the reserve.
  cfg.bot_strategy = "synchronized-waves";
  cfg.bot_strategy_options.wave_period = 100;  // rounds of 1 s
  cfg.bot_strategy_options.wave_duty = 0.08;   // attack 8 s, then quiet
  Scenario s(cfg);
  ASSERT_TRUE(s.run_until(50.0));
  const auto& cs = s.coordinator()->stats();
  EXPECT_GT(cs.autoscale_provisioned, 0);
  EXPECT_GT(cs.autoscale_released, 0);
  EXPECT_EQ(s.coordinator()->qos_phase(), QosPhase::kNormal);
  EXPECT_LE(s.coordinator()->hot_spare_count(), 1u);
  // Conservation holds through grow + release.
  EXPECT_EQ(cs.replicas_recycled, s.provider().recycled());
  EXPECT_TRUE(s.world().network().stats().conserved());
}

// ---- determinism contract --------------------------------------------------

void expect_same_phase_trace(Scenario& a, Scenario& b) {
  const auto& ta = a.coordinator()->phase_transitions();
  const auto& tb = b.coordinator()->phase_transitions();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i], tb[i]) << "phase trace diverges at switch " << i;
  }
  EXPECT_EQ(a.coordinator()->stats().qos_reports,
            b.coordinator()->stats().qos_reports);
  EXPECT_EQ(a.coordinator()->stats().phase_switches,
            b.coordinator()->stats().phase_switches);
  EXPECT_EQ(a.coordinator()->stats().autoscale_provisioned,
            b.coordinator()->stats().autoscale_provisioned);
}

TEST(QosDeterminism, PhaseTraceReplaysBitIdentically) {
  auto cfg = closed_loop_world(51);
  cfg.record_net_trace = true;
  Scenario a(cfg);
  Scenario b(cfg);
  ASSERT_TRUE(a.run_until(25.0));
  ASSERT_TRUE(b.run_until(25.0));
  ASSERT_FALSE(a.coordinator()->phase_transitions().empty());
  expect_same_phase_trace(a, b);
  EXPECT_EQ(a.world().network().trace(), b.world().network().trace());
}

TEST(QosDeterminism, ShardThreadsDoNotPerturbThePhaseTrace) {
  auto cfg = closed_loop_world(52);
  cfg.record_net_trace = true;

  cfg.shard_threads = 1;
  Scenario serial(cfg);
  ASSERT_TRUE(serial.run_until(25.0));

  cfg.shard_threads = 4;
  Scenario sharded(cfg);
  ASSERT_TRUE(sharded.run_until(25.0));

  ASSERT_FALSE(serial.coordinator()->phase_transitions().empty());
  expect_same_phase_trace(serial, sharded);
  EXPECT_EQ(serial.world().network().trace(),
            sharded.world().network().trace());
}

TEST(QosDeterminism, DifferentSeedsDiverge) {
  // Teeth check: the phase trace is not trivially constant.
  auto cfg = closed_loop_world(53);
  Scenario a(cfg);
  cfg.seed = 54;
  Scenario b(cfg);
  ASSERT_TRUE(a.run_until(25.0));
  ASSERT_TRUE(b.run_until(25.0));
  EXPECT_NE(a.coordinator()->stats().qos_reports +
                a.world().network().stats().delivered,
            b.coordinator()->stats().qos_reports +
                b.world().network().stats().delivered);
}

}  // namespace
}  // namespace shuffledef::cloudsim
