// End-to-end defense behaviour on the full simulated cloud: detection ->
// coordination -> replication -> shuffling -> isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "cloudsim/scenario.h"
#include "member_log.h"

namespace shuffledef::cloudsim {
namespace {

ScenarioConfig small_world(std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas = 2;
  cfg.clients = 12;
  cfg.client_start_spread_s = 0.5;
  cfg.coordinator.controller.planner = "greedy";
  cfg.coordinator.controller.replicas = 4;
  cfg.coordinator.controller.use_mle = true;
  cfg.boot_delay_s = 0.2;
  // Fast detection for test turn-around.
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 100.0;
  return cfg;
}

TEST(DefenseE2E, QuietWorldJustServesClients) {
  Scenario s(small_world());
  ASSERT_TRUE(s.run_until(8.0));
  EXPECT_EQ(s.clients_connected(), 12);
  EXPECT_EQ(s.coordinator()->stats().rounds_executed, 0);
  EXPECT_EQ(s.coordinator()->stats().attack_reports, 0);
}

TEST(DefenseE2E, PersistentBotsTriggerShuffleRounds) {
  auto cfg = small_world(2);
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 400.0;  // well above the detection threshold
  Scenario s(cfg);
  ASSERT_TRUE(s.run_until(30.0));
  EXPECT_GT(s.coordinator()->stats().attack_reports, 0);
  EXPECT_GT(s.coordinator()->stats().rounds_executed, 0);
  EXPECT_GT(s.coordinator()->stats().clients_migrated, 0);
  EXPECT_GT(s.provider().recycled(), 0);
}

TEST(DefenseE2E, ShufflingIsolatesBotsFromMostBenignClients) {
  auto cfg = small_world(3);
  cfg.clients = 20;
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 400.0;
  cfg.coordinator.controller.replicas = 6;
  Scenario s(cfg);
  ASSERT_TRUE(s.run_until(60.0));
  // After enough rounds the bots sit on few replicas and most benign
  // clients live on bot-free replicas.
  EXPECT_LE(s.replicas_hosting_bots(), 2);
  EXPECT_GE(s.benign_clients_isolated_from_bots(), 15);
  // Clients stayed connected through the migrations.
  EXPECT_GE(s.clients_connected(), 18);
}

TEST(DefenseE2E, NaiveFloodIsEvadedByOneReplacement) {
  auto cfg = small_world(4);
  cfg.clients = 8;
  cfg.persistent_bots = 1;   // the scout that feeds the hit list
  cfg.naive_bots = 5;
  cfg.naive_junk_rate_pps = 300.0;
  cfg.bot_junk_rate_pps = 50.0;  // scout itself mostly passive
  cfg.replica.junk_rate_threshold = 150.0;
  Scenario s(cfg);
  ASSERT_TRUE(s.run_until(40.0));
  EXPECT_GT(s.coordinator()->stats().rounds_executed, 0);
  // Naive bots keep firing at recycled addresses: dropped-detached counts
  // climb while the defense keeps serving.
  EXPECT_GT(s.world().network().stats().dropped_detached, 100u);
  EXPECT_GE(s.clients_connected(), 6);
}

TEST(DefenseE2E, ComputationalAttackAlsoDetected) {
  auto cfg = small_world(5);
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 0.0;
  cfg.bot_heavy_interval_s = 0.05;   // 20 heavy requests/s per bot
  cfg.bot_heavy_cpu_seconds = 0.15;
  cfg.replica.cpu_backlog_threshold_s = 0.5;
  Scenario s(cfg);
  ASSERT_TRUE(s.run_until(30.0));
  EXPECT_GT(s.coordinator()->stats().attack_reports, 0);
  EXPECT_GT(s.coordinator()->stats().rounds_executed, 0);
}

TEST(DefenseE2E, HotSparesSkipBootDelay) {
  auto cfg = small_world(6);
  cfg.persistent_bots = 1;
  cfg.bot_junk_rate_pps = 400.0;
  cfg.hot_spares = 8;
  cfg.boot_delay_s = 60.0;  // cold boots would be hopeless
  Scenario s(cfg);
  ASSERT_TRUE(s.run_until(30.0));
  // Rounds still executed (spares absorbed the demand).
  EXPECT_GT(s.coordinator()->stats().rounds_executed, 0);
}

TEST(DefenseE2E, DeterministicAcrossRuns) {
  auto cfg = small_world(7);
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 400.0;
  Scenario a(cfg);
  Scenario b(cfg);
  ASSERT_TRUE(a.run_until(20.0));
  ASSERT_TRUE(b.run_until(20.0));
  EXPECT_EQ(a.coordinator()->stats().rounds_executed,
            b.coordinator()->stats().rounds_executed);
  EXPECT_EQ(a.coordinator()->stats().clients_migrated,
            b.coordinator()->stats().clients_migrated);
  EXPECT_EQ(a.world().network().stats().delivered,
            b.world().network().stats().delivered);
}

// ---- closed-loop acceptance ------------------------------------------------
//
// Step-function attack: a quiet service absorbs a sudden computational
// flood at t=10s.  The latency-feedback trigger must restore the benign
// p90 page-load latency at least as fast as the paper's proactive
// fixed-cadence shuffle, then scale the autoscaled capacity back down.

constexpr double kStepAttackAt = 10.0;
constexpr double kStepHorizon = 40.0;
// The quiet world's p90 sits at ~0.46 s (browse think + service); 0.6 s
// separates "recovered" cleanly from both the attack spikes (>1 s) and the
// fixed-cadence variant's permanent full-reshuffle churn tax (~0.7 s).
constexpr double kP90ThresholdS = 0.6;
constexpr double kP90WindowS = 2.0;

ScenarioConfig step_attack_world(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas = 2;
  cfg.clients = 16;
  cfg.client_start_spread_s = 0.5;
  cfg.client_browse_think_s = 1.0;
  cfg.client_heartbeat_s = 0.5;
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 0.0;
  cfg.bot_heavy_interval_s = 0.05;    // 20 heavy requests/s per bot...
  cfg.bot_heavy_cpu_seconds = 0.15;   // ...at 3 cpu-s/s: hopeless backlog
  cfg.bot_start_offset_s = kStepAttackAt;
  cfg.bot_start_spread_s = 0.25;
  // One ~10 s burst, then quiet: a step up and a step back down, so full
  // restoration (stragglers included) is reachable within the horizon.
  cfg.bot_strategy = "synchronized-waves";
  cfg.bot_strategy_options.wave_period = 1000;
  cfg.bot_strategy_options.wave_duty = 0.01;
  // Both variants rely purely on their trigger, not on attack detection.
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 1e12;
  cfg.replica.cpu_backlog_threshold_s = 1e12;
  cfg.coordinator.controller.planner = "greedy";
  cfg.coordinator.controller.replicas = 4;
  cfg.coordinator.controller.use_mle = true;
  cfg.boot_delay_s = 0.2;
  return cfg;
}

// p90 of benign page-load durations completing in [from, to).
double p90_page_load_s(Scenario& s, const MemberLog& log, double from,
                       double to) {
  std::vector<double> durations;
  for (const auto& load : log.below(s.swarm()->benign_members(),
                                    MemberEvent::Kind::kPageLoad)) {
    if (load.end_s >= from && load.end_s < to) {
      durations.push_back(load.duration());
    }
  }
  if (durations.empty()) return 0.0;
  std::sort(durations.begin(), durations.end());
  const auto idx = static_cast<std::size_t>(
      0.9 * static_cast<double>(durations.size() - 1));
  return durations[idx];
}

// Time-to-QoS-restoration: the end of the last sliding window (after the
// step) whose p90 violates the threshold.  Sustained by construction —
// every later window is clean.
double restoration_time_s(Scenario& s, const MemberLog& log) {
  double restored_at = kStepAttackAt;
  for (double t = kStepAttackAt; t + kP90WindowS <= kStepHorizon; t += 0.5) {
    if (p90_page_load_s(s, log, t, t + kP90WindowS) >= kP90ThresholdS) {
      restored_at = t + kP90WindowS;
    }
  }
  return restored_at;
}

TEST(DefenseE2E, ClosedLoopRestoresQosFasterThanFixedCadenceAndScalesDown) {
  auto closed_cfg = step_attack_world(21);
  closed_cfg.qos.enabled = true;
  closed_cfg.qos.report_interval_s = 0.25;
  closed_cfg.qos.overload_latency_s = 0.2;
  closed_cfg.qos.overload_queue_s = 0.5;
  closed_cfg.qos.start_fraction = 0.4;   // 1 of 2 initial replicas trips it
  closed_cfg.qos.stop_fraction = 0.3;    // 1 of 4+ post-round replicas clears
  closed_cfg.qos.hysteresis_s = 1.5;
  closed_cfg.qos.max_autoscale_replicas = 8;
  Scenario closed(closed_cfg);
  const MemberLog closed_log(*closed.swarm());
  ASSERT_TRUE(closed.run_until(kStepHorizon));

  // The step degraded QoS and the feedback loop reacted: overload entered,
  // shuffles ran, spares were pre-booted and released again on recovery.
  const auto& cs = closed.coordinator()->stats();
  EXPECT_GT(cs.phase_switches, 0);
  EXPECT_GT(cs.rounds_executed, 0);
  EXPECT_GT(cs.qos_reports, 0);
  EXPECT_GT(cs.autoscale_provisioned, 0);
  EXPECT_GT(cs.autoscale_released, 0);
  EXPECT_EQ(closed.coordinator()->qos_phase(), QosPhase::kNormal)
      << "latency must have recovered by the horizon";
  // Scaled back down: everything the autoscaler still owned was released.
  EXPECT_LE(closed.coordinator()->hot_spare_count(),
            static_cast<std::size_t>(cs.autoscale_provisioned -
                                     cs.autoscale_released) +
                static_cast<std::size_t>(closed_cfg.qos.reserve_spares));
  // QoS genuinely degraded (some window violated after the step) and
  // genuinely recovered (sustained clean windows before the horizon).
  const double closed_restored_at = restoration_time_s(closed, closed_log);
  EXPECT_GT(closed_restored_at, kStepAttackAt);
  EXPECT_LT(closed_restored_at, kStepHorizon - 2 * kP90WindowS);
  EXPECT_LT(p90_page_load_s(closed, closed_log,
                            kStepHorizon - 2 * kP90WindowS, kStepHorizon),
            kP90ThresholdS);

  // The paper's proactive baseline: shuffle everything on a fixed cadence,
  // no feedback.  The closed loop must restore p90 at least as fast.
  double best_fixed = std::numeric_limits<double>::infinity();
  for (const double cadence : {2.0, 4.0}) {
    auto fixed_cfg = step_attack_world(21);
    fixed_cfg.coordinator.fixed_cadence_s = cadence;
    Scenario fixed(fixed_cfg);
    const MemberLog fixed_log(*fixed.swarm());
    ASSERT_TRUE(fixed.run_until(kStepHorizon));
    EXPECT_GT(fixed.coordinator()->stats().rounds_executed, 0);
    best_fixed = std::min(best_fixed, restoration_time_s(fixed, fixed_log));
  }
  EXPECT_LE(closed_restored_at, best_fixed)
      << "feedback trigger must not be slower than the best fixed cadence";
}

// ---- fault matrix ----------------------------------------------------------
//
// The defense must keep working when the control plane itself is under
// stress: lossy lanes, a replica crash mid-campaign, slow provisioning.

ScenarioConfig faulted_world(std::uint64_t seed) {
  auto cfg = small_world(seed);
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 400.0;
  cfg.hot_spares = 1;
  // Heartbeats are the recovery path for lost redirects: a client whose
  // WebSocket died rejoins through DNS -> LB sticky routing.  A client pings
  // heartbeat_s after each pong; 4.5 s is the ping period the matrix was
  // tuned at (a 0.5 s keepalive behind a 4 s pong deadline).  At 0.5 s and
  // 5% loss, lost pongs cause enough rejoin churn to leave clients
  // mid-rejoin at the cutoff (EXPERIMENTS.md, "One cloudsim client engine").
  cfg.client_heartbeat_s = 4.5;
  return cfg;
}

void expect_no_benign_client_stranded(Scenario& s, const MemberLog& log,
                                      int min_connected) {
  // Nobody is permanently stuck: every benign client completed at least one
  // full join (page served), and nearly all are connected at the cutoff
  // (a client can legitimately be mid-rejoin when the clock stops).
  const ClientSwarm& swarm = *s.swarm();
  for (std::int32_t i = 0; i < swarm.benign_members(); ++i) {
    EXPECT_GE(log.of(i, MemberEvent::Kind::kPageLoad).size(), 1u)
        << "client " << i;
  }
  EXPECT_GE(s.clients_connected(), min_connected);
  for (std::int32_t i = 0; i < swarm.benign_members(); ++i) {
    if (swarm.connected(i)) {
      EXPECT_TRUE(s.world().network().is_attached(swarm.current_replica(i)));
    }
  }
}

TEST(DefenseE2E, FaultMatrixKeepsBeatingEvenSplitAndServingEveryone) {
  for (double loss : {0.0, 0.01, 0.05}) {
    for (bool crash : {false, true}) {
      for (bool slow_provision : {false, true}) {
        SCOPED_TRACE("loss=" + std::to_string(loss) +
                     " crash=" + std::to_string(crash) +
                     " slow=" + std::to_string(slow_provision));
        auto cfg = faulted_world(11);
        cfg.faults.data_loss_prob = loss;
        cfg.faults.ctrl_loss_prob = loss;
        if (crash) cfg.faults.replica_crash_times_s = {10.0};
        if (slow_provision) cfg.faults.provision_delay_factor = 2.0;

        // 60 s horizon: under 5% loss an unlucky client can need several
        // DNS->LB rejoin cycles before its first page completes.
        Scenario defense(cfg);
        const MemberLog log(*defense.swarm());
        ASSERT_TRUE(defense.run_until(60.0));
        EXPECT_GT(defense.coordinator()->stats().rounds_executed, 0);
        EXPECT_TRUE(defense.world().network().stats().conserved());
        expect_no_benign_client_stranded(defense, log, /*min_connected=*/10);

        // The shuffling planner must do no worse at isolating benign
        // clients than the naive even split, faults and all.
        auto baseline_cfg = cfg;
        baseline_cfg.coordinator.controller.planner = "even";
        Scenario baseline(baseline_cfg);
        ASSERT_TRUE(baseline.run_until(60.0));
        EXPECT_GE(defense.benign_clients_isolated_from_bots(),
                  baseline.benign_clients_isolated_from_bots());
      }
    }
  }
}

// The PR's acceptance scenario: 5% control-lane loss, one mid-campaign
// replica crash, and twice-as-slow provisioning.  The defense must still
// converge — bots contained, benign clients served from clean replicas —
// and the whole campaign must replay bit-identically.
TEST(DefenseE2E, ConvergesUnderLossCrashAndSlowProvisioning) {
  auto cfg = faulted_world(12);
  cfg.clients = 16;
  cfg.coordinator.controller.replicas = 5;
  cfg.faults.ctrl_loss_prob = 0.05;
  cfg.faults.replica_crash_times_s = {12.0};
  cfg.faults.provision_delay_factor = 2.0;
  cfg.record_net_trace = true;

  Scenario a(cfg);
  const MemberLog log(*a.swarm());
  ASSERT_TRUE(a.run_until(50.0));
  EXPECT_EQ(a.fault_stats().crashes_executed, 1u);
  EXPECT_GT(a.fault_stats().drops_ctrl, 0u);
  EXPECT_GT(a.fault_stats().provisions_delayed, 0u);
  // Converged: the two bots pin down at most two replicas and the benign
  // population is served from clean ones.
  EXPECT_GT(a.coordinator()->stats().rounds_executed, 0);
  EXPECT_LE(a.replicas_hosting_bots(), 2);
  EXPECT_GE(a.benign_clients_isolated_from_bots(), 12);
  expect_no_benign_client_stranded(a, log, /*min_connected=*/14);
  EXPECT_TRUE(a.world().network().stats().conserved());

  // Bit-identical replay, event for event.
  Scenario b(cfg);
  ASSERT_TRUE(b.run_until(50.0));
  EXPECT_EQ(a.world().network().trace(), b.world().network().trace());
}

}  // namespace
}  // namespace shuffledef::cloudsim
