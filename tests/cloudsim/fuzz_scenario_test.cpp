// Randomized end-to-end scenarios: arbitrary (bounded) world shapes must
// run without crashing, stay deterministic, and uphold global invariants.
#include <gtest/gtest.h>

#include "cloudsim/scenario.h"
#include "member_log.h"
#include "util/random.h"

namespace shuffledef::cloudsim {
namespace {

ScenarioConfig random_config(util::Rng& rng) {
  ScenarioConfig cfg;
  cfg.seed = rng.next_u64();
  cfg.domains = static_cast<std::int32_t>(rng.uniform_int(1, 3));
  cfg.load_balancers_per_domain = static_cast<std::int32_t>(rng.uniform_int(1, 2));
  cfg.initial_replicas = static_cast<std::int32_t>(rng.uniform_int(1, 4));
  cfg.hot_spares = static_cast<std::int32_t>(rng.uniform_int(0, 3));
  cfg.clients = static_cast<std::int32_t>(rng.uniform_int(1, 25));
  cfg.client_browse_think_s = rng.bernoulli(0.5) ? 2.0 : 0.0;
  cfg.persistent_bots = static_cast<std::int32_t>(rng.uniform_int(0, 3));
  cfg.naive_bots = static_cast<std::int32_t>(rng.uniform_int(0, 5));
  cfg.bot_junk_rate_pps = rng.bernoulli(0.5) ? 400.0 : 0.0;
  cfg.bot_heavy_interval_s = rng.bernoulli(0.3) ? 0.1 : 0.0;
  cfg.coordinator.controller.planner = rng.bernoulli(0.5) ? "greedy" : "even";
  cfg.coordinator.controller.replicas = rng.uniform_int(2, 8);
  cfg.coordinator.controller.use_mle = rng.bernoulli(0.7);
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 150.0;
  cfg.boot_delay_s = rng.uniform() * 0.5;
  cfg.shard_threads = static_cast<std::int32_t>(rng.uniform_int(1, 4));
  // Half the worlds run the closed QoS loop on top of whatever else the
  // fuzzer picked: phase machine, remap cap, and Theorem-1 autoscaling all
  // get exercised against random shapes (and, below, injected faults).
  if (rng.bernoulli(0.5)) {
    cfg.qos.enabled = true;
    cfg.qos.report_interval_s = 0.25 + rng.uniform() * 0.5;
    cfg.qos.overload_latency_s = 0.1 + rng.uniform() * 0.3;
    cfg.qos.overload_queue_s = 0.25 + rng.uniform() * 0.75;
    cfg.qos.start_fraction = 0.2 + rng.uniform() * 0.3;
    cfg.qos.stop_fraction = cfg.qos.start_fraction * rng.uniform() * 0.5;
    cfg.qos.hysteresis_s = 0.5 + rng.uniform() * 2.0;
    cfg.qos.max_concurrent_remaps =
        rng.bernoulli(0.5) ? static_cast<std::int32_t>(rng.uniform_int(1, 3))
                           : 0;
    cfg.qos.autoscale = rng.bernoulli(0.5);
    cfg.qos.max_autoscale_replicas = 8;
    cfg.qos.reserve_spares = static_cast<std::int32_t>(rng.uniform_int(0, 2));
  }
  // Half the worlds run under injected faults: lossy/duplicating lanes,
  // provisioning trouble, and (sometimes) a mid-run replica crash.
  if (rng.bernoulli(0.5)) {
    cfg.client_heartbeat_s = 0.5;  // lost redirects recovered via rejoin
    cfg.faults.data_loss_prob = rng.uniform() * 0.05;
    cfg.faults.ctrl_loss_prob = rng.uniform() * 0.05;
    cfg.faults.data_dup_prob = rng.uniform() * 0.05;
    cfg.faults.ctrl_dup_prob = rng.uniform() * 0.05;
    cfg.faults.provision_delay_factor = rng.bernoulli(0.5) ? 2.0 : 1.0;
    cfg.faults.provision_failure_prob = rng.uniform() * 0.2;
    if (rng.bernoulli(0.3)) {
      cfg.faults.replica_crash_times_s.push_back(5.0 + rng.uniform() * 10.0);
    }
  }
  return cfg;
}

class FuzzScenario : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzScenario, RunsCleanAndDeterministic) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    const auto cfg = random_config(rng);
    Scenario a(cfg);
    const MemberLog log(*a.swarm());
    ASSERT_TRUE(a.run_until(25.0)) << "event budget blown";
    const ClientSwarm& swarm = *a.swarm();

    // Global invariants.
    EXPECT_LE(a.clients_connected(), cfg.clients);
    EXPECT_GE(a.provider().active(), 0);
    EXPECT_TRUE(a.world().network().stats().conserved())
        << "NetworkStats conservation violated, seed " << cfg.seed;
    const auto& cs = a.coordinator()->stats();
    EXPECT_GE(cs.rounds_executed, 0);
    EXPECT_EQ(cs.replicas_recycled, a.provider().recycled());
    if (cfg.persistent_bots == 0 && cfg.naive_bots == 0 &&
        !cfg.faults.active()) {
      // Quiet fault-free worlds never shuffle and serve everyone.  (A
      // browsing client can be mid page-reload at the cutoff, so check
      // completed page loads rather than the instantaneous phase.)
      EXPECT_EQ(cs.rounds_executed, 0);
      for (std::int32_t i = 0; i < swarm.benign_members(); ++i) {
        EXPECT_GE(log.of(i, MemberEvent::Kind::kPageLoad).size(), 1u);
      }
    }
    // Every benign client that is connected sits on an attached replica.
    for (std::int32_t i = 0; i < swarm.benign_members(); ++i) {
      if (swarm.connected(i)) {
        EXPECT_TRUE(a.world().network().is_attached(swarm.current_replica(i)));
      }
    }

    // Determinism: an identical world replays identically.
    Scenario b(cfg);
    ASSERT_TRUE(b.run_until(25.0));
    EXPECT_EQ(a.world().network().stats().delivered,
              b.world().network().stats().delivered);
    EXPECT_EQ(a.coordinator()->stats().clients_migrated,
              b.coordinator()->stats().clients_migrated);
    EXPECT_EQ(a.fault_stats().drops_data, b.fault_stats().drops_data);
    EXPECT_EQ(a.fault_stats().drops_ctrl, b.fault_stats().drops_ctrl);
    EXPECT_EQ(a.fault_stats().duplicated, b.fault_stats().duplicated);
    EXPECT_EQ(a.fault_stats().crashes_executed,
              b.fault_stats().crashes_executed);
    EXPECT_EQ(a.coordinator()->stats().phase_switches,
              b.coordinator()->stats().phase_switches);
    EXPECT_EQ(a.coordinator()->phase_transitions(),
              b.coordinator()->phase_transitions());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzScenario,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u));

class FuzzCrossEngine : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCrossEngine, EnginesAgreeOnPhaseCountUnderFaults) {
  // A decisive overload — sustained heavy load, thresholds far from the
  // noise floor, one hysteresis-pinned switch — must enter overload exactly
  // once at every seed, faults and all.
  ScenarioConfig cfg;
  cfg.seed = GetParam();
  cfg.initial_replicas = 2;
  cfg.clients = 10;
  cfg.client_heartbeat_s = 0.5;
  cfg.client_browse_think_s = 1.0;
  cfg.persistent_bots = 3;
  cfg.bot_heavy_interval_s = 0.05;
  cfg.bot_heavy_cpu_seconds = 0.2;  // hopeless backlog: decisively overloaded
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 1e12;   // feedback loop, not detection
  cfg.replica.cpu_backlog_threshold_s = 1e12;
  cfg.coordinator.controller.replicas = 3;
  cfg.qos.enabled = true;
  cfg.qos.report_interval_s = 0.25;
  cfg.qos.overload_latency_s = 0.1;
  cfg.qos.overload_queue_s = 0.25;
  cfg.qos.start_fraction = 0.25;
  cfg.qos.stop_fraction = 0.05;
  cfg.qos.hysteresis_s = 60.0;  // longer than the run: at most one switch
  cfg.faults.ctrl_loss_prob = 0.02;
  cfg.faults.ctrl_dup_prob = 0.02;
  cfg.faults.data_loss_prob = 0.02;

  Scenario s(cfg);
  ASSERT_TRUE(s.run_until(15.0));
  EXPECT_TRUE(s.world().network().stats().conserved());
  EXPECT_GT(s.coordinator()->stats().qos_reports, 0);
  EXPECT_EQ(s.coordinator()->stats().replicas_recycled,
            s.provider().recycled());
  EXPECT_EQ(s.coordinator()->stats().phase_switches, 1);
  EXPECT_EQ(s.coordinator()->qos_phase(), QosPhase::kOverload);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCrossEngine,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace shuffledef::cloudsim
