// End-to-end observability tests: the redesigned API's determinism contract
// (result.metrics bit-identical across runs and planner thread counts, modulo
// span wall-clock), span nesting under injected faults, and the cloudsim
// metric mirrors agreeing with their authoritative stats structs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "../cloudsim/faulted_world.h"
#include "cloudsim/coordination_server.h"
#include "cloudsim/fault.h"
#include "cloudsim/network.h"
#include "cloudsim/scenario.h"
#include "core/shuffle_controller.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "sim/shuffle_sim.h"

namespace shuffledef {
namespace {

sim::ShuffleSimConfig small_mle_config() {
  // Algorithm 1's exact DP is cubic-ish in the pool size; keep the pool at
  // the scale of the core algorithm_one tests (N <= ~90) so the suite stays
  // fast while still exercising planner + MLE + cache per round.
  sim::ShuffleSimConfig cfg;
  cfg.benign = {.initial = 60, .rate = 0.0, .total_cap = 60};
  cfg.bots = {.initial = 25, .rate = 0.0, .total_cap = 25};
  cfg.controller.planner = "algorithm1";
  cfg.controller.replicas = 6;
  cfg.controller.use_mle = true;
  cfg.controller.mle.engine = core::LikelihoodEngine::kGaussian;
  cfg.max_rounds = 15;
  cfg.seed = 99;
  return cfg;
}

TEST(Observability, SnapshotIsDeterministicAcrossRepeatedRuns) {
  const auto cfg = small_mle_config();
  const auto a = sim::ShuffleSimulator(cfg).run();
  const auto b = sim::ShuffleSimulator(cfg).run();
  // The run must have produced real metric activity for this to mean much.
  ASSERT_GT(a.metrics.counter(sim::kMetricSimRounds), 0u);
  ASSERT_GT(a.metrics.counter("planner.algorithm1.solves"), 0u);
  ASSERT_GT(a.metrics.counter("mle.estimates"), 0u);
  EXPECT_TRUE(a.metrics.deterministic_equal(b.metrics));
  // Raw snapshots differ only by span wall-clock; the views are identical.
  EXPECT_EQ(a.metrics.deterministic_view(), b.metrics.deterministic_view());
}

TEST(Observability, SnapshotIsDeterministicAcrossPlannerThreads) {
  auto cfg = small_mle_config();
  cfg.controller.planner_threads = 1;
  const auto serial = sim::ShuffleSimulator(cfg).run();
  cfg.controller.planner_threads = 4;
  const auto pooled = sim::ShuffleSimulator(cfg).run();
  ASSERT_GT(serial.metrics.counter("planner.algorithm1.cells"), 0u);
  EXPECT_TRUE(serial.metrics.deterministic_equal(pooled.metrics));
}

TEST(Observability, SimCountersAgreeWithResultFields) {
  const auto cfg = small_mle_config();
  const auto result = sim::ShuffleSimulator(cfg).run();
  const auto& m = result.metrics;
  EXPECT_EQ(m.counter(sim::kMetricSimRounds), result.rounds.size());
  EXPECT_EQ(m.counter(sim::kMetricSimSavedTotal),
            static_cast<std::uint64_t>(result.saved_total));
  EXPECT_EQ(m.counter(sim::kMetricSimRoundsExecuted) +
                m.counter(sim::kMetricSimRoundsFaulted),
            m.counter(sim::kMetricSimRounds));
  EXPECT_EQ(m.counter(sim::kMetricSimRoundsFaulted), 0u);  // no faults here
  const auto* hist = m.histogram(sim::kMetricSimSavedPerRound);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, m.counter(sim::kMetricSimRoundsExecuted));
  EXPECT_DOUBLE_EQ(hist->sum, static_cast<double>(result.saved_total));
  // Schema: the top finite bucket covers paper-scale rounds (a 1.5e5-client
  // round saving everything must not land in overflow).
  ASSERT_FALSE(hist->bounds.empty());
  EXPECT_DOUBLE_EQ(hist->bounds.front(), 0.0);
  EXPECT_DOUBLE_EQ(hist->bounds.back(), 1000000.0);
}

TEST(Observability, SpanNestingUnderInjectedFaults) {
  auto cfg = small_mle_config();
  cfg.round_failure_prob = 0.3;
  cfg.seed = 7;
  const auto result = sim::ShuffleSimulator(cfg).run();
  const auto& m = result.metrics;
  const auto faulted = m.counter(sim::kMetricSimRoundsFaulted);
  const auto executed = m.counter(sim::kMetricSimRoundsExecuted);
  ASSERT_GT(faulted, 0u) << "fault injection never fired; test is vacuous";
  ASSERT_GT(executed, 0u);

  // The span tree must mirror the control flow exactly: one run span, one
  // "round" child per round seen, and one "controller.decide" child per
  // *executed* round only — faulted rounds never reach the controller.
  const auto* run = m.span("sim.run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->count, 1u);
  const auto* round = m.span("sim.run/round");
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->count, m.counter(sim::kMetricSimRounds));
  const auto* decide = m.span("sim.run/round/controller.decide");
  ASSERT_NE(decide, nullptr);
  EXPECT_EQ(decide->count, executed);
  EXPECT_EQ(decide->count, m.counter(core::kMetricControllerDecisions));
  // No decide span may ever appear outside the round scope.
  EXPECT_EQ(m.span("controller.decide"), nullptr);

  // MLE estimation nests below the controller's "estimate" section and runs
  // once per decide that had an observation to digest.
  const auto* mle = m.span("sim.run/round/controller.decide/estimate/mle.estimate");
  ASSERT_NE(mle, nullptr);
  EXPECT_EQ(mle->count, m.counter("mle.estimates"));
  EXPECT_GT(mle->count, 0u);

  // Deterministic under faults too: replaying the seed replays the snapshot.
  const auto replay = sim::ShuffleSimulator(cfg).run();
  EXPECT_TRUE(result.metrics.deterministic_equal(replay.metrics));
}

TEST(Observability, ScenarioMetricsMirrorAuthoritativeStats) {
  cloudsim::ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.initial_replicas = 3;
  cfg.hot_spares = 1;
  cfg.clients = 12;
  cfg.client_heartbeat_s = 0.5;
  cfg.persistent_bots = 2;
  cfg.naive_bots = 2;
  cfg.bot_junk_rate_pps = 400.0;
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 150.0;
  cfg.coordinator.controller.replicas = 4;
  cfg.faults.data_loss_prob = 0.02;
  cfg.faults.ctrl_loss_prob = 0.05;
  cfg.faults.ctrl_dup_prob = 0.02;
  cfg.faults.provision_delay_factor = 2.0;
  cfg.faults.provision_failure_prob = 0.1;
  cfg.faults.replica_crash_times_s = {8.0};

  cloudsim::Scenario scenario(cfg);
  ASSERT_TRUE(scenario.run_until(15.0));
  const auto m = scenario.metrics();

  // Network: the registry mirror must agree field for field with the
  // authoritative NetworkStats, whose conservation invariant still holds.
  const auto net = scenario.world().network().stats();
  EXPECT_TRUE(net.conserved());
  EXPECT_EQ(m.counter(cloudsim::kMetricNetSends), net.sends);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDelivered), net.delivered);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDroppedEgress), net.dropped_egress);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDroppedIngress), net.dropped_ingress);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDroppedDetached),
            net.dropped_detached);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDroppedFaulted), net.dropped_faulted);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDuplicated), net.duplicated);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetBytesDelivered),
            static_cast<std::uint64_t>(net.bytes_delivered));
  EXPECT_EQ(m.gauge(cloudsim::kMetricNetInFlight),
            static_cast<std::int64_t>(net.in_flight));
  EXPECT_GT(net.delivered, 0u);

  // Fault injector.
  const auto faults = scenario.fault_stats();
  EXPECT_GT(faults.drops_ctrl + faults.drops_data, 0u);
  EXPECT_EQ(m.counter(cloudsim::kMetricFaultDropsData), faults.drops_data);
  EXPECT_EQ(m.counter(cloudsim::kMetricFaultDropsCtrl), faults.drops_ctrl);
  EXPECT_EQ(m.counter(cloudsim::kMetricFaultDropsFlap), faults.drops_flap);
  EXPECT_EQ(m.counter(cloudsim::kMetricFaultDuplicated), faults.duplicated);
  EXPECT_EQ(m.counter(cloudsim::kMetricFaultCrashesExecuted),
            faults.crashes_executed);
  EXPECT_EQ(m.counter(cloudsim::kMetricFaultProvisionsFailed),
            faults.provisions_failed);
  EXPECT_EQ(m.counter(cloudsim::kMetricFaultProvisionsDelayed),
            faults.provisions_delayed);

  // Coordinator.
  const auto coord = scenario.coordinator()->stats();
  EXPECT_GT(coord.rounds_executed, 0);
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordAttackReports),
            static_cast<std::uint64_t>(coord.attack_reports));
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordRoundsExecuted),
            static_cast<std::uint64_t>(coord.rounds_executed));
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordClientsMigrated),
            static_cast<std::uint64_t>(coord.clients_migrated));
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordReplicasRecycled),
            static_cast<std::uint64_t>(coord.replicas_recycled));
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordProvisionRetries),
            static_cast<std::uint64_t>(coord.provision_retries));
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordRoundsDegraded),
            static_cast<std::uint64_t>(coord.rounds_degraded));
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordRoundsAborted),
            static_cast<std::uint64_t>(coord.rounds_aborted));
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordCommandRetries),
            static_cast<std::uint64_t>(coord.command_retries));
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordReplicasPresumedCrashed),
            static_cast<std::uint64_t>(coord.replicas_presumed_crashed));
  EXPECT_EQ(m.counter(cloudsim::kMetricCoordLateSparesBanked),
            static_cast<std::uint64_t>(coord.late_spares_banked));

  // Event loop + coordinator spans land in the same registry.
  EXPECT_EQ(m.counter(cloudsim::kMetricLoopEventsDispatched),
            static_cast<std::uint64_t>(scenario.world().loop().processed()));
  // Every executed round ran inside an execute_round span (the span also
  // covers attempts that aborted before deploying, so >=), and the
  // controller's decide span nests under it — the whole control plane
  // reports into one registry.
  const auto* exec = m.span("coord.execute_round");
  ASSERT_NE(exec, nullptr);
  EXPECT_GE(exec->count, static_cast<std::uint64_t>(coord.rounds_executed));
  const auto* decide = m.span("coord.execute_round/controller.decide");
  ASSERT_NE(decide, nullptr);
  EXPECT_GT(decide->count, 0u);
}

TEST(Observability, ScenarioHonorsExternalRegistry) {
  obs::Registry external;
  cloudsim::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.clients = 4;
  cfg.registry = &external;
  cloudsim::Scenario scenario(cfg);
  ASSERT_TRUE(scenario.run_until(5.0));
  EXPECT_EQ(&scenario.registry(), &external);
  EXPECT_GT(external.snapshot().counter(cloudsim::kMetricNetSends), 0u);
}

// ---- registry publication contract -----------------------------------------
//
// NetworkStats and EventLoop::processed() are authoritative; their registry
// copies are published on every return from run()/run_until().  So whenever
// no run is in progress, each net.* metric equals its stats field and
// loop.events_dispatched equals processed(), and worlds sharing one registry
// sum.

cloudsim::ScenarioConfig faulted_world(std::uint64_t seed) {
  auto cfg = cloudsim::faulted_config();  // lossy, duplicating, one crash
  cfg.seed = seed;
  cfg.record_net_trace = false;
  return cfg;
}

cloudsim::NetworkStats operator+(cloudsim::NetworkStats a,
                                 const cloudsim::NetworkStats& b) {
  a.sends += b.sends;
  a.delivered += b.delivered;
  a.dropped_egress += b.dropped_egress;
  a.dropped_ingress += b.dropped_ingress;
  a.dropped_detached += b.dropped_detached;
  a.dropped_faulted += b.dropped_faulted;
  a.duplicated += b.duplicated;
  a.in_flight += b.in_flight;
  a.bytes_delivered += b.bytes_delivered;
  return a;
}

void expect_published(const obs::MetricsSnapshot& m,
                      const cloudsim::NetworkStats& net,
                      std::uint64_t processed, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetSends), net.sends);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDelivered), net.delivered);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDroppedEgress), net.dropped_egress);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDroppedIngress), net.dropped_ingress);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDroppedDetached),
            net.dropped_detached);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDroppedFaulted), net.dropped_faulted);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetDuplicated), net.duplicated);
  EXPECT_EQ(m.counter(cloudsim::kMetricNetBytesDelivered),
            static_cast<std::uint64_t>(net.bytes_delivered));
  EXPECT_EQ(m.gauge(cloudsim::kMetricNetInFlight),
            static_cast<std::int64_t>(net.in_flight));
  EXPECT_EQ(m.counter(cloudsim::kMetricLoopEventsDispatched), processed);
}

TEST(Observability, NetAndLoopMetricsArePublishedAtEveryRunReturn) {
  cloudsim::Scenario s(faulted_world(42));
  bool saw_in_flight = false;
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    ASSERT_TRUE(s.run_until(t));
    const auto& net = s.world().network().stats();
    saw_in_flight = saw_in_flight || net.in_flight > 0;
    expect_published(s.metrics(), net, s.world().loop().processed(),
                     "t=" + std::to_string(t));
  }
  // Not vacuous: faults fired, and some window ended with traffic in
  // flight, so a per-message gauge and a published one could differ.
  const auto& net = s.world().network().stats();
  EXPECT_GT(net.dropped_faulted, 0u);
  EXPECT_GT(net.duplicated, 0u);
  EXPECT_TRUE(saw_in_flight);
  EXPECT_EQ(s.fault_stats().crashes_executed, 1u);
}

TEST(Observability, WorldsSharingARegistrySumTheirNetMetrics) {
  obs::Registry shared;
  auto first = faulted_world(7);
  auto second = faulted_world(8);
  first.registry = &shared;
  second.registry = &shared;
  cloudsim::Scenario a(first);
  cloudsim::Scenario b(second);
  bool saw_in_flight = false;
  for (double t = 1.0; t <= 8.0; t += 1.0) {
    ASSERT_TRUE(a.run_until(t));
    ASSERT_TRUE(b.run_until(t + 0.5));
    const auto sum = a.world().network().stats() + b.world().network().stats();
    saw_in_flight = saw_in_flight || sum.in_flight > 0;
    expect_published(
        shared.snapshot(), sum,
        a.world().loop().processed() + b.world().loop().processed(),
        "t=" + std::to_string(t));
  }
  EXPECT_TRUE(saw_in_flight);
}

TEST(Observability, RunThatExhaustsTheEventBudgetStillPublishes) {
  cloudsim::Scenario s(faulted_world(42));
  ASSERT_TRUE(s.run_until(2.0));
  auto& loop = s.world().loop();
  const std::uint64_t budget = loop.processed() + 777;
  loop.set_event_budget(budget);
  EXPECT_FALSE(s.run_until(10.0));
  EXPECT_EQ(loop.processed(), budget);
  expect_published(s.metrics(), s.world().network().stats(), budget,
                   "after budget exhaustion");
}

TEST(Observability, SimulatorHonorsExternalRegistry) {
  obs::Registry external;
  auto cfg = small_mle_config();
  cfg.registry = &external;
  const auto result = sim::ShuffleSimulator(cfg).run();
  // The result snapshot is taken from the external registry, so both views
  // agree.
  EXPECT_EQ(external.snapshot().counter(sim::kMetricSimRounds),
            result.metrics.counter(sim::kMetricSimRounds));
  EXPECT_GT(result.metrics.counter(sim::kMetricSimRounds), 0u);
}

}  // namespace
}  // namespace shuffledef
