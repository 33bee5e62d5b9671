// Determinism golden tests for the fault-injection subsystem.
//
// The whole point of seeded fault injection is replayability: a failure
// found at seed S must reproduce bit-identically at seed S, no matter how
// often it is rerun or how many worker threads the planner uses.  These
// tests compare full network event traces — every delivery, drop, and
// duplicate with its timestamp — not just aggregate counters.
#include <gtest/gtest.h>

#include "cloudsim/scenario.h"
#include "faulted_world.h"

namespace shuffledef::cloudsim {
namespace {

void expect_identical(Scenario& a, Scenario& b) {
  const auto& ta = a.world().network().trace();
  const auto& tb = b.world().network().trace();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i], tb[i]) << "trace diverges at event " << i;
  }
  EXPECT_EQ(a.fault_stats().drops_ctrl, b.fault_stats().drops_ctrl);
  EXPECT_EQ(a.fault_stats().crashes_executed, b.fault_stats().crashes_executed);
  EXPECT_EQ(a.coordinator()->stats().clients_migrated,
            b.coordinator()->stats().clients_migrated);
  EXPECT_EQ(a.coordinator()->stats().command_retries,
            b.coordinator()->stats().command_retries);
}

TEST(FaultDeterminism, SameSeedReplaysBitIdentically) {
  const auto cfg = faulted_config();
  Scenario a(cfg);
  Scenario b(cfg);
  ASSERT_TRUE(a.run_until(20.0));
  ASSERT_TRUE(b.run_until(20.0));
  ASSERT_FALSE(a.world().network().trace().empty());
  // The run must actually exercise the fault machinery, otherwise this test
  // proves nothing.
  EXPECT_GT(a.fault_stats().drops_ctrl + a.fault_stats().drops_data, 0u);
  EXPECT_EQ(a.fault_stats().crashes_executed, 1u);
  expect_identical(a, b);
}

TEST(FaultDeterminism, PlannerThreadCountDoesNotPerturbTheWorld) {
  // The parallel Algorithm-1 layer sweep is bit-identical at any thread
  // count, so the simulated world — faults included — must be too.
  auto cfg = faulted_config();
  cfg.coordinator.controller.planner = "algorithm1";

  cfg.coordinator.controller.planner_threads = 1;  // serial
  Scenario serial(cfg);
  ASSERT_TRUE(serial.run_until(20.0));

  cfg.coordinator.controller.planner_threads = 4;  // private pool
  Scenario pooled(cfg);
  ASSERT_TRUE(pooled.run_until(20.0));

  EXPECT_GT(serial.coordinator()->stats().rounds_executed, 0);
  expect_identical(serial, pooled);
}

void expect_same_phase_trace(Scenario& a, Scenario& b) {
  const auto& pa = a.coordinator()->phase_transitions();
  const auto& pb = b.coordinator()->phase_transitions();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "phase trace diverges at switch " << i;
  }
}

TEST(FaultDeterminism, QosPhaseTraceReplaysBitIdenticallyUnderFaults) {
  const auto cfg = faulted_qos_config();
  Scenario a(cfg);
  Scenario b(cfg);
  ASSERT_TRUE(a.run_until(20.0));
  ASSERT_TRUE(b.run_until(20.0));
  EXPECT_GT(a.fault_stats().drops_ctrl + a.fault_stats().drops_data, 0u);
  EXPECT_GT(a.coordinator()->stats().qos_reports, 0);
  expect_identical(a, b);
  expect_same_phase_trace(a, b);
}

TEST(FaultDeterminism, QosShardThreadsDoNotPerturbFaultedPhaseTrace) {
  auto cfg = faulted_qos_config();
  cfg.shard_threads = 1;
  Scenario serial(cfg);
  ASSERT_TRUE(serial.run_until(20.0));

  cfg.shard_threads = 4;
  Scenario sharded(cfg);
  ASSERT_TRUE(sharded.run_until(20.0));

  EXPECT_GT(serial.coordinator()->stats().qos_reports, 0);
  expect_identical(serial, sharded);
  expect_same_phase_trace(serial, sharded);
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  // Sanity check that the trace comparison has teeth: a different seed
  // produces a different world.
  auto cfg = faulted_config();
  Scenario a(cfg);
  cfg.seed = 43;
  Scenario b(cfg);
  ASSERT_TRUE(a.run_until(20.0));
  ASSERT_TRUE(b.run_until(20.0));
  EXPECT_NE(a.world().network().trace(), b.world().network().trace());
}

}  // namespace
}  // namespace shuffledef::cloudsim
