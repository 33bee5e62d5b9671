// The fault battery's worlds: lossy and duplicating lanes, slow and failing
// provisioning, one replica crash at 8 s, with the network trace recorded,
// and the same world with the closed QoS loop on top.
// fault_determinism_test replays both; swarm_equivalence_test pins their
// delivered-trace digests.
#pragma once

#include "cloudsim/scenario.h"

namespace shuffledef::cloudsim {

inline ScenarioConfig faulted_config() {
  ScenarioConfig cfg;
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
  cfg.record_net_trace = true;
  return cfg;
}

inline ScenarioConfig faulted_qos_config() {
  // The closed QoS loop layered on top of the fault battery: replica crash,
  // lossy/duplicating control lane, delayed and failing provisioning.  The
  // phase trace is part of the determinism contract, so it must replay
  // bit-identically through all of it.
  auto cfg = faulted_config();
  cfg.qos.enabled = true;
  cfg.qos.report_interval_s = 0.25;
  cfg.qos.overload_latency_s = 0.2;
  cfg.qos.overload_queue_s = 0.5;
  cfg.qos.start_fraction = 0.25;
  cfg.qos.stop_fraction = 0.1;
  cfg.qos.hysteresis_s = 1.0;
  cfg.qos.max_concurrent_remaps = 2;
  cfg.qos.max_autoscale_replicas = 8;
  // Computational load so the latency EWMA actually moves under faults.
  cfg.bot_heavy_interval_s = 0.05;
  cfg.bot_heavy_cpu_seconds = 0.1;
  return cfg;
}

}  // namespace shuffledef::cloudsim
