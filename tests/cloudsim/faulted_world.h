// The fault battery's world: lossy and duplicating lanes, slow and failing
// provisioning, one replica crash at 8 s, with the network trace recorded.
// fault_determinism_test replays it; swarm_equivalence_test pins its
// delivered-trace digest.
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

}  // namespace shuffledef::cloudsim
