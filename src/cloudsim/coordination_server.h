// Coordination server (paper §III-D): the central controller.
//
// Tracks the global replica set and client bindings, receives attack
// reports over the dedicated command & control channel (a priority lane no
// client can reach), and reacts to attacks by executing shuffle rounds:
//
//   report(s) arrive -> aggregate for a short window -> snapshot the
//   attacked replicas' clients -> core::ShuffleController (MLE estimate +
//   planner) sizes the new replica set and the assignment plan -> the cloud
//   provider boots replacements -> clients are randomly mapped to buckets ->
//   each attacked replica gets a kShuffleCommand and pushes WebSocket
//   redirects -> decommissioned replicas are recycled.
//
// Replicas that stop being attacked simply stop reporting: their clients
// are saved and stay put (non-shuffling replicas, paper §III-C).
//
// Nothing above assumes a reliable substrate.  Two watchdog/retry loops
// (both with capped exponential backoff) make the control plane survive
// injected faults (cloudsim/fault.h):
//
//   * provisioning — instances are requested individually and collected
//     against a deadline; missing instances are re-requested up to
//     `kProvisionMaxRetries` times, after which the round deploys degraded
//     onto whatever booted (late stragglers become hot spares).  With no
//     replicas at all the round re-queues its reports and retries later.
//   * shuffle commands — each kShuffleCommand must be acknowledged by the
//     replica's kDecommission; unacknowledged commands are re-sent (the
//     replica side is idempotent), and after `kCommandMaxRetries` the
//     replica is presumed crashed and force-recycled so its clients'
//     heartbeat rejoin path finds only live replicas.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cloudsim/cloud_provider.h"
#include "cloudsim/load_balancer.h"
#include "cloudsim/node.h"
#include "cloudsim/qos.h"
#include "core/shuffle_controller.h"
#include "obs/registry.h"

namespace shuffledef::cloudsim {

// Registry metric names mirroring CoordinatorStats.  The sink is
// `controller.registry` inside CoordinatorConfig — one registry covers the
// whole control plane.
inline constexpr std::string_view kMetricCoordAttackReports =
    "coord.attack_reports";
inline constexpr std::string_view kMetricCoordRoundsExecuted =
    "coord.rounds_executed";
inline constexpr std::string_view kMetricCoordClientsMigrated =
    "coord.clients_migrated";
inline constexpr std::string_view kMetricCoordReplicasRecycled =
    "coord.replicas_recycled";
inline constexpr std::string_view kMetricCoordProvisionRetries =
    "coord.provision_retries";
inline constexpr std::string_view kMetricCoordRoundsDegraded =
    "coord.rounds_degraded";
inline constexpr std::string_view kMetricCoordRoundsAborted =
    "coord.rounds_aborted";
inline constexpr std::string_view kMetricCoordCommandRetries =
    "coord.command_retries";
inline constexpr std::string_view kMetricCoordReplicasPresumedCrashed =
    "coord.replicas_presumed_crashed";
inline constexpr std::string_view kMetricCoordLateSparesBanked =
    "coord.late_spares_banked";
inline constexpr std::string_view kMetricCoordShufflesDeclined =
    "coord.shuffles_declined";

// Closed-loop control plane (cloudsim/qos.h).
inline constexpr std::string_view kMetricCoordPhase = "coord.phase";
inline constexpr std::string_view kMetricCoordOverloadedReplicas =
    "coord.overloaded_replicas";
inline constexpr std::string_view kMetricCoordRemapsInflight =
    "coord.remaps_inflight";
inline constexpr std::string_view kMetricCoordRemapsInflightPeak =
    "coord.remaps_inflight_peak";
inline constexpr std::string_view kMetricCoordPhaseSwitches =
    "coord.phase_switches";
inline constexpr std::string_view kMetricCoordQosReports = "coord.qos_reports";
inline constexpr std::string_view kMetricCoordAutoscaleProvisioned =
    "coord.autoscale_provisioned";
inline constexpr std::string_view kMetricCoordAutoscaleReleased =
    "coord.autoscale_released";

struct CoordinatorConfig {
  core::ControllerConfig controller;
  /// Collect attack reports for this long before acting, so one round
  /// covers every replica the botnet hit "simultaneously".
  double aggregation_window_s = 0.3;
  /// First-round bot estimate as a fraction of the affected pool.
  double initial_bot_fraction = 0.1;

  // ---- shuffle triggering ----------------------------------------------------
  /// Closed-loop latency feedback (cloudsim/qos.h).  When `qos.enabled`,
  /// replicas stream kQosReport samples, the phase machine thresholds them
  /// into kNormal/kOverload, overloaded replicas are shuffled (capped at
  /// `qos.max_concurrent_remaps` in flight) and the Theorem-1 autoscaler
  /// keeps a spare pool sized from the current bot estimate.
  QosConfig qos;
  /// Fixed-cadence baseline (the paper's model: shuffle every T seconds,
  /// attacked or not).  > 0 schedules a periodic tick that marks every
  /// active replica for shuffling.  0 = off (report/feedback driven only).
  double fixed_cadence_s = 0.0;
};

struct CoordinatorStats {
  std::int64_t attack_reports = 0;
  std::int64_t rounds_executed = 0;
  std::int64_t clients_migrated = 0;
  std::int64_t replicas_recycled = 0;

  // Control-plane retry/timeout accounting.
  std::int64_t provision_retries = 0;   // re-request waves issued
  std::int64_t rounds_degraded = 0;     // deployed with < planned replicas
  std::int64_t rounds_aborted = 0;      // no replica booted; round re-queued
  std::int64_t command_retries = 0;     // kShuffleCommand re-sends
  std::int64_t replicas_presumed_crashed = 0;  // force-recycled, no ack
  std::int64_t late_spares_banked = 0;  // stragglers kept as hot spares
  std::int64_t shuffles_declined = 0;   // cost-aware controller said no

  // Closed-loop control plane.
  std::int64_t qos_reports = 0;           // kQosReport samples ingested
  std::int64_t phase_switches = 0;        // kNormal <-> kOverload flips
  std::int64_t remap_cap_deferred = 0;    // shuffles pushed to a later round
  std::int64_t remaps_inflight_peak = 0;  // high-water mark of unacked remaps
  std::int64_t autoscale_provisioned = 0;  // spares booted by the autoscaler
  std::int64_t autoscale_released = 0;     // spares recycled after recovery
};

class CoordinationServer final : public Node {
 public:
  CoordinationServer(World& world, std::string name, CoordinatorConfig config);

  /// Wire up the backend (must happen before traffic flows).
  void set_infrastructure(CloudProvider* provider,
                          std::vector<LoadBalancer*> load_balancers);

  /// Register a pre-existing replica (initial deployment).
  void register_replica(NodeId replica);

  /// Add an already-booted standby replica.  Shuffle rounds consume spares
  /// before asking the provider for fresh instances, skipping the boot
  /// delay (paper §III-C: "a few hot spare replica servers can be
  /// maintained at runtime to expedite the shuffling process").
  void add_hot_spare(NodeId replica);

  void on_start() override;
  void on_message(const Message& msg) override;

  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
  [[nodiscard]] const std::set<NodeId>& active_replicas() const {
    return active_replicas_;
  }
  /// Replicas attacked since the last executed round (pending work).
  [[nodiscard]] const std::set<NodeId>& attacked_replicas() const {
    return attacked_;
  }
  /// Shuffle commands awaiting a kDecommission ack (pending retry state).
  [[nodiscard]] std::size_t pending_commands() const {
    return pending_commands_.size();
  }
  /// Warm standby replicas available to the next shuffle round.
  [[nodiscard]] std::size_t hot_spare_count() const {
    return hot_spares_.size();
  }

  /// Current control-plane phase (kNormal when the loop is disabled).
  [[nodiscard]] QosPhase qos_phase() const {
    return phase_machine_ ? phase_machine_->phase() : QosPhase::kNormal;
  }
  /// Full phase-switch trace — part of the determinism contract (compared
  /// bit-for-bit across replays, shard_threads settings, and engines).
  [[nodiscard]] const std::vector<QosPhaseTransition>& phase_transitions()
      const {
    static const std::vector<QosPhaseTransition> kNone;
    return phase_machine_ ? phase_machine_->transitions() : kNone;
  }

 private:
  // ---- control-plane robustness ---------------------------------------------
  /// Deadline for a wave of provision requests before the shortfall is
  /// re-requested.  Must comfortably exceed the provider's boot delay.
  static constexpr double kProvisionTimeoutS = 3.0;
  /// Re-request waves beyond the first.
  static constexpr int kProvisionMaxRetries = 4;
  /// Backoff between provisioning retry waves: initial * 2^(attempt-1),
  /// capped.
  static constexpr double kRetryBackoffInitialS = 0.25;
  static constexpr double kRetryBackoffCapS = 2.0;
  /// Deadline for a replica's kDecommission ack of a kShuffleCommand before
  /// the command is re-sent (doubles per resend, capped at
  /// kRetryBackoffCapS + kCommandTimeoutS).
  static constexpr double kCommandTimeoutS = 1.5;
  /// Re-sends beyond the first command; afterwards the replica is presumed
  /// crashed and force-recycled.
  static constexpr int kCommandMaxRetries = 4;
  /// QoS reports older than this are forgotten (a silent replica — crashed
  /// or its control lane lossy — must not pin the overloaded set forever).
  static constexpr double kQosStaleAfterS = 3.0;

  /// One in-flight shuffle round waiting on provisioning.
  struct PendingRound {
    std::vector<NodeId> attacked;
    std::vector<std::pair<IpId, NodeId>> pool;
    core::RoundDecision decision;
    std::vector<NodeId> ready;
    std::int64_t target = 0;  // replicas wanted
    int attempt = 0;          // provisioning waves issued so far (1-based)
    bool deployed = false;
  };

  struct PendingCommand {
    ShuffleCommandPayload payload;
    int resends = 0;
    std::uint64_t epoch = 0;  // invalidates stale watchdog timers
  };

  /// Latest accepted kQosReport from one replica.
  struct QosSample {
    double latency_s = 0.0;
    double queue_s = 0.0;
    double at = 0.0;
  };

  void schedule_round();
  void execute_round();
  void cadence_tick();
  void evaluate_qos();
  void autoscale_up();
  void release_spares();
  void note_remaps_inflight();
  void request_wave(const std::shared_ptr<PendingRound>& round,
                    std::int64_t count);
  void arm_provision_watchdog(const std::shared_ptr<PendingRound>& round);
  void finish_round(const std::shared_ptr<PendingRound>& round);
  void deploy_shuffle(std::vector<NodeId> attacked,
                      std::vector<std::pair<IpId, NodeId>> pool,
                      core::RoundDecision decision,
                      const std::vector<NodeId>& new_replicas);
  void send_shuffle_command(NodeId replica);
  void arm_command_watchdog(NodeId replica, std::uint64_t epoch);
  void drop_replica(NodeId replica);
  [[nodiscard]] static double backoff_s(int attempt);
  [[nodiscard]] ReplicaServer* replica_ptr(NodeId id);

  CoordinatorConfig config_;
  core::ShuffleController controller_;
  CloudProvider* provider_ = nullptr;
  std::vector<LoadBalancer*> load_balancers_;

  std::set<NodeId> active_replicas_;
  std::vector<NodeId> hot_spares_;
  std::set<NodeId> attacked_;
  bool round_pending_ = false;
  bool round_in_flight_ = false;
  bool seeded_estimate_ = false;

  std::map<NodeId, PendingCommand> pending_commands_;
  std::uint64_t command_epoch_ = 0;

  // Closed-loop control plane (all containers ordered => deterministic).
  std::optional<QosPhaseMachine> phase_machine_;
  std::map<NodeId, QosSample> qos_table_;
  std::int64_t autoscale_pending_ = 0;  // spare boots requested, not yet up
  // Warm spares in hot_spares_ that the autoscaler booted (vs seeded at
  // world start).  Recovery only releases these: recycling a spare the
  // provider never provisioned would drive its active count negative.
  std::int64_t autoscale_spares_ = 0;

  // Previous round's deployment, used as the MLE observation.
  struct LastRound {
    std::vector<NodeId> replicas;
    std::vector<core::Count> sizes;
  };
  std::optional<LastRound> last_round_;

  CoordinatorStats stats_;
  // Null handles when config_.controller.registry is null.
  struct {
    obs::Counter attack_reports, rounds_executed, clients_migrated,
        replicas_recycled, provision_retries, rounds_degraded, rounds_aborted,
        command_retries, replicas_presumed_crashed, late_spares_banked,
        shuffles_declined;
    obs::Counter qos_reports, phase_switches, autoscale_provisioned,
        autoscale_released;
    obs::Gauge phase, overloaded_replicas, remaps_inflight,
        remaps_inflight_peak;
  } metrics_;
};

}  // namespace shuffledef::cloudsim
