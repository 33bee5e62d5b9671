// Closed-loop QoS control plane: per-replica latency signals and the
// coordinator's overload phase machine.
//
// The paper shuffles on a fixed cadence; a deployable defense reacts to
// *observed* service degradation (Zhou et al., arXiv:1903.10102; Shan &
// Kesidis, arXiv:1704.06794 judge policies by time-to-QoS-restoration).
// The loop closed here:
//
//   replica samples its service-latency EWMA + queue depth on a
//   deterministic event-loop tick -> kQosReport to the coordinator ->
//   the coordinator thresholds each replica into an overloaded set ->
//   QosPhaseMachine switches kNormal <-> kOverload against start/stop
//   fractions with a hysteresis dwell (the memec Coordinator::switchPhase
//   pattern: start threshold to enter, stop threshold to leave, a cap on
//   concurrently remapped servers) -> during kOverload the overloaded
//   replicas are shuffled (capped at `max_concurrent_remaps` in flight)
//   and the Theorem-1 provisioner pre-boots spare replicas sized from the
//   observed attack intensity; recovery releases them again.
//
// The phase machine is a pure object — time in, transitions out — so the
// control law is property-testable without a simulated world, and every
// transition is recorded for bit-identity checks across thread counts and
// replays.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace shuffledef::cloudsim {

/// Coordinator operating phase (memec: "remap stopped" / "remap started").
enum class QosPhase : std::uint8_t { kNormal = 0, kOverload = 1 };

[[nodiscard]] const char* qos_phase_name(QosPhase phase) noexcept;

/// One recorded phase switch.  The trace of these is part of the
/// determinism contract: bit-identical across replays of a seed, across
/// shard_threads settings, and across planner thread counts.
struct QosPhaseTransition {
  double at = 0.0;            // simulated time of the switch
  QosPhase to = QosPhase::kNormal;
  std::int32_t overloaded = 0;  // overloaded replicas at the switch
  std::int32_t total = 0;       // active replicas at the switch
  bool operator==(const QosPhaseTransition&) const = default;
};

struct QosConfig {
  /// Master switch.  Off (default) leaves the world bit-identical to a
  /// pre-QoS build: no replica ticks, no reports, no phase machine.
  bool enabled = false;

  // ---- replica-side signal ---------------------------------------------------
  /// Sampling/report cadence of each replica's QoS tick (a deterministic
  /// event-loop timer, so replays stay bit-identical).
  double report_interval_s = 0.5;
  /// EWMA weight on each completed request's service latency (queueing +
  /// service, known at admission): new = alpha*sample + (1-alpha)*old.
  double latency_alpha = 0.3;

  // ---- per-replica overload predicate (coordinator side) ---------------------
  /// A replica is overloaded when its reported latency EWMA exceeds this...
  double overload_latency_s = 0.25;
  /// ...or its reported queue depth (CPU backlog + egress backlog) does.
  double overload_queue_s = 1.0;

  // ---- phase machine ---------------------------------------------------------
  /// kNormal -> kOverload when overloaded > start_fraction * total.
  double start_fraction = 0.4;
  /// kOverload -> kNormal when overloaded < stop_fraction * total.  Must be
  /// strictly below start_fraction (validate() rejects stop >= start).
  double stop_fraction = 0.1;
  /// Minimum dwell between consecutive switches: once a switch fires, the
  /// next one is suppressed for this long, whichever direction.  This is
  /// what keeps a noisy signal from flapping kNormal -> kOverload ->
  /// kNormal inside one window.
  double hysteresis_s = 2.0;

  // ---- actuation -------------------------------------------------------------
  /// Cap on replicas concurrently being remapped (snapshot taken, command
  /// unacked).  0 = unlimited (the legacy report-driven behaviour).  The
  /// memec coordinator's `states.maximum`.
  std::int32_t max_concurrent_remaps = 0;
  /// During kOverload, pre-boot hot spares so shuffle rounds skip the boot
  /// delay: the Theorem-1 provisioner sizes the warm-spare pool from the
  /// controller's current bot estimate (what the next round will consume).
  bool autoscale = true;
  /// Hard cap on the whole fleet (active + spares + boots in flight): the
  /// autoscaler never grows past it.
  std::int32_t max_autoscale_replicas = 16;
  /// Spares kept warm after recovery; the surplus is released (recycled).
  std::int32_t reserve_spares = 0;

  /// All violations at once (empty = valid), each prefixed for embedding in
  /// a composite config's report.
  [[nodiscard]] std::vector<std::string> violations(
      const std::string& prefix = {}) const;
  /// Throws std::invalid_argument listing every violation.
  void validate() const;
};

/// The pure control law: feed deterministic (time, overloaded, total)
/// samples, get phase switches out.  Exactly the memec switchPhase shape —
/// start threshold to enter the remapping phase, stop threshold to leave —
/// plus an explicit hysteresis dwell.
class QosPhaseMachine {
 public:
  explicit QosPhaseMachine(const QosConfig& config);

  /// Evaluate one sample.  `now` must be non-decreasing across calls.
  /// Returns the phase switched *to*, or nullopt when nothing changed.
  std::optional<QosPhase> update(double now, std::int32_t overloaded,
                                 std::int32_t total);

  [[nodiscard]] QosPhase phase() const noexcept { return phase_; }
  /// Time of the last switch (-infinity before the first).
  [[nodiscard]] double last_switch_at() const noexcept {
    return last_switch_at_;
  }
  [[nodiscard]] const std::vector<QosPhaseTransition>& transitions() const {
    return transitions_;
  }

 private:
  QosConfig config_;
  QosPhase phase_ = QosPhase::kNormal;
  double last_switch_at_ = 0.0;  // set to -inf in the constructor
  std::vector<QosPhaseTransition> transitions_;
};

}  // namespace shuffledef::cloudsim
