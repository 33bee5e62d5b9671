// Deterministic fault injection for the simulated cloud.
//
// The defense is a *recovery* mechanism: replicas are instantiated, clients
// redirected, and sessions migrated while the network is actively hostile.
// This subsystem makes that hostility explicit and reproducible — every
// fault decision is drawn from a dedicated RNG substream forked off the
// scenario seed, so a given seed replays bit-identically and enabling
// instrumentation never perturbs the fault sequence.
//
// Fault classes:
//   * per-message probabilistic loss and duplication, separately tunable
//     for the data lane and the prioritized control lane (lost redirects
//     and shuffle commands are where shuffling defenses break in practice);
//   * link-flap windows — intervals during which a lane drops everything;
//   * replica-server crashes scheduled at absolute sim times (executed by
//     the Scenario, which picks the victim through this injector's RNG);
//   * cloud-provider instantiation faults: a delay factor on the boot
//     latency and a probability that a requested instance never comes up.
//
// The injector is passive: Network and CloudProvider consult it on each
// message / provision attempt; it never schedules events itself.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cloudsim/message.h"
#include "obs/registry.h"
#include "util/random.h"

namespace shuffledef::cloudsim {

// Registry metric names mirroring FaultStats.
inline constexpr std::string_view kMetricFaultDropsData = "faults.drops_data";
inline constexpr std::string_view kMetricFaultDropsCtrl = "faults.drops_ctrl";
inline constexpr std::string_view kMetricFaultDropsFlap = "faults.drops_flap";
inline constexpr std::string_view kMetricFaultDuplicated = "faults.duplicated";
inline constexpr std::string_view kMetricFaultCrashesExecuted =
    "faults.crashes_executed";
inline constexpr std::string_view kMetricFaultProvisionsFailed =
    "faults.provisions_failed";
inline constexpr std::string_view kMetricFaultProvisionsDelayed =
    "faults.provisions_delayed";

/// A window during which a lane drops every message (both directions).
/// `node == kInvalidNode` flaps the whole fabric.
struct LinkFlap {
  double start_s = 0.0;
  double duration_s = 0.0;
  NodeId node = kInvalidNode;   // restrict to messages touching this node
  bool affects_data = true;
  bool affects_control = true;
};

struct FaultConfig {
  // Per-message probabilistic faults, split by lane.
  double data_loss_prob = 0.0;
  double ctrl_loss_prob = 0.0;
  double data_dup_prob = 0.0;
  double ctrl_dup_prob = 0.0;

  /// Absolute sim times at which one live replica crashes (victim chosen
  /// deterministically by the Scenario through the injector's RNG).
  std::vector<double> replica_crash_times_s;

  /// Multiplier on CloudProvider boot delay (2.0 = instances come up twice
  /// as slowly; must be > 0).
  double provision_delay_factor = 1.0;
  /// Probability that a requested instance silently never boots.
  double provision_failure_prob = 0.0;

  std::vector<LinkFlap> link_flaps;

  /// True when any knob deviates from the fault-free default.
  [[nodiscard]] bool active() const;

  /// All violations at once, each prefixed (e.g. "faults.") for embedding in
  /// a composite config's report.  FaultInjector's constructor throws
  /// std::invalid_argument listing every violation.
  [[nodiscard]] std::vector<std::string> violations(
      const std::string& prefix = {}) const;
};

struct FaultStats {
  std::uint64_t drops_data = 0;       // probabilistic loss, data lane
  std::uint64_t drops_ctrl = 0;       // probabilistic loss, control lane
  std::uint64_t drops_flap = 0;       // lost to a link-flap window
  std::uint64_t duplicated = 0;       // extra copies injected
  std::uint64_t crashes_executed = 0; // replica crashes carried out
  std::uint64_t provisions_failed = 0;
  std::uint64_t provisions_delayed = 0;  // attempts with delay factor != 1
};

enum class FaultAction : std::uint8_t { kDeliver, kDrop, kDuplicate };

class FaultInjector {
 public:
  /// Extra delay before a duplicated copy re-enters the sender's NIC.
  static constexpr double kDupExtraDelayS = 0.005;

  FaultInjector(FaultConfig config, util::Rng rng);

  /// Fate of one message about to leave its sender's NIC.  `priority` is
  /// the network's lane classification (is_priority_type).  Duplicated
  /// messages deliver the original normally; the caller injects the copy.
  FaultAction on_send(const Message& msg, bool priority, double now);

  /// CloudProvider hooks.
  [[nodiscard]] double provision_delay(double base_delay_s);
  [[nodiscard]] bool provision_fails();

  /// Scenario hooks for scheduled crashes: deterministic victim pick.
  [[nodiscard]] std::int64_t pick_index(std::int64_t n);
  void note_crash() {
    ++stats_.crashes_executed;
    metrics_.crashes_executed.inc();
  }

  /// Mirror every FaultStats field onto registry metrics (kMetricFault*).
  /// The struct stays authoritative; instrumentation never consumes RNG
  /// draws, so the fault sequence is unchanged.  nullptr detaches.
  void set_registry(obs::Registry* registry);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  [[nodiscard]] bool in_flap(const Message& msg, bool priority,
                             double now) const;

  FaultConfig config_;
  util::Rng rng_;
  FaultStats stats_;
  // Null handles when no registry is set (all mirror ops no-op).
  struct {
    obs::Counter drops_data, drops_ctrl, drops_flap, duplicated,
        crashes_executed, provisions_failed, provisions_delayed;
  } metrics_;
};

}  // namespace shuffledef::cloudsim
