// Count-based shuffle simulator: the engine behind Figures 8, 9 and 10.
//
// Bots are always on (the paper's main threat model: every bot attacks
// every round and follows every redirect), so individual client identities
// are irrelevant to the saved-count dynamics — only how many benign clients
// and bots remain in the shuffling pool — and each round is simulated in
// O(P * sqrt(bots-per-replica)):
//
//   1. new benign clients / bots arrive (Poisson, capped totals);
//   2. the ShuffleController picks an assignment plan (MLE -> planner);
//   3. bots land across the plan's buckets by an exact multivariate
//      hypergeometric draw (equivalent to uniformly assigning every client);
//   4. every bucket with >= 1 bot is attacked; clean buckets' clients are
//      all benign and leave the pool as saved.
//
// Per the paper, replicas that are no longer attacked stop shuffling and
// fresh replicas keep the shuffling-replica count constant, which is
// exactly what re-planning over the remaining pool each round models.
//
// Stateful adversaries (dormant, quitting, churning or re-scanning bots)
// need per-bot state and placement; they run in sim::ClientLevelSimulator.
//
// Observability: every run records into an obs::Registry — its own private
// one by default, or an externally scoped one via ShuffleSimConfig::registry
// — and the result carries the final MetricsSnapshot.  Snapshots of a fixed
// seed are deterministic (bit-identical in deterministic_view()) across
// runs and across planner_threads settings.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/estimator.h"
#include "core/shuffle_controller.h"
#include "core/types.h"
#include "obs/snapshot.h"
#include "sim/arrival.h"

namespace shuffledef::obs {
class Registry;
}

namespace shuffledef::sim {

// Metric names recorded by the simulator (see ARCHITECTURE.md
// "Observability" for the full catalogue).
inline constexpr std::string_view kMetricSimRounds = "sim.rounds";
inline constexpr std::string_view kMetricSimRoundsExecuted =
    "sim.rounds_executed";
inline constexpr std::string_view kMetricSimRoundsFaulted =
    "sim.rounds_faulted";
inline constexpr std::string_view kMetricSimRoundsDeclined =
    "sim.rounds_declined";
inline constexpr std::string_view kMetricSimSavedTotal = "sim.saved_total";
inline constexpr std::string_view kMetricSimLongestOutage =
    "sim.longest_outage";  // gauge (high-water mark)
inline constexpr std::string_view kMetricSimSavedPerRound =
    "sim.saved_per_round";  // histogram

struct ShuffleSimConfig {
  ArrivalConfig benign;
  ArrivalConfig bots;
  core::ControllerConfig controller;
  /// When use_mle is off, the controller is fed the true bot-pool size each
  /// round (oracle mode) scaled by this factor (sensitivity ablations).
  double oracle_bias = 1.0;
  /// Stop once this fraction of the total benign population is saved.
  double target_fraction = 0.95;
  Count max_rounds = 5000;
  std::uint64_t seed = 1;
  /// Per-round probability that the control plane fails to execute the
  /// shuffle (a lost command / coordinator outage).  A failed round is a
  /// no-op: nobody moves, nothing is saved, and the controller keeps the
  /// previous round's observation.  Drawn from an independent RNG substream,
  /// so the shuffle dynamics for a seed are unchanged when this is 0.
  double round_failure_prob = 0.0;
  /// Metrics sink for the run (nullptr = the simulator uses a private
  /// registry per run; the result snapshot is then exactly this run's
  /// activity).  The controller's registry pointer is overridden with the
  /// effective sink.
  obs::Registry* registry = nullptr;

  /// All configuration violations at once (empty = valid).  The simulator
  /// constructor throws std::invalid_argument listing every violation.
  [[nodiscard]] std::vector<std::string> validate() const;
};

struct RoundStats {
  Count round = 0;              // 1-based recorded-round index (gap-free)
  Count pool_benign = 0;        // pool composition entering the shuffle
  Count pool_bots = 0;
  Count replicas = 0;           // P used this round
  Count attacked_replicas = 0;  // observed X
  Count bot_estimate = 0;       // the controller's M-hat for this round
  Count saved = 0;              // benign saved by this shuffle
  Count cumulative_saved = 0;
  bool faulted = false;         // round lost to an injected control failure
  bool declined = false;        // cost-aware controller skipped the shuffle
};

struct ShuffleSimResult {
  std::vector<RoundStats> rounds;
  Count benign_total = 0;   // total benign that ever arrived
  Count saved_total = 0;
  bool reached_target = false;
  /// Every metric of the run: simulator round/fault counters, controller
  /// decisions and planner-cache hits/misses, MLE and planner activity,
  /// span timings.  Deterministic in the seed (deterministic_view()).
  obs::MetricsSnapshot metrics;

  /// Number of *executed* shuffles (faulted rounds execute nothing) up to
  /// the first recorded round with cumulative saved >= fraction *
  /// benign_total; 0 when the target is zero (nothing needed saving),
  /// nullopt if never reached.
  [[nodiscard]] std::optional<Count> shuffles_to_fraction(double fraction) const;
};

class ShuffleSimulator {
 public:
  explicit ShuffleSimulator(ShuffleSimConfig config);

  [[nodiscard]] ShuffleSimResult run();

 private:
  ShuffleSimConfig config_;
};

}  // namespace shuffledef::sim
