// Client-level shuffle simulator with adversarial strategies.
//
// Unlike the count-based ShuffleSimulator (which assumes always-on bots and
// tracks only population sizes), this simulator tracks every bot's place in
// the client population so bots can execute the evasive strategies of paper
// §VII:
//
//   * on-off bots may stay dormant through a shuffle, get "saved" onto a
//     non-shuffling replica together with benign clients, and later wake up
//     — re-polluting that replica, which then rejoins the shuffle pool;
//   * quit-and-re-enter bots leave on a shuffle and come back later; with a
//     known IP the sticky record pins them back to their previous location,
//     with a fresh IP they enter the pool as a new client;
//   * naive bots cannot follow redirects at all and fall out of the system
//     on the first shuffle.
//
// The defense itself is stateless across rounds (paper: "our shuffling-based
// moving target defense is stateless, only focusing on the current state of
// the replica servers"): every round it shuffles exactly the attacked
// replicas' clients and leaves clean replicas alone.
//
// Engine design (million-client scale): a round's outcome depends only on
// where the bots land, so the store gives a benign client no identity.  The
// shuffling pool is a flat array of 4-byte tokens — 0 for every benign
// client, b + 1 for bot b — and the activity column is indexed by token, so
// act[0] = 0 covers every benign member and the bucket scan needs no branch.
// A saved group is its size plus its bots' {offset, token} slots, and it is
// kept only while it holds a bot: a group without one can never be
// re-polluted, so it lives on only in the O(1) running totals.  The
// partition compacts the attacked buckets in place, and re-pollution
// rebuilds a hit group as `size` benign tokens with its bots written back at
// their offsets.  Per-bot behavior state is a flat
// `std::vector<core::BotState>`.  The activity, bucket-scan and
// shuffled-bot sweeps are sharded across a `util::ThreadPool`
// (`ClientSimConfig::threads`) with chunk boundaries that depend only on the
// data, and every random draw comes from either the serial shuffle stream or
// a per-bot `util::SmallRng` fork — so results are bit-identical at every
// thread count (EXPECT_EQ, enforced by tests/sim/client_sim_golden_test.cpp).
// Rng::shuffle's draws depend only on the pool's length, so the token pool
// places every bot exactly where the client-id pools before it did; the same
// test pins the engine to round-by-round goldens and recorded digests of the
// original array-of-structs serial engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/shuffle_controller.h"
#include "obs/snapshot.h"
#include "sim/strategy.h"

namespace shuffledef::util {
class ThreadPool;
}

namespace shuffledef::sim {

// Metric names recorded by the client-level simulator (see ARCHITECTURE.md
// "Observability" for the full catalogue).
inline constexpr std::string_view kMetricClientRounds = "client.rounds";
inline constexpr std::string_view kMetricClientRepolluted =
    "client.repolluted";
inline constexpr std::string_view kMetricClientSaved = "client.saved";
inline constexpr std::string_view kMetricClientAwayBots =
    "client.away_bots";  // gauge (point-in-time, last round wins)
inline constexpr std::string_view kMetricClientPoolSize =
    "client.pool_size";  // histogram (one observation per round)

struct ClientSimConfig {
  /// benign + bots must fit the store's 32-bit tokens (<= INT32_MAX).
  Count benign = 1000;
  Count bots = 50;
  StrategyParams strategy;
  core::ControllerConfig controller;
  Count rounds = 100;
  std::uint64_t seed = 1;
  /// Worker threads for the sharded round sweeps: 1 = serial, 0 = shared
  /// pool, k > 1 = a private pool of k threads (the AlgorithmOneOptions
  /// convention).  Results are bit-identical at every setting.
  Count threads = 0;
  /// Verify the conservation invariant at the end of every round: every
  /// bot is in exactly one of {pool, saved group, away}, the benign clients
  /// in the pool and the saved groups add up to `benign`, and the engine's
  /// running totals match a recount.  Throws std::logic_error on violation.
  /// O(pool + bots) per round — for tests, not production runs.
  bool audit = false;
  /// Metrics sink for the run (nullptr = the simulator uses a private
  /// registry per run; the result snapshot is then exactly this run's
  /// activity).  The controller's registry pointer is overridden with the
  /// effective sink.
  obs::Registry* registry = nullptr;

  /// All violations at once, each prefixed (e.g. "client.") for embedding in
  /// a composite config's report.  Includes the nested strategy./controller.
  /// violations.
  [[nodiscard]] std::vector<std::string> violations(
      const std::string& prefix = {}) const;
  /// Throws std::invalid_argument listing every violation.
  void validate() const;
};

struct ClientRoundMetrics {
  Count round = 0;
  Count pool_clients = 0;        // clients being shuffled this round
  Count pool_bots = 0;           // bots present in the pool (active or not)
  Count active_attackers = 0;    // bots attacking some replica this round
  Count benign_safe = 0;         // benign clients on clean, non-shuffling replicas
  Count repolluted_benign = 0;   // benign dragged back into the pool this round
  Count away_bots = 0;           // quit-reenter bots currently outside
  Count attacked_replicas = 0;
  Count saved_clients = 0;       // all clients (benign + dormant bots) on
                                 // clean, non-shuffling replicas
  bool shuffle_declined = false; // cost-aware controller skipped this round's
                                 // shuffle (nobody moved, nothing was saved)

  friend bool operator==(const ClientRoundMetrics&,
                         const ClientRoundMetrics&) = default;
};

struct ClientSimResult {
  std::vector<ClientRoundMetrics> rounds;
  Count benign_total = 0;
  /// Every metric of the run (client.* round counters plus the controller /
  /// MLE / planner activity).  Deterministic in the seed and the thread
  /// count (deterministic_view()).
  obs::MetricsSnapshot metrics;

  /// Fraction of benign clients safe at the end of the run.
  [[nodiscard]] double final_safe_fraction() const;
  /// Mean active attackers per round — the *delivered* attack intensity —
  /// averaged over the rounds in which a shuffling pool existed.  Rounds
  /// with an empty pool have no attack surface (every active bot would have
  /// re-polluted its replica back into the pool) and are excluded so a long
  /// all-bots-quit tail cannot dilute the metric.
  [[nodiscard]] double mean_attack_intensity() const;
  /// Mean active attackers over *all* rounds, empty-pool tail included (the
  /// pre-refactor definition; kept for run-length-normalized comparisons).
  [[nodiscard]] double mean_attack_intensity_all_rounds() const;
};

class ClientLevelSimulator {
 public:
  explicit ClientLevelSimulator(ClientSimConfig config);
  ~ClientLevelSimulator();
  ClientLevelSimulator(const ClientLevelSimulator&) = delete;
  ClientLevelSimulator& operator=(const ClientLevelSimulator&) = delete;

  [[nodiscard]] ClientSimResult run();

 private:
  [[nodiscard]] util::ThreadPool* pool() const;

  ClientSimConfig config_;
  // Lazily built private pool when config_.threads > 1 (run() is logically
  // const on the configuration; the pool is an execution resource, as in
  // AlgorithmOnePlanner).
  mutable std::unique_ptr<util::ThreadPool> private_pool_;
};

}  // namespace shuffledef::sim
