// Economics of the defense (the paper's §VII names this as future work:
// "A quantitative study on the cost of the shuffling-based moving target
// defense is part of our future work plans" — this module is that study's
// machinery).
//
// Two ways to spend cloud money on a DDoS with M insider bots:
//
//   * SHUFFLING (this paper): run P shuffling replicas for R rounds,
//     paying replica-time, instance launches, and client-migration egress;
//     attackers end up quarantined and the steady state is cheap.
//   * PURE EXPANSION ("attack dilution"): never isolate — just add replicas
//     until a target fraction of benign clients happens to sit on bot-free
//     replicas.  The clean fraction under an even spread is
//     C(N - x, M) / C(N - 1, M) with x = N/P, so the replica count needed
//     grows like M / ln(1/f) — brutally fast.
//
// `expansion_replicas_for_fraction` quantifies the second strategy and
// `DefenseCostModel` prices both, which is what lets the bench reproduce
// the paper's claim that shuffling "enables effective attack containment
// using fewer resources than attack dilution strategies using pure server
// expansion".
#pragma once

#include <cstdint>

#include "core/types.h"

namespace shuffledef::core {

/// Expected fraction of benign clients that sit on a bot-free replica when
/// N clients (M bots among them) are spread evenly over P replicas, with
/// no shuffling.  Exact for the balanced split (replica sizes differing by
/// at most one client are averaged).
double expansion_clean_fraction(Count clients, Count bots, Count replicas);

/// Smallest P whose even spread puts at least `fraction` of the benign
/// clients on clean replicas.  Monotone bisection; throws if even one
/// replica per client (P = N) cannot reach the target (fraction > benign
/// achievable share).
Count expansion_replicas_for_fraction(Count clients, Count bots,
                                      double fraction);

/// Cloud price book (defaults approximate a small-instance public cloud).
struct CostRates {
  double replica_hour_usd = 0.0116;   // per replica instance-hour
  double launch_usd = 0.0005;         // per instance launch (API + boot IO)
  double egress_gb_usd = 0.09;        // per GB served to clients
  double shuffle_round_seconds = 5.0; // wall-clock per round (Figure 12)
};

/// Price of one shuffle round that migrates `migrated_clients` clients
/// (each re-fetching `page_bytes`) across `replicas` running instances:
/// replica-time for the round plus migration egress.  This is the unit the
/// cost-aware ShuffleController weighs against a candidate plan's expected
/// saves (Zhou et al., arXiv:1903.10102).
[[nodiscard]] double shuffle_round_cost_usd(const CostRates& rates,
                                            Count replicas,
                                            Count migrated_clients,
                                            std::int64_t page_bytes);

/// Accumulates the resources a defense run consumed.
class DefenseCostModel {
 public:
  explicit DefenseCostModel(CostRates rates = {});

  /// One shuffle round: `replicas` ran for the round, `launched` fresh
  /// instances were booted, `migrated_clients` re-fetched `page_bytes`.
  void add_round(Count replicas, Count launched, Count migrated_clients,
                 std::int64_t page_bytes);

  /// Steady-state serving cost (no attack): `replicas` for `seconds`.
  void add_steady_state(Count replicas, double seconds);

  [[nodiscard]] double replica_hours() const { return replica_hours_; }
  [[nodiscard]] Count launches() const { return launches_; }
  [[nodiscard]] double migration_gb() const { return migration_gb_; }
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }
  [[nodiscard]] double total_usd() const;

 private:
  CostRates rates_;
  double replica_hours_ = 0.0;
  Count launches_ = 0;
  double migration_gb_ = 0.0;
  double wall_seconds_ = 0.0;
};

}  // namespace shuffledef::core
