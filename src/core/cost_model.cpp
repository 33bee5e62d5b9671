#include "core/cost_model.h"

#include <cmath>
#include <stdexcept>

#include "util/math.h"

namespace shuffledef::core {

double expansion_clean_fraction(Count clients, Count bots, Count replicas) {
  ShuffleProblem problem{clients, bots, replicas};
  problem.validate();
  if (problem.benign() == 0) return 0.0;
  if (bots == 0) return 1.0;
  // Even split: sizes are base or base+1.  A benign client on a replica of
  // size x is safe iff the other x-1 slots dodge all M bots:
  //   C(N - x, M) / C(N - 1, M).
  const Count base = clients / replicas;
  const Count extra = clients % replicas;  // replicas holding base+1
  auto safe_given_size = [&](Count x) {
    if (x <= 0) return 0.0;
    if (x - 1 > clients - 1 - bots) return 0.0;
    return std::exp(util::log_binomial(clients - x, bots) -
                    util::log_binomial(clients - 1, bots));
  };
  // A uniformly random benign client sits on a size-(base+1) replica with
  // probability (#slots there / N).
  const double big_slots =
      static_cast<double>(extra) * static_cast<double>(base + 1);
  const double w_big = clients > 0 ? big_slots / static_cast<double>(clients) : 0.0;
  return w_big * safe_given_size(base + 1) +
         (1.0 - w_big) * safe_given_size(base);
}

Count expansion_replicas_for_fraction(Count clients, Count bots,
                                      double fraction) {
  if (fraction <= 0.0 || fraction >= 1.0) {
    throw std::invalid_argument(
        "expansion_replicas_for_fraction: fraction must be in (0,1)");
  }
  // P = N gives the best possible spread (singleton replicas): every benign
  // client is then safe, so a solution always exists for fraction < 1.
  Count lo = 1;
  Count hi = clients;
  if (expansion_clean_fraction(clients, bots, hi) < fraction) {
    throw std::logic_error("expansion cannot reach the target fraction");
  }
  while (lo < hi) {
    const Count mid = lo + (hi - lo) / 2;
    if (expansion_clean_fraction(clients, bots, mid) >= fraction) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

double shuffle_round_cost_usd(const CostRates& rates, Count replicas,
                              Count migrated_clients,
                              std::int64_t page_bytes) {
  if (replicas < 0 || migrated_clients < 0 || page_bytes < 0) {
    throw std::invalid_argument("shuffle_round_cost_usd: negative quantities");
  }
  const double replica_hours = static_cast<double>(replicas) *
                               rates.shuffle_round_seconds / 3600.0;
  const double migration_gb = static_cast<double>(migrated_clients) *
                              static_cast<double>(page_bytes) / 1e9;
  return replica_hours * rates.replica_hour_usd +
         migration_gb * rates.egress_gb_usd;
}

DefenseCostModel::DefenseCostModel(CostRates rates) : rates_(rates) {}

void DefenseCostModel::add_round(Count replicas, Count launched,
                                 Count migrated_clients,
                                 std::int64_t page_bytes) {
  if (replicas < 0 || launched < 0 || migrated_clients < 0 || page_bytes < 0) {
    throw std::invalid_argument("DefenseCostModel: negative quantities");
  }
  replica_hours_ += static_cast<double>(replicas) *
                    rates_.shuffle_round_seconds / 3600.0;
  launches_ += launched;
  migration_gb_ += static_cast<double>(migrated_clients) *
                   static_cast<double>(page_bytes) / 1e9;
  wall_seconds_ += rates_.shuffle_round_seconds;
}

void DefenseCostModel::add_steady_state(Count replicas, double seconds) {
  if (replicas < 0 || seconds < 0) {
    throw std::invalid_argument("DefenseCostModel: negative quantities");
  }
  replica_hours_ += static_cast<double>(replicas) * seconds / 3600.0;
  wall_seconds_ += seconds;
}

double DefenseCostModel::total_usd() const {
  return replica_hours_ * rates_.replica_hour_usd +
         static_cast<double>(launches_) * rates_.launch_usd +
         migration_gb_ * rates_.egress_gb_usd;
}

}  // namespace shuffledef::core
