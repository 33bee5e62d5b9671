#include "core/likelihood.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/math.h"
#include "util/random.h"

namespace shuffledef::core {
namespace {

using util::kNegInf;

struct Group {
  Count size = 0;   // replica size v
  Count count = 0;  // how many replicas have this size
};

// Distinct replica sizes in ascending order, with multiplicities.
// Planners emit sizes in runs, so this collapses the runs in plan order,
// sorts only the runs, and merges runs of equal size.
std::vector<Group> group_sizes(const AssignmentPlan& plan) {
  std::vector<Group> groups;
  for (const Count x : plan.counts()) {
    if (groups.empty() || groups.back().size != x) groups.push_back({x, 0});
    ++groups.back().count;
  }
  std::sort(groups.begin(), groups.end(),
            [](const Group& a, const Group& b) { return a.size < b.size; });
  std::size_t distinct = 0;
  for (const Group& run : groups) {
    if (distinct > 0 && groups[distinct - 1].size == run.size) {
      groups[distinct - 1].count += run.count;
    } else {
      groups[distinct++] = run;
    }
  }
  groups.resize(distinct);
  return groups;
}

}  // namespace

AttackedCountLikelihood::AttackedCountLikelihood(const AssignmentPlan& plan,
                                                 std::size_t max_group_states)
    : clients_(plan.total_clients()),
      replicas_(static_cast<Count>(plan.replica_count())) {
  // Empty replicas are always clean; factoring them out keeps the
  // inclusion-exclusion free of one family of exactly-cancelling terms.
  auto groups = group_sizes(plan);
  std::erase_if(groups, [this](const Group& g) {
    if (g.size == 0) {
      empty_replicas_ += g.count;
      return true;
    }
    return false;
  });
  for (const auto& g : groups) {
    for (Count c = 0; c < g.count; ++c) nonempty_sizes_.push_back(g.size);
  }
  const Count P = replicas_ - empty_replicas_;  // non-empty replicas

  log_weights_[0] =
      std::vector<double>(static_cast<std::size_t>(P) + 1, kNegInf);
  log_weights_[0][0] = 0.0;

  for (const auto& g : groups) {
    std::vector<double> log_choose(static_cast<std::size_t>(g.count) + 1);
    for (Count t = 0; t <= g.count; ++t) {
      log_choose[static_cast<std::size_t>(t)] = util::log_binomial(g.count, t);
    }
    std::map<Count, std::vector<double>> next;
    for (const auto& [s, weights] : log_weights_) {
      for (Count t = 0; t <= g.count; ++t) {
        const Count s2 = s + t * g.size;
        auto it = next.find(s2);
        if (it == next.end()) {
          it = next.emplace(s2, std::vector<double>(
                                    static_cast<std::size_t>(P) + 1, kNegInf))
                   .first;
        }
        auto& target = it->second;
        for (Count j = 0; j + t <= P; ++j) {
          const double w = weights[static_cast<std::size_t>(j)];
          if (w == kNegInf) continue;
          auto& cell = target[static_cast<std::size_t>(j + t)];
          cell = util::log_add_exp(
              cell, w + log_choose[static_cast<std::size_t>(t)]);
        }
      }
      if (next.size() * static_cast<std::size_t>(P + 1) > max_group_states) {
        throw std::invalid_argument(
            "AttackedCountLikelihood: plan has too many distinct sizes for "
            "the exact engine; use the independence engine");
      }
    }
    log_weights_ = std::move(next);
  }
}

std::vector<double> AttackedCountLikelihood::pmf(Count bots) const {
  const Count N = clients_;
  const Count Q = replicas_ - empty_replicas_;  // non-empty replicas
  if (bots < 0 || bots > N) {
    throw std::invalid_argument("AttackedCountLikelihood: bots out of range");
  }

  // pmf over ATTACKED replicas (0..replicas_); empty replicas are never
  // attacked, so the attacked count ranges over [0, Q].
  std::vector<double> attacked_pmf(static_cast<std::size_t>(replicas_) + 1,
                                   0.0);
  if (bots == 0 || Q == 0) {
    attacked_pmf[0] = 1.0;
    return attacked_pmf;
  }

  // Structural support of the clean count among non-empty replicas:
  //   * each bot attacks at most one replica  -> clean >= Q - bots;
  //   * a replica larger than N - bots cannot avoid every bot -> it is
  //     always attacked, lowering the max clean count.
  // Outside this window the inclusion-exclusion cancels *exactly*; skipping
  // it both saves work and keeps the cancellation audit meaningful.
  const Count min_clean = std::max<Count>(0, Q - bots);
  Count always_attacked = 0;
  for (const Count x : nonempty_sizes_) {
    if (x > N - bots) ++always_attacked;
  }
  const Count max_clean = Q - always_attacked;

  // log T_j = log sum over j-subsets B (of non-empty replicas) of
  // C(N - s_B, M) / C(N, M).
  const double log_cnm = util::log_binomial(N, bots);
  std::vector<double> log_t(static_cast<std::size_t>(Q) + 1, kNegInf);
  for (const auto& [s, weights] : log_weights_) {
    const double log_ratio = util::log_binomial(N - s, bots) - log_cnm;
    if (log_ratio == kNegInf) continue;  // subsets too big to stay clean
    for (Count j = 0; j <= Q; ++j) {
      const double w = weights[static_cast<std::size_t>(j)];
      if (w == kNegInf) continue;
      auto& cell = log_t[static_cast<std::size_t>(j)];
      cell = util::log_add_exp(cell, w + log_ratio);
    }
  }

  // The alternating inclusion-exclusion can produce intermediate terms many
  // orders of magnitude above the final probability; long double carries
  // ~19 digits, so beyond this cancellation depth the result is noise and
  // the caller must fall back to an approximation engine.
  constexpr double kMaxCancellationDigits = 13.0 * 2.302585;  // ln(1e13)

  double total = 0.0;
  for (Count k = min_clean; k <= max_clean; ++k) {
    // Pr[exactly k clean] = sum_{j>=k} (-1)^{j-k} C(j,k) T_j, evaluated with
    // the largest term factored out to keep the alternating sum stable.
    double max_log = kNegInf;
    for (Count j = k; j <= Q; ++j) {
      const double lt = log_t[static_cast<std::size_t>(j)];
      if (lt == kNegInf) continue;
      max_log = std::max(max_log, util::log_binomial(j, k) + lt);
    }
    if (max_log == kNegInf) continue;
    long double acc = 0.0L;
    for (Count j = k; j <= Q; ++j) {
      const double lt = log_t[static_cast<std::size_t>(j)];
      if (lt == kNegInf) continue;
      const long double mag = std::exp(
          static_cast<long double>(util::log_binomial(j, k) + lt - max_log));
      acc += ((j - k) % 2 == 0) ? mag : -mag;
    }
    const long double value =
        acc * std::exp(static_cast<long double>(max_log));
    // Cancellation audit: `acc` is the result scaled by the largest term.
    // Within the structural support a probability that cancelled to <= 0,
    // or survived with fewer than ~6 of long double's ~19 digits, is
    // indistinguishable from noise.
    const bool deep_cancellation =
        max_log > -60.0 &&
        (value <= 0.0L
             ? true
             : max_log - std::log(static_cast<double>(value)) >
                   kMaxCancellationDigits);
    if (deep_cancellation) {
      throw std::invalid_argument(
          "AttackedCountLikelihood: inclusion-exclusion cancellation exceeds "
          "the floating-point budget for this plan; use an approximation "
          "engine");
    }
    const double p = value > 0.0L ? static_cast<double>(value) : 0.0;
    attacked_pmf[static_cast<std::size_t>(Q - k)] = p;  // attacked = Q - clean
    total += p;
  }
  if (total <= 0.0) {
    throw std::logic_error("AttackedCountLikelihood: degenerate pmf");
  }
  // Mop up round-off: the pmf should sum to ~1.
  for (double& p : attacked_pmf) p /= total;
  return attacked_pmf;
}

double AttackedCountLikelihood::log_likelihood(Count bots,
                                               Count observed_attacked) const {
  if (observed_attacked < 0 || observed_attacked > replicas_) {
    throw std::invalid_argument("observed attacked count out of range");
  }
  const auto p = pmf(bots)[static_cast<std::size_t>(observed_attacked)];
  // Observations in (numerically) impossible tails still need a finite
  // ordering for the argmax search.
  return std::log(std::max(p, 1e-300));
}

std::vector<double> attacked_count_pmf_exact(const AssignmentPlan& plan,
                                             Count bots,
                                             std::size_t max_group_states) {
  return AttackedCountLikelihood(plan, max_group_states).pmf(bots);
}

std::vector<double> attacked_count_pmf_independent(const AssignmentPlan& plan,
                                                   Count bots) {
  const Count N = plan.total_clients();
  const auto P = static_cast<Count>(plan.replica_count());
  if (bots < 0 || bots > N) {
    throw std::invalid_argument(
        "attacked_count_pmf_independent: bots out of range");
  }
  // Poisson-binomial over per-replica attack probabilities 1 - q_i.
  std::vector<double> pmf(static_cast<std::size_t>(P) + 1, 0.0);
  pmf[0] = 1.0;
  std::size_t filled = 1;
  for (const Count x : plan.counts()) {
    const double q_clean = util::prob_no_bots(N, bots, x);
    const double p_attacked = 1.0 - q_clean;
    for (std::size_t k = filled; k-- > 0;) {
      const double v = pmf[k];
      pmf[k] = v * q_clean;
      pmf[k + 1] += v * p_attacked;
    }
    ++filled;
  }
  return pmf;
}

std::vector<double> attacked_count_pmf_monte_carlo(const AssignmentPlan& plan,
                                                   Count bots,
                                                   std::size_t samples,
                                                   std::uint64_t seed) {
  const auto P = plan.replica_count();
  std::vector<double> pmf(P + 1, 0.0);
  util::Rng rng(seed);
  for (std::size_t s = 0; s < samples; ++s) {
    const auto placement = rng.multivariate_hypergeometric(plan.counts(), bots);
    std::size_t attacked = 0;
    for (const Count b : placement) {
      if (b > 0) ++attacked;
    }
    pmf[attacked] += 1.0;
  }
  for (double& p : pmf) p /= static_cast<double>(samples);
  return pmf;
}

GaussianAttackedCountLikelihood::GaussianAttackedCountLikelihood(
    const AssignmentPlan& plan)
    : clients_(plan.total_clients()),
      replicas_(static_cast<Count>(plan.replica_count())) {
  for (const auto& g : group_sizes(plan)) {
    size_groups_.emplace_back(g.size, g.count);
  }
}

double GaussianAttackedCountLikelihood::log_likelihood(
    Count bots, Count observed_attacked) const {
  if (observed_attacked < 0 || observed_attacked > replicas_) {
    throw std::invalid_argument("observed attacked count out of range");
  }
  if (bots < 0 || bots > clients_) {
    throw std::invalid_argument("bots out of range");
  }
  double mu = 0.0;
  double var = 0.0;
  for (const auto& [size, mult] : size_groups_) {
    const double q = util::prob_no_bots(clients_, bots, size);
    mu += static_cast<double>(mult) * (1.0 - q);
    var += static_cast<double>(mult) * q * (1.0 - q);
  }
  const double x = static_cast<double>(observed_attacked);
  const double sigma = std::sqrt(var);
  if (sigma < 1e-9) {
    // Degenerate: the count is (numerically) deterministic.
    return std::abs(x - mu) <= 0.5 ? 0.0 : -1e9 - std::abs(x - mu);
  }
  // Continuity-corrected bin probability Pr[x - 0.5 < X < x + 0.5] via the
  // normal cdf; at the boundary x = P this is Pr[X > P - 0.5], which is
  // increasing in M — reproducing the MLE's all-attacked degeneracy.
  auto cdf = [&](double v) {
    return 0.5 * std::erfc(-(v - mu) / (sigma * std::sqrt(2.0)));
  };
  const double hi = x >= static_cast<double>(replicas_) ? 1.0 : cdf(x + 0.5);
  const double lo = x <= 0.0 ? 0.0 : cdf(x - 0.5);
  return std::log(std::max(hi - lo, 1e-300));
}

double attacked_count_log_likelihood(const AssignmentPlan& plan, Count bots,
                                     Count observed_attacked) {
  const auto P = static_cast<Count>(plan.replica_count());
  if (observed_attacked < 0 || observed_attacked > P) {
    throw std::invalid_argument("observed attacked count out of range");
  }
  std::vector<double> pmf;
  try {
    pmf = attacked_count_pmf_exact(plan, bots);
  } catch (const std::invalid_argument&) {
    pmf = attacked_count_pmf_independent(plan, bots);
  }
  const double p = pmf[static_cast<std::size_t>(observed_attacked)];
  return std::log(std::max(p, 1e-300));
}

}  // namespace shuffledef::core
