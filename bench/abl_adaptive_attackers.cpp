// Ablation — adaptive adversaries vs controller variants.
//
// The paper's §VII evasive strategies all assume the bots' address
// knowledge survives a shuffle.  The adaptive tier drops that assumption:
// "coupon-collector" bots (Fleck et al., arXiv:1712.01102) must re-scan the
// replica set after every shuffle before their attacks land again, and
// "churn" bots leave and re-arrive around shuffles.  This campaign runs each
// adversary against three controller variants — greedy, DP, and a
// cost-aware greedy that declines rounds whose priced net save is
// unprofitable (Zhou et al., arXiv:1903.10102) — in the per-client
// simulator, the engine that keeps the per-bot state these adversaries
// need.  The interesting outputs: the safe fraction each combination ends
// with, the delivered attack intensity, and how many rounds the cost-aware
// controller refused to pay for.
#include <algorithm>
#include <array>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_main.h"
#include "shuffle_series.h"
#include "sim/client_sim.h"
#include "util/flags.h"
#include "util/table.h"

using namespace shuffledef;

namespace {

struct ControllerRow {
  const char* label;
  const char* planner;
  double migration_cost_weight;
  double min_expected_net_save;
};

struct AdversaryRow {
  const char* label;
  sim::StrategyParams params;
};

/// Common per-run outcome: [safe %, mean active attackers / round,
/// declined rounds, executed shuffles].
using Outcome = std::array<double, 4>;

core::ControllerConfig controller_config(const ControllerRow& c) {
  core::ControllerConfig config;
  config.planner = c.planner;
  config.use_mle = true;
  config.migration_cost_weight = c.migration_cost_weight;
  config.min_expected_net_save = c.min_expected_net_save;
  return config;
}

int run_bench(int argc, char** argv) {
  util::Flags flags("abl_adaptive_attackers",
                    "Ablation: adaptive adversaries vs controller variants "
                    "in the client-level simulator");
  auto& benign = flags.add_int("benign", 2000, "benign clients");
  auto& bots = flags.add_int("bots", 100, "bots");
  auto& rounds = flags.add_int("rounds", 60, "shuffle rounds to simulate");
  auto& replicas = flags.add_int("replicas", 50, "shuffling replicas (fixed P)");
  auto& reps = flags.add_int("reps", 5, "repetitions");
  auto& seed = flags.add_int("seed", 9099, "base RNG seed");
  auto& cost_weight = flags.add_double(
      "cost-weight", 2000.0, "migration_cost_weight of the cost-aware row");
  auto& min_net = flags.add_double(
      "min-net", 1.0, "min_expected_net_save of the cost-aware row");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags);
  flags.parse(argc, argv);
  bench::require_reps(reps);
  bench::require_at_least_one("benign", benign);
  bench::require_at_least_one("bots", bots);
  bench::require_at_least_one("rounds", rounds);
  bench::require_at_least("replicas", replicas, 2);

  const auto make_params = [](const char* name,
                              core::StrategyOptions options = {}) {
    sim::StrategyParams params;
    params.strategy = name;
    params.options = options;
    return params;
  };
  const std::vector<AdversaryRow> adversaries = {
      {"always-on", make_params("always-on")},
      {"coupon-collector k=4", make_params("coupon-collector",
                                           {.probes_per_round = 4})},
      {"churn d=0.3", make_params("churn", {.new_ip_probability = 0.5,
                                            .depart_probability = 0.3,
                                            .rejoin_probability = 0.5})},
  };
  const std::vector<ControllerRow> controllers = {
      {"greedy", "greedy", 0.0, 0.0},
      {"dp", "dp", 0.0, 0.0},
      {"greedy cost-aware", "greedy", cost_weight, min_net},
  };
  // Rows the verdict reads by position.
  constexpr std::size_t kAlwaysOn = 0, kCoupon = 1;
  constexpr std::size_t kGreedy = 0, kCostAware = 2;

  // Grid: controller x adversary x rep, flattened for one shared SweepRunner
  // fan-out (bit-identical at any --jobs; seeds key on the rep).
  const std::size_t n_reps = static_cast<std::size_t>(reps);
  const std::size_t n_cells = controllers.size() * adversaries.size();
  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  const auto sweep = runner.run(
      n_cells * n_reps, [&](const sim::SweepCell& cell) -> Outcome {
        const std::size_t ci = cell.index / (adversaries.size() * n_reps);
        const std::size_t ai = (cell.index / n_reps) % adversaries.size();
        const std::size_t r = cell.index % n_reps;
        sim::ClientSimConfig cfg;
        cfg.benign = benign;
        cfg.bots = bots;
        cfg.strategy = adversaries[ai].params;
        cfg.controller = controller_config(controllers[ci]);
        cfg.controller.replicas = replicas;
        cfg.rounds = rounds;
        cfg.seed =
            static_cast<std::uint64_t>(seed) + static_cast<std::uint64_t>(r);
        cfg.registry = cell.registry;
        const auto result = sim::ClientLevelSimulator(cfg).run();
        double intensity = 0.0;
        double declined = 0.0;
        for (const auto& round : result.rounds) {
          intensity += static_cast<double>(round.active_attackers);
          if (round.shuffle_declined) declined += 1.0;
        }
        const auto n = static_cast<double>(result.rounds.size());
        return Outcome{100.0 * result.final_safe_fraction(),
                       n > 0 ? intensity / n : 0.0, declined, n - declined};
      });

  util::Table table("client-level sim — adaptive adversaries vs controllers (" +
                    std::to_string(benign) + " benign, " +
                    std::to_string(bots) + " bots, P=" +
                    std::to_string(replicas) + ", " + std::to_string(rounds) +
                    " rounds, " + std::to_string(reps) + " reps, 95% CI)");
  table.set_headers({"controller", "adversary", "benign safe %",
                     "attack intensity (bots/round)", "rounds declined",
                     "shuffles executed"});
  // Means per [controller][adversary], for the verdict.
  std::vector<std::vector<Outcome>> mean(
      controllers.size(), std::vector<Outcome>(adversaries.size()));
  for (std::size_t ci = 0; ci < controllers.size(); ++ci) {
    for (std::size_t ai = 0; ai < adversaries.size(); ++ai) {
      util::Accumulator safe, intensity, declined, executed;
      for (std::size_t r = 0; r < n_reps; ++r) {
        const auto& vals =
            sweep.value((ci * adversaries.size() + ai) * n_reps + r);
        safe.add(vals[0]);
        intensity.add(vals[1]);
        declined.add(vals[2]);
        executed.add(vals[3]);
      }
      const auto sp = safe.summary();
      const auto in = intensity.summary();
      const auto de = declined.summary();
      const auto ex = executed.summary();
      mean[ci][ai] = {sp.mean, in.mean, de.mean, ex.mean};
      table.add_row({controllers[ci].label, adversaries[ai].label,
                     util::fmt_ci(sp.mean, sp.ci_half_width(0.95), 1),
                     util::fmt_ci(in.mean, in.ci_half_width(0.95), 1),
                     util::fmt_ci(de.mean, de.ci_half_width(0.95), 1),
                     util::fmt_ci(ex.mean, ex.ci_half_width(0.95), 1)});
    }
  }
  table.print_with_csv();
  metrics_export.write_if_requested([&] { return sweep.metrics; });
  const auto row = [&](std::size_t ci, std::size_t ai) {
    return std::string(controllers[ci].label) + " " + adversaries[ai].label;
  };
  bench::Verdict verdict;
  for (std::size_t ci = 0; ci < controllers.size(); ++ci) {
    verdict.check(mean[ci][kCoupon][1] < mean[ci][kAlwaysOn][1],
                  "coupon-collector intensity is below always-on's " +
                      util::fmt(mean[ci][kAlwaysOn][1], 1),
                  row(ci, kCoupon), mean[ci][kCoupon][1]);
  }
  double most_declined = 0.0;
  for (const Outcome& m : mean[kCostAware]) {
    most_declined = std::max(most_declined, m[2]);
  }
  verdict.check(most_declined > 0.0,
                "the cost-aware controller declines some round (max rounds "
                "declined)",
                controllers[kCostAware].label, most_declined);
  for (std::size_t ai = 0; ai < adversaries.size(); ++ai) {
    verdict.check(mean[kCostAware][ai][0] >= mean[kGreedy][ai][0] - 1.0,
                  "declining keeps the safe % within 1 point of greedy's " +
                      util::fmt(mean[kGreedy][ai][0], 1),
                  row(kCostAware, ai), mean[kCostAware][ai][0]);
  }
  std::cout << "Reproduction check: coupon-collector bots deliver a fraction "
               "of the always-on intensity while they re-scan; the cost-aware "
               "controller declines late, low-value rounds without giving up "
               "the safe fraction: " << verdict.str() << "." << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
