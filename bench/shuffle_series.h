// Shared runner for the multi-round shuffling figures (8, 9, 10).
//
// One simulation = the paper's §VI-A setup: the benign population is online
// when the attack starts, persistent bots ramp in as a Poisson stream of
// 5000 per 3 shuffles (capped at the configured total), the controller
// estimates M by MLE each round (Gaussian engine at these replica counts)
// and plans with the greedy algorithm over a fixed replica budget.
//
// Repetitions fan out across threads via sim::SweepRunner — every bench
// exposes the shared --jobs flag (add_jobs_flag) and `jobs = 1` reproduces
// the historical serial output bit for bit (see sweep.h's determinism
// contract).  MetricsExport packages the --metrics-csv/--metrics-json
// snapshot-export flags every figure bench offers.
#pragma once

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "sim/experiment.h"
#include "sim/shuffle_sim.h"
#include "sim/sweep.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"

namespace shuffledef::bench {

/// The shared cross-bench concurrency flag.  Benches whose tables measure
/// wall-clock per cell (fig05, fig06) default to 1 so timings stay clean;
/// the stochastic sweep benches default to hardware concurrency (0).
inline std::int64_t& add_jobs_flag(util::Flags& flags,
                                   std::int64_t default_jobs = 0) {
  return flags.add_int(
      "jobs", default_jobs,
      "concurrent sweep cells (0 = hardware concurrency, 1 = serial; "
      "results are bit-identical at every setting)");
}

/// --metrics-csv/--metrics-json: write a MetricsSnapshot chosen by the
/// bench (a representative run, or the sweep-merged aggregate) to disk.
/// --bench-json is an alias for --metrics-json, except in a bench that
/// writes its own --bench-json record: that bench passes
/// `bench_json_alias = false` and owns the name.
class MetricsExport {
 public:
  void add_flags(util::Flags& flags, bool bench_json_alias = true) {
    csv_ = &flags.add_string("metrics-csv", "",
                             "write the bench's MetricsSnapshot as CSV here");
    json_ = &flags.add_string(
        "metrics-json", "", "write the bench's MetricsSnapshot as JSON here");
    if (bench_json_alias) {
      bench_json_ = &flags.add_string(
          "bench-json", "",
          "alias for --metrics-json (CI artifact convention)");
    }
  }

  [[nodiscard]] bool requested() const {
    return !csv_->empty() || !json_->empty() ||
           (bench_json_ != nullptr && !bench_json_->empty());
  }

  /// Calls `make_snapshot` only when one of the flags was given.
  void write_if_requested(
      const std::function<obs::MetricsSnapshot()>& make_snapshot) const {
    if (!requested()) return;
    const obs::MetricsSnapshot snapshot = make_snapshot();
    if (!csv_->empty()) {
      std::ofstream out(*csv_);
      obs::write_csv(snapshot, out);
      std::cout << "metrics CSV written to " << *csv_ << "\n";
    }
    if (!json_->empty()) {
      std::ofstream out(*json_);
      obs::write_json(snapshot, out);
      std::cout << "metrics JSON written to " << *json_ << "\n";
    }
    if (bench_json_ != nullptr && !bench_json_->empty()) {
      std::ofstream out(*bench_json_);
      obs::write_json(snapshot, out);
      std::cout << "metrics JSON written to " << *bench_json_ << "\n";
    }
  }

 private:
  std::string* csv_ = nullptr;
  std::string* json_ = nullptr;
  std::string* bench_json_ = nullptr;
};

struct SeriesPoint {
  core::Count benign = 10000;
  core::Count bots = 100000;
  core::Count replicas = 1000;
  double bot_rate_per_round = 5000.0 / 3.0;
  double benign_rate_per_round = 100.0 / 3.0;
  bool bots_all_at_start = false;
  double target_fraction = 0.95;
  core::Count max_rounds = 2000;
};

inline sim::ShuffleSimConfig make_sim_config(const SeriesPoint& pt,
                                             std::uint64_t seed,
                                             obs::Registry* registry = nullptr) {
  sim::ShuffleSimConfig cfg;
  // Benign clients are online when the attack begins; the configured
  // trickle only tops the population up to the same total (see DESIGN.md §6).
  cfg.benign = {.initial = pt.benign,
                .rate = pt.benign_rate_per_round,
                .total_cap = pt.benign};
  cfg.bots = {.initial = pt.bots_all_at_start ? pt.bots : 0,
              .rate = pt.bots_all_at_start ? 0.0 : pt.bot_rate_per_round,
              .total_cap = pt.bots};
  cfg.controller.planner = "greedy";
  cfg.controller.replicas = pt.replicas;
  cfg.controller.use_mle = true;
  cfg.controller.mle.engine = core::LikelihoodEngine::kGaussian;
  cfg.target_fraction = pt.target_fraction;
  cfg.max_rounds = pt.max_rounds;
  cfg.seed = seed;
  cfg.registry = registry;
  return cfg;
}

/// Mean (with CI) number of shuffles to save `fraction` of the benign
/// population.  Runs that never reach the target count as max_rounds.
inline util::Summary shuffles_to_save(const SeriesPoint& pt, double fraction,
                                      int reps, std::uint64_t base_seed,
                                      std::size_t jobs = 1) {
  return sim::repeat(
      reps, base_seed,
      [&](std::uint64_t seed) {
        auto cfg = make_sim_config(pt, seed);
        cfg.target_fraction = std::max(pt.target_fraction, fraction);
        const auto result = sim::ShuffleSimulator(cfg).run();
        const auto shuffles = result.shuffles_to_fraction(fraction);
        return static_cast<double>(shuffles.value_or(pt.max_rounds));
      },
      jobs);
}

/// Wall/scheduling stats of one campaign sweep (all wall-clock-derived:
/// outside the determinism contract).
struct CampaignStats {
  std::size_t cells = 0;
  std::size_t cells_stolen = 0;
  double wall_seconds = 0.0;
  double setup_seconds = 0.0;
  double cell_wall_p50_s = 0.0;
  double cell_wall_p90_s = 0.0;
  double cell_wall_max_s = 0.0;
};

/// A whole figure grid as ONE sweep: every (point, rep) cell is submitted
/// to a single SweepRunner job, so the fan-out sees pts.size() * reps cells
/// instead of pts.size() sequential `reps`-cell sweeps — the difference
/// between a 10-cell tail per grid point and one big work-stealing pool.
/// Per-cell seeds reproduce the per-point splitmix64 chains exactly
/// (cell (p, r) gets chain(seed_of(pts[p]))[r]), and summaries accumulate
/// in rep order, so the output is bit-identical to calling
/// shuffles_to_save_multi point by point, at every jobs setting.  Cost
/// hints start the biggest populations first; scheduling cannot change an
/// output bit (see sweep.h).  Returns one vector of summaries per point,
/// ordered by `fractions`.
inline std::vector<std::vector<util::Summary>> shuffles_campaign(
    const std::vector<SeriesPoint>& pts, const std::vector<double>& fractions,
    int reps, const std::function<std::uint64_t(const SeriesPoint&)>& seed_of,
    std::size_t jobs, CampaignStats* stats = nullptr) {
  const std::size_t n_reps = static_cast<std::size_t>(reps);
  sim::SweepPlan plan;
  plan.cell_count = pts.size() * n_reps;
  plan.seeds.reserve(plan.cell_count);
  plan.cost_hints.reserve(plan.cell_count);
  for (const auto& pt : pts) {
    std::uint64_t state = seed_of(pt);
    const auto hint = static_cast<double>(pt.benign + pt.bots);
    for (std::size_t r = 0; r < n_reps; ++r) {
      plan.seeds.push_back(util::splitmix64(state));
      plan.cost_hints.push_back(hint);
    }
  }
  sim::SweepRunner runner(sim::SweepConfig{.jobs = jobs});
  const auto sweep = runner.run(plan, [&](const sim::SweepCell& cell) {
    const auto& pt = pts[cell.index / n_reps];
    auto cfg = make_sim_config(pt, cell.seed, cell.registry);
    double target = pt.target_fraction;
    for (const double f : fractions) target = std::max(target, f);
    cfg.target_fraction = target;
    const auto result = sim::ShuffleSimulator(cfg).run();
    std::vector<double> shuffles;
    shuffles.reserve(fractions.size());
    for (const double f : fractions) {
      shuffles.push_back(static_cast<double>(
          result.shuffles_to_fraction(f).value_or(pt.max_rounds)));
    }
    return shuffles;
  });
  if (stats != nullptr) {
    stats->cells = plan.cell_count;
    stats->cells_stolen = sweep.cells_stolen;
    stats->wall_seconds = sweep.wall_seconds;
    stats->setup_seconds = sweep.setup_seconds;
    stats->cell_wall_p50_s = sweep.cell_wall_p50_s;
    stats->cell_wall_p90_s = sweep.cell_wall_p90_s;
    stats->cell_wall_max_s = sweep.cell_wall_max_s;
  }
  std::vector<std::vector<util::Summary>> out;
  out.reserve(pts.size());
  for (std::size_t p = 0; p < pts.size(); ++p) {
    std::vector<util::Accumulator> accs(fractions.size());
    for (std::size_t r = 0; r < n_reps; ++r) {
      const auto& shuffles = sweep.value(p * n_reps + r);  // rethrows failures
      for (std::size_t i = 0; i < fractions.size(); ++i) {
        accs[i].add(shuffles[i]);
      }
    }
    std::vector<util::Summary> summaries;
    summaries.reserve(accs.size());
    for (const auto& a : accs) summaries.push_back(a.summary());
    out.push_back(std::move(summaries));
  }
  return out;
}

/// Several thresholds from the *same* simulation runs (one sim per rep,
/// reps fanned across `jobs` threads, summaries accumulated in rep order).
inline std::vector<util::Summary> shuffles_to_save_multi(
    const SeriesPoint& pt, const std::vector<double>& fractions, int reps,
    std::uint64_t base_seed, std::size_t jobs = 1) {
  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = jobs, .base_seed = base_seed});
  const auto sweep = runner.run(
      static_cast<std::size_t>(reps),
      [&](const sim::SweepCell& cell) {
        auto cfg = make_sim_config(pt, cell.seed, cell.registry);
        double target = pt.target_fraction;
        for (const double f : fractions) target = std::max(target, f);
        cfg.target_fraction = target;
        const auto result = sim::ShuffleSimulator(cfg).run();
        std::vector<double> shuffles;
        shuffles.reserve(fractions.size());
        for (const double f : fractions) {
          shuffles.push_back(static_cast<double>(
              result.shuffles_to_fraction(f).value_or(pt.max_rounds)));
        }
        return shuffles;
      });
  std::vector<util::Accumulator> accs(fractions.size());
  for (std::size_t r = 0; r < sweep.cells.size(); ++r) {
    const auto& shuffles = sweep.value(r);  // rethrows a failed rep
    for (std::size_t i = 0; i < fractions.size(); ++i) accs[i].add(shuffles[i]);
  }
  std::vector<util::Summary> out;
  out.reserve(accs.size());
  for (const auto& a : accs) out.push_back(a.summary());
  return out;
}

}  // namespace shuffledef::bench
