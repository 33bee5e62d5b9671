// Ablation — Theorem 1 and replica provisioning (paper §V).
//
// Tables: (a) the all-attacked threshold M* = log_{1-1/P}(1/P) across P,
// with the expected clean-replica count just above/below it, verified by
// simulation; (b) the minimal replica budget that keeps the MLE
// well-conditioned for a given bot count.
#include <iostream>

#include "bench_main.h"
#include "core/provisioning.h"
#include "shuffle_series.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"

using namespace shuffledef;
using core::Count;

namespace {

/// Empirical mean count of clean replicas when M bots land uniformly on P
/// replicas (each bot picks a replica independently, the theorem's model).
double simulated_clean(Count replicas, Count bots, int reps,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  util::Accumulator acc;
  std::vector<bool> hit(static_cast<std::size_t>(replicas));
  for (int r = 0; r < reps; ++r) {
    std::fill(hit.begin(), hit.end(), false);
    for (Count b = 0; b < bots; ++b) {
      hit[static_cast<std::size_t>(rng.uniform_int(0, replicas - 1))] = true;
    }
    Count clean = 0;
    for (const bool h : hit) {
      if (!h) ++clean;
    }
    acc.add(static_cast<double>(clean));
  }
  return acc.mean();
}

int run_bench(int argc, char** argv) {
  util::Flags flags("abl_theorem1_provisioning",
                    "Ablation: Theorem 1 thresholds and provisioning");
  auto& reps = flags.add_int("reps", 300, "simulation reps per row");
  auto& jobs_flag = bench::add_jobs_flag(flags);
  bench::MetricsExport metrics_export;
  metrics_export.add_flags(flags);
  flags.parse(argc, argv);
  bench::require_reps(reps);

  util::Table t1("Theorem 1 — all-attacked threshold M* and E(X) around it");
  t1.set_headers({"replicas P", "threshold M*", "E(X) at M*",
                  "simulated clean at M*", "E(X) at 2*M*"});
  const std::vector<Count> replica_counts = {10, 50, 100, 500, 1000, 2000};
  // Each row's Monte-Carlo run seeds its own RNG from P alone, so the rows
  // fan out across --jobs threads with bit-identical results at any setting.
  sim::SweepRunner runner(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(jobs_flag)});
  const auto sweep =
      runner.run(replica_counts.size(), [&](const sim::SweepCell& cell) {
        const Count p = replica_counts[cell.index];
        const auto m =
            static_cast<Count>(core::all_attacked_bot_threshold(p));
        return simulated_clean(p, m, static_cast<int>(reps),
                               1000 + static_cast<std::uint64_t>(p));
      });
  for (std::size_t i = 0; i < replica_counts.size(); ++i) {
    const Count p = replica_counts[i];
    const double m_star = core::all_attacked_bot_threshold(p);
    const auto m = static_cast<Count>(m_star);
    t1.add_row({util::fmt(p), util::fmt(m_star, 1),
                util::fmt(core::expected_clean_replicas_uniform(p, m), 3),
                util::fmt(sweep.value(i), 3),
                util::fmt(core::expected_clean_replicas_uniform(p, 2 * m), 5)});
  }
  t1.print_with_csv();

  util::Table t2("Provisioning — minimal P with M <= log_{1-1/P}(1/P)");
  t2.set_headers({"bots M", "min replicas P", "E(clean) at that P"});
  for (const Count m : {100, 1000, 5000, 10000, 50000, 100000}) {
    const Count p = core::min_replicas_for_estimation(m);
    t2.add_row({util::fmt(m), util::fmt(p),
                util::fmt(core::expected_clean_replicas_uniform(p, m), 3)});
  }
  t2.print_with_csv();
  metrics_export.write_if_requested([&] { return sweep.metrics; });
  std::cout << "Reproduction check: E(X) crosses 1 at M*, matches "
               "simulation, and the provisioning rule keeps E(clean) >= 1."
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
