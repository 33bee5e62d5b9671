// Planner interface: given a ShuffleProblem, produce an AssignmentPlan.
//
// Implementations (all from the paper):
//   EvenPlanner       — naive even split (Figure 4 baseline)
//   GreedyPlanner     — MOTAG greedy heuristic, the runtime algorithm
//   AlgorithmOnePlanner — the paper's Algorithm 1 dynamic program
//   SeparableDpPlanner  — exact optimal fixed-plan DP in O(P * N^2)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/plan.h"
#include "core/types.h"

namespace shuffledef::obs {
class Registry;
}

namespace shuffledef::core {

class Planner {
 public:
  virtual ~Planner() = default;

  /// Compute an assignment plan for the problem.  Must return a plan that
  /// validates against `problem` (sizes >= 0, sums to N, P entries).
  [[nodiscard]] virtual AssignmentPlan plan(const ShuffleProblem& problem) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Fingerprint over the options that affect this planner's output, for
  /// result caches keyed by (name, problem, fingerprint).  Planners whose
  /// output depends only on the problem keep the default 0; AlgorithmOne
  /// returns AlgorithmOneOptions::fingerprint() so e.g. a truncated and an
  /// exact planner never share cache entries.
  [[nodiscard]] virtual std::uint64_t options_fingerprint() const { return 0; }
};

/// Construction knobs shared by every planner factory call.  A struct (not
/// positional parameters) so future knobs extend without breaking call
/// sites; fields irrelevant to a given planner are ignored.
struct PlannerOptions {
  /// Worker threads for planners with a parallel solve (currently only
  /// "algorithm1"; bit-identical at any setting): 1 = serial, 0 = the
  /// shared process-wide pool, k > 1 = a private pool of k threads.
  Count threads = 0;
  /// AlgorithmOne accelerations (see AlgorithmOneOptions): truncate the
  /// hypergeometric tail below this pmf (0 = exact) and cap the per-level
  /// search over a (0 = search all).
  double tail_epsilon = 0.0;
  Count a_cap = 0;
  /// AlgorithmOne exchangeability symmetry cut (see AlgorithmOneOptions):
  /// evaluate split candidates a and n - a from one hypergeometric walk.
  bool symmetry_cut = true;
  /// Observability sink for planner counters/spans (nullptr = none).
  obs::Registry* registry = nullptr;
};

/// Factory by name ("even", "greedy", "dp", "algorithm1"); throws on unknown.
std::unique_ptr<Planner> make_planner(const std::string& name,
                                      const PlannerOptions& options = {});

}  // namespace shuffledef::core
