// Planner interface: given a ShuffleProblem, produce an AssignmentPlan.
//
// Implementations (all from the paper):
//   EvenPlanner       — naive even split (Figure 4 baseline)
//   GreedyPlanner     — MOTAG greedy heuristic, the runtime algorithm
//   AlgorithmOnePlanner — the paper's Algorithm 1 dynamic program
//   SeparableDpPlanner  — exact optimal fixed-plan DP in O(P * N^2)
#pragma once

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
};

/// Construction knobs shared by every planner factory call.  A struct (not
/// positional parameters) so future knobs extend without breaking call
/// sites; fields irrelevant to a given planner are ignored.
struct PlannerOptions {
  /// Worker threads for planners with a parallel solve (currently only
  /// "algorithm1"; bit-identical at any setting): 1 = serial, 0 = the
  /// shared process-wide pool, k > 1 = a private pool of k threads.
  Count threads = 0;
  /// Observability sink for planner counters/spans (nullptr = none).
  obs::Registry* registry = nullptr;
};

/// Factory by name ("even", "greedy", "dp", "algorithm1"); throws on unknown.
std::unique_ptr<Planner> make_planner(const std::string& name,
                                      const PlannerOptions& options = {});

}  // namespace shuffledef::core
