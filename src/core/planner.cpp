#include "core/planner.h"

#include <stdexcept>

#include "core/algorithm_one.h"
#include "core/even_planner.h"
#include "core/greedy_planner.h"
#include "core/separable_dp.h"

namespace shuffledef::core {

std::unique_ptr<Planner> make_planner(const std::string& name,
                                      const PlannerOptions& options) {
  if (name == "even") return std::make_unique<EvenPlanner>();
  if (name == "greedy") return std::make_unique<GreedyPlanner>();
  if (name == "dp") return std::make_unique<SeparableDpPlanner>();
  if (name == "algorithm1") {
    return std::make_unique<AlgorithmOnePlanner>(AlgorithmOneOptions{
        .threads = options.threads, .registry = options.registry});
  }
  throw std::invalid_argument("make_planner: unknown planner '" + name +
                              "' (expected even|greedy|dp|algorithm1)");
}

}  // namespace shuffledef::core
