#include "sim/strategy.h"

#include <algorithm>

#include "util/validation.h"

namespace shuffledef::sim {

std::vector<std::string> StrategyParams::violations(
    const std::string& prefix) const {
  std::vector<std::string> out;
  const auto& names = core::strategy_names();
  if (std::find(names.begin(), names.end(), strategy) == names.end()) {
    std::string known;
    for (const auto& n : names) {
      if (!known.empty()) known += "|";
      known += n;
    }
    out.push_back(prefix + "unknown strategy '" + strategy + "' (expected " +
                  known + ")");
  }
  // Option violations keep the pre-registry field-level messages (no extra
  // "options." segment), so existing reports and tests read unchanged.
  for (auto& v : options.violations(prefix)) out.push_back(std::move(v));
  return out;
}

void StrategyParams::validate() const {
  util::throw_if_invalid("StrategyParams", violations());
}

}  // namespace shuffledef::sim
