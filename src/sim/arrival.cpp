#include "sim/arrival.h"

#include <algorithm>

#include "util/validation.h"

namespace shuffledef::sim {

std::vector<std::string> ArrivalConfig::violations(
    const std::string& prefix) const {
  std::vector<std::string> out;
  if (initial < 0) out.push_back(prefix + "initial must be >= 0");
  if (rate < 0.0) out.push_back(prefix + "rate must be >= 0");
  if (total_cap < 0) out.push_back(prefix + "total_cap must be >= 0");
  if (initial > total_cap && initial >= 0 && total_cap >= 0) {
    out.push_back(prefix + "initial exceeds total_cap");
  }
  return out;
}

void ArrivalConfig::validate() const {
  util::throw_if_invalid("ArrivalConfig", violations());
}

ArrivalProcess::ArrivalProcess(ArrivalConfig config, util::Rng rng)
    : config_(config), rng_(rng) {
  config_.validate();
}

Count ArrivalProcess::next_round() {
  Count arrivals = 0;
  if (first_round_) {
    arrivals += config_.initial;
    first_round_ = false;
  }
  if (config_.rate > 0.0) {
    arrivals += rng_.poisson(config_.rate);
  }
  arrivals = std::min(arrivals, config_.total_cap - arrived_);
  arrived_ += arrivals;
  return arrivals;
}

}  // namespace shuffledef::sim
