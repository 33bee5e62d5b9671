#include "cloudsim/fault.h"

#include <stdexcept>

#include "util/validation.h"

namespace shuffledef::cloudsim {

bool FaultConfig::active() const {
  return data_loss_prob > 0.0 || ctrl_loss_prob > 0.0 ||
         data_dup_prob > 0.0 || ctrl_dup_prob > 0.0 ||
         !replica_crash_times_s.empty() || provision_delay_factor != 1.0 ||
         provision_failure_prob > 0.0 || !link_flaps.empty();
}

std::vector<std::string> FaultConfig::violations(
    const std::string& prefix) const {
  std::vector<std::string> out;
  auto check_prob = [&](double p, const char* what) {
    if (!(p >= 0.0) || p > 1.0) {
      out.push_back(prefix + what + " must be a probability in [0, 1]");
    }
  };
  check_prob(data_loss_prob, "data_loss_prob");
  check_prob(ctrl_loss_prob, "ctrl_loss_prob");
  check_prob(data_dup_prob, "data_dup_prob");
  check_prob(ctrl_dup_prob, "ctrl_dup_prob");
  check_prob(provision_failure_prob, "provision_failure_prob");
  if (!(provision_delay_factor > 0.0)) {
    out.push_back(prefix + "provision_delay_factor must be > 0");
  }
  for (const auto& flap : link_flaps) {
    if (flap.start_s < 0.0 || flap.duration_s < 0.0) {
      out.push_back(prefix + "link-flap windows must be non-negative");
      break;
    }
  }
  return out;
}

FaultInjector::FaultInjector(FaultConfig config, util::Rng rng)
    : config_(std::move(config)), rng_(rng) {
  util::throw_if_invalid("FaultConfig", config_.violations());
}

void FaultInjector::set_registry(obs::Registry* registry) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.drops_data = registry->counter(kMetricFaultDropsData);
  metrics_.drops_ctrl = registry->counter(kMetricFaultDropsCtrl);
  metrics_.drops_flap = registry->counter(kMetricFaultDropsFlap);
  metrics_.duplicated = registry->counter(kMetricFaultDuplicated);
  metrics_.crashes_executed = registry->counter(kMetricFaultCrashesExecuted);
  metrics_.provisions_failed = registry->counter(kMetricFaultProvisionsFailed);
  metrics_.provisions_delayed =
      registry->counter(kMetricFaultProvisionsDelayed);
}

bool FaultInjector::in_flap(const Message& msg, bool priority,
                            double now) const {
  for (const auto& flap : config_.link_flaps) {
    if (now < flap.start_s || now >= flap.start_s + flap.duration_s) continue;
    if (priority ? !flap.affects_control : !flap.affects_data) continue;
    if (flap.node != kInvalidNode && flap.node != msg.src &&
        flap.node != msg.dst) {
      continue;
    }
    return true;
  }
  return false;
}

FaultAction FaultInjector::on_send(const Message& msg, bool priority,
                                   double now) {
  if (in_flap(msg, priority, now)) {
    ++stats_.drops_flap;
    metrics_.drops_flap.inc();
    return FaultAction::kDrop;
  }
  const double loss =
      priority ? config_.ctrl_loss_prob : config_.data_loss_prob;
  // Draw unconditionally (uniform(), not bernoulli(), which short-circuits
  // at p == 0) so the fault stream's alignment does not depend on which
  // probabilities happen to be zero: a config that only dups control
  // traffic consumes the same number of draws per message as one that also
  // drops data traffic.
  const bool drop = rng_.uniform() < loss;
  const double dup = priority ? config_.ctrl_dup_prob : config_.data_dup_prob;
  const bool duplicate = rng_.uniform() < dup;
  if (drop) {
    ++(priority ? stats_.drops_ctrl : stats_.drops_data);
    (priority ? metrics_.drops_ctrl : metrics_.drops_data).inc();
    return FaultAction::kDrop;
  }
  if (duplicate) {
    ++stats_.duplicated;
    metrics_.duplicated.inc();
    return FaultAction::kDuplicate;
  }
  return FaultAction::kDeliver;
}

double FaultInjector::provision_delay(double base_delay_s) {
  if (config_.provision_delay_factor != 1.0) {
    ++stats_.provisions_delayed;
    metrics_.provisions_delayed.inc();
  }
  return base_delay_s * config_.provision_delay_factor;
}

bool FaultInjector::provision_fails() {
  const bool fails = rng_.bernoulli(config_.provision_failure_prob);
  if (fails) {
    ++stats_.provisions_failed;
    metrics_.provisions_failed.inc();
  }
  return fails;
}

std::int64_t FaultInjector::pick_index(std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("FaultInjector: pick from empty");
  return rng_.uniform_int(0, n - 1);
}

}  // namespace shuffledef::cloudsim
