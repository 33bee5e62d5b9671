#include "cloudsim/qos.h"

#include <limits>

#include "util/validation.h"

namespace shuffledef::cloudsim {

const char* qos_phase_name(QosPhase phase) noexcept {
  switch (phase) {
    case QosPhase::kNormal: return "normal";
    case QosPhase::kOverload: return "overload";
  }
  return "?";
}

std::vector<std::string> QosConfig::violations(const std::string& prefix) const {
  std::vector<std::string> out;
  if (!(report_interval_s > 0.0)) {
    out.push_back(prefix + "report_interval_s must be > 0");
  }
  if (!(latency_alpha > 0.0) || latency_alpha > 1.0) {
    out.push_back(prefix + "latency_alpha must be in (0, 1]");
  }
  if (!(overload_latency_s > 0.0)) {
    out.push_back(prefix + "overload_latency_s must be > 0");
  }
  if (!(overload_queue_s > 0.0)) {
    out.push_back(prefix + "overload_queue_s must be > 0");
  }
  if (start_fraction < 0.0 || start_fraction > 1.0) {
    out.push_back(prefix + "start_fraction must be in [0, 1]");
  }
  if (stop_fraction < 0.0) {
    out.push_back(prefix + "stop_fraction must be >= 0");
  }
  if (stop_fraction >= start_fraction) {
    // The memec start/stop pair only de-flaps when the exit threshold sits
    // strictly below the entry threshold.
    out.push_back(prefix +
                  "stop_fraction must be strictly below start_fraction");
  }
  if (hysteresis_s < 0.0) {
    out.push_back(prefix + "hysteresis_s must be >= 0");
  }
  if (max_concurrent_remaps < 0) {
    out.push_back(prefix + "max_concurrent_remaps must be >= 0");
  }
  if (max_autoscale_replicas < 1) {
    out.push_back(prefix + "max_autoscale_replicas must be >= 1");
  }
  if (reserve_spares < 0) {
    out.push_back(prefix + "reserve_spares must be >= 0");
  }
  return out;
}

void QosConfig::validate() const {
  util::throw_if_invalid("QosConfig", violations());
}

QosPhaseMachine::QosPhaseMachine(const QosConfig& config) : config_(config) {
  config_.validate();
  last_switch_at_ = -std::numeric_limits<double>::infinity();
}

std::optional<QosPhase> QosPhaseMachine::update(double now,
                                                std::int32_t overloaded,
                                                std::int32_t total) {
  if (now - last_switch_at_ < config_.hysteresis_s) return std::nullopt;
  const auto frac = [total](double f) {
    return f * static_cast<double>(total);
  };
  QosPhase next = phase_;
  if (phase_ == QosPhase::kNormal &&
      static_cast<double>(overloaded) > frac(config_.start_fraction)) {
    next = QosPhase::kOverload;
  } else if (phase_ == QosPhase::kOverload &&
             static_cast<double>(overloaded) < frac(config_.stop_fraction)) {
    next = QosPhase::kNormal;
  }
  if (next == phase_) return std::nullopt;
  phase_ = next;
  last_switch_at_ = now;
  transitions_.push_back(QosPhaseTransition{now, next, overloaded, total});
  return next;
}

}  // namespace shuffledef::cloudsim
