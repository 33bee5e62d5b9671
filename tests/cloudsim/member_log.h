// Per-member records of a ClientSwarm, collected through its observer.
// Attach before the first run: members start from scheduled events, so the
// log then holds every page load, timeout and migration.
#pragma once

#include <cstdint>
#include <vector>

#include "cloudsim/client_swarm.h"

namespace shuffledef::cloudsim {

class MemberLog {
 public:
  explicit MemberLog(ClientSwarm& swarm) {
    swarm.set_observer([this](const MemberEvent& e) { events_.push_back(e); });
  }
  MemberLog(const MemberLog&) = delete;
  MemberLog& operator=(const MemberLog&) = delete;

  /// Every event, in event order.
  [[nodiscard]] const std::vector<MemberEvent>& events() const {
    return events_;
  }

  /// Member `member`'s events of `kind`, in event order.
  [[nodiscard]] std::vector<MemberEvent> of(std::int32_t member,
                                            MemberEvent::Kind kind) const {
    std::vector<MemberEvent> out;
    for (const auto& e : events_) {
      if (e.member == member && e.kind == kind) out.push_back(e);
    }
    return out;
  }

  /// Events of `kind` over members [0, end), in event order.
  [[nodiscard]] std::vector<MemberEvent> below(std::int32_t end,
                                               MemberEvent::Kind kind) const {
    std::vector<MemberEvent> out;
    for (const auto& e : events_) {
      if (e.member < end && e.kind == kind) out.push_back(e);
    }
    return out;
  }

 private:
  std::vector<MemberEvent> events_;
};

}  // namespace shuffledef::cloudsim
