// Authoritative DNS for the protected service (architecture step 1-2).
//
// Resolves a service name to one of the registered load balancers,
// round-robin (RFC 1794 style), so clients are spread across cloud domains.
// The paper assumes DNS itself is well-provisioned and out of attack scope.
// Services are interned ids (World::intern_service); lookups never hash a
// string on the message path.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "cloudsim/node.h"

namespace shuffledef::cloudsim {

class DnsServer final : public Node {
 public:
  DnsServer(World& world, std::string name);

  void register_load_balancer(const std::string& service, NodeId lb);
  void register_load_balancer(ServiceId service, NodeId lb);

  void on_message(const Message& msg) override;

  [[nodiscard]] std::uint64_t queries_served() const { return queries_; }

 private:
  struct ServiceRecord {
    std::vector<NodeId> load_balancers;
    std::size_t next = 0;  // round-robin cursor
  };
  std::unordered_map<ServiceId, ServiceRecord> records_;
  std::uint64_t queries_ = 0;
};

}  // namespace shuffledef::cloudsim
