#include "cloudsim/dns_server.h"

#include "util/logging.h"

namespace shuffledef::cloudsim {

DnsServer::DnsServer(World& world, std::string name)
    : Node(world, std::move(name)) {}

void DnsServer::register_load_balancer(const std::string& service, NodeId lb) {
  register_load_balancer(world().intern_service(service), lb);
}

void DnsServer::register_load_balancer(ServiceId service, NodeId lb) {
  records_[service].load_balancers.push_back(lb);
}

void DnsServer::on_message(const Message& msg) {
  if (msg.type != MessageType::kDnsQuery) return;
  const auto& query = payload_as<DnsQueryPayload>(msg);
  auto it = records_.find(query.service);
  if (it == records_.end() || it->second.load_balancers.empty()) {
    SDEF_LOG(Warn) << name() << ": no record for service id " << query.service;
    return;  // NXDOMAIN: silently dropped, client will time out
  }
  auto& record = it->second;
  const NodeId lb = record.load_balancers[record.next % record.load_balancers.size()];
  record.next = (record.next + 1) % record.load_balancers.size();
  ++queries_;
  send(msg.src, MessageType::kDnsReply, kDnsMessageBytes,
       DnsReplyPayload{query.service, lb});
}

}  // namespace shuffledef::cloudsim
