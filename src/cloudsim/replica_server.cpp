#include "cloudsim/replica_server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace shuffledef::cloudsim {

ReplicaServer::ReplicaServer(World& world, std::string name,
                             ReplicaConfig config, NodeId coordinator)
    : Node(world, std::move(name)), config_(config), coordinator_(coordinator) {
  // Shuffle assignments land thousands of clients per replica; pre-sizing
  // the whitelist (1,024 clients) keeps rehashing off the request hot path.
  whitelist_.assign(2048, {kInvalidIp, kInvalidNode});
  if (config_.registry != nullptr) {
    latency_ewma_us_ = config_.registry->gauge(kMetricReplicaLatencyEwmaUs);
    queue_depth_peak_us_ =
        config_.registry->gauge(kMetricReplicaQueueDepthPeakUs);
    qos_reports_ = config_.registry->counter(kMetricReplicaQosReports);
  }
}

void ReplicaServer::on_start() {
  loop().schedule_after(config_.detect_window_s, [this] { detection_tick(); });
  if (config_.qos_report_interval_s > 0.0) {
    loop().schedule_after(config_.qos_report_interval_s,
                          [this] { qos_tick(); });
  }
}

double ReplicaServer::cpu_backlog_s() const {
  return std::max(0.0, cpu_busy_until_ - world_now());
}

double ReplicaServer::queue_depth_s() const {
  // Both halves of the resource model: the CPU service queue (computational
  // DDoS) and the NIC egress queue (network DDoS — a flooded 30 Mbps link
  // shows up here long before the CPU notices anything).
  return cpu_backlog_s() +
         const_cast<ReplicaServer*>(this)->world().network().egress_backlog_s(
             id());
}

void ReplicaServer::qos_tick() {
  if (decommissioned_) return;  // crash() implies decommissioned_
  const double queue_depth = queue_depth_s();
  latency_ewma_us_.set(std::llround(latency_ewma_s_ * 1e6));
  queue_depth_peak_us_.max_with(std::llround(queue_depth * 1e6));
  qos_reports_.inc();
  if (coordinator_ != kInvalidNode) {
    send(coordinator_, MessageType::kQosReport, kControlMessageBytes,
         QosReportPayload{id(), latency_ewma_s_, queue_depth});
  }
  loop().schedule_after(config_.qos_report_interval_s, [this] { qos_tick(); });
}

// Node has no const accessor for the loop; keep a tiny helper.
// (Defined out-of-class to avoid exposing World in the header.)
double ReplicaServer::world_now() const {
  return const_cast<ReplicaServer*>(this)->loop().now();
}

void ReplicaServer::send_attack_report(double junk_rate) {
  attack_reported_ = true;
  last_report_at_ = loop().now();
  ++stats_.attack_reports_sent;
  send(coordinator_, MessageType::kAttackReport, kControlMessageBytes,
       AttackReportPayload{id(), junk_rate});
}

void ReplicaServer::detection_tick() {
  if (decommissioned_) return;
  const double junk_rate =
      static_cast<double>(junk_in_window_) / config_.detect_window_s;
  junk_in_window_ = 0;
  const bool under_attack = junk_rate > config_.junk_rate_threshold ||
                            cpu_backlog_s() > config_.cpu_backlog_threshold_s;
  if (under_attack && coordinator_ != kInvalidNode) {
    // Report once per episode, then renew periodically while the attack
    // persists: the control channel may lose reports, and a lost or failed
    // shuffle round must not leave the replica silently burning.
    const bool renew = attack_reported_ &&
                       loop().now() - last_report_at_ >= kReportRenewS;
    if (!attack_reported_ || renew) {
      if (!attack_reported_) {
        SDEF_LOG(Info) << name() << ": attack detected (junk " << junk_rate
                       << "/s, cpu backlog " << cpu_backlog_s() << "s)";
      }
      send_attack_report(junk_rate);
    }
  }
  loop().schedule_after(config_.detect_window_s, [this] { detection_tick(); });
}

void ReplicaServer::serve(NodeId reply_to, double cpu_seconds,
                          std::int32_t reply_bytes) {
  const double now = loop().now();
  const double start = std::max(now, cpu_busy_until_);
  if (start + cpu_seconds - now > kCpuQueueLimitS) {
    ++stats_.shed_cpu_overload;
    return;
  }
  cpu_busy_until_ = start + cpu_seconds;
  // Service latency (queueing + CPU) is known at admission; folding it into
  // the EWMA here keeps the reply closure at 16 captured bytes (small-buffer
  // constraint above).  Egress delay is tracked separately via queue depth.
  latency_ewma_s_ = config_.qos_latency_alpha * (cpu_busy_until_ - now) +
                    (1.0 - config_.qos_latency_alpha) * latency_ewma_s_;
  loop().schedule_at(cpu_busy_until_, [this, reply_to, reply_bytes] {
    if (decommissioned_) return;
    send(reply_to, MessageType::kHttpResponse, reply_bytes,
         HttpResponsePayload{200});
  });
}

void ReplicaServer::on_message(const Message& msg) {
  switch (msg.type) {
    case MessageType::kWhitelistAdd: {
      const auto& add = payload_as<WhitelistAddPayload>(msg);
      whitelist(add.client_ip, add.client_node);
      break;
    }
    case MessageType::kWhitelistBatch: {
      const auto& batch = payload_as<WhitelistBatchPayload>(msg);
      for (const auto& [ip, node] : batch.entries) whitelist(ip, node);
      break;
    }
    case MessageType::kHttpGet: {
      const auto& get = payload_as<HttpGetPayload>(msg);
      if (!whitelisted(get.client_ip)) {
        ++stats_.rejected_not_whitelisted;  // silently dropped (filtering)
        break;
      }
      ++stats_.pages_served;
      serve(msg.src, config_.cpu_per_request_s,
            static_cast<std::int32_t>(config_.page_bytes));
      break;
    }
    case MessageType::kHeavyRequest: {
      const auto& heavy = payload_as<HeavyRequestPayload>(msg);
      if (!whitelisted(heavy.client_ip)) {
        ++stats_.rejected_not_whitelisted;
        break;
      }
      ++stats_.heavy_served;
      serve(msg.src, heavy.cpu_seconds,
            static_cast<std::int32_t>(kControlMessageBytes));
      break;
    }
    case MessageType::kWsOpen: {
      const auto& open = payload_as<WsOpenPayload>(msg);
      if (!whitelisted(open.client_ip)) {
        ++stats_.rejected_not_whitelisted;
        break;
      }
      send(msg.src, MessageType::kWsOpenAck, kWsFrameBytes);
      break;
    }
    case MessageType::kWsPing: {
      send(msg.src, MessageType::kWsPong, kWsFrameBytes);
      break;
    }
    case MessageType::kJunkPacket: {
      ++stats_.junk_received;
      ++junk_in_window_;
      break;
    }
    case MessageType::kShuffleCommand: {
      const auto& cmd = payload_as<ShuffleCommandPayload>(msg);
      // Idempotent: a re-sent command (the coordinator's ack-retry loop, or
      // an injected duplicate) re-pushes the redirects — giving any lost
      // kWsPush another chance — and re-acks, but decommissions only once.
      if (decommissioned_) ++stats_.duplicate_shuffle_commands;
      // Client redirection is prioritized over all application logic (paper
      // §III-C); the pushes ride the control lane, so they get out even when
      // the data plane is saturated.  The whole span goes out as one batch:
      // one walking event instead of one closure per client.
      const auto n = static_cast<std::int64_t>(cmd.client_to_replica.size());
      std::vector<BatchItem> pushes(static_cast<std::size_t>(n));
      const auto build = [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto& [client, new_replica] =
              cmd.client_to_replica[static_cast<std::size_t>(i)];
          pushes[static_cast<std::size_t>(i)] =
              BatchItem{client, WsPushPayload{new_replica}};
        }
      };
      if (config_.shard_threads > 1 && n >= 1024) {
        // Disjoint writes + fixed grain: bit-identical at any thread count.
        auto job = util::ThreadPool::shared().submit(
            0, n, build, /*grain=*/4096,
            static_cast<std::size_t>(config_.shard_threads));
        util::ThreadPool::shared().wait(job);
      } else {
        build(0, n);
      }
      world().network().send_batch(id(), MessageType::kWsPush, kWsFrameBytes,
                                   std::move(pushes));
      stats_.redirects_pushed += static_cast<std::uint64_t>(n);
      decommissioned_ = true;
      if (coordinator_ != kInvalidNode) {
        send(coordinator_, MessageType::kDecommission, kControlMessageBytes,
             DecommissionPayload{id(), n});
      }
      break;
    }
    default:
      break;
  }
}

void ReplicaServer::simulate_attack_detected() {
  if (decommissioned_ || attack_reported_ || coordinator_ == kInvalidNode) {
    return;
  }
  send_attack_report(0.0);
}

void ReplicaServer::crash() {
  crashed_ = true;
  decommissioned_ = true;  // stops detection ticks and queued replies
}

std::size_t ReplicaServer::probe(IpId ip) const noexcept {
  // Fibonacci hashing spreads strided runs of dense interned ids.
  const std::size_t mask = whitelist_.size() - 1;
  std::size_t i =
      (static_cast<std::uint32_t>(ip) * 0x9E3779B97F4A7C15ull) >> 32;
  while (whitelist_[i & mask].first != ip &&
         whitelist_[i & mask].first != kInvalidIp) {
    ++i;
  }
  return i & mask;
}

bool ReplicaServer::whitelisted(IpId ip) const noexcept {
  return ip >= 0 && whitelist_[probe(ip)].first == ip;
}

void ReplicaServer::whitelist(IpId ip, NodeId node) {
  if (ip < 0) throw std::invalid_argument("ReplicaServer: negative IpId");
  if (2 * (whitelisted_ + 1) > whitelist_.size()) {
    const auto old = std::exchange(
        whitelist_, std::vector<std::pair<IpId, NodeId>>(
                        2 * whitelist_.size(), {kInvalidIp, kInvalidNode}));
    for (const auto& entry : old) {
      if (entry.first != kInvalidIp) whitelist_[probe(entry.first)] = entry;
    }
  }
  auto& slot = whitelist_[probe(ip)];
  if (slot.first == kInvalidIp) ++whitelisted_;
  slot = {ip, node};
}

std::vector<std::pair<IpId, NodeId>> ReplicaServer::connected_clients()
    const {
  std::vector<std::pair<IpId, NodeId>> out;
  out.reserve(whitelisted_);
  for (const auto& entry : whitelist_) {
    if (entry.first != kInvalidIp) out.push_back(entry);
  }
  std::sort(out.begin(), out.end());  // deterministic iteration for the sim
  return out;
}

}  // namespace shuffledef::cloudsim
