// Replica application server (paper §III-C).
//
// Serves the protected web page to whitelisted clients only (the referring
// load balancer confirms each IP).  Holds a WebSocket to every client so
// that, when the coordination server orders a shuffle, the replica can push
// unsolicited redirect notifications (paper §VI-B: WebSocket multiplexing
// the HTTP(S) port, no client software needed).
//
// Resource model:
//   * network — the NIC's bandwidth/queueing (src/cloudsim/network.h) makes
//     junk floods crowd out page responses (network DDoS);
//   * CPU — a single-threaded service queue (the paper's prototype was an
//     unoptimized single-threaded Node.js server): each request occupies the
//     CPU for its service time; heavy requests occupy it much longer
//     (computational DDoS).  Requests beyond the queue limit are shed.
//
// Detection: a periodic tick compares the junk-packet arrival rate and the
// CPU backlog against thresholds and raises kAttackReport once per episode
// (paper §II-B assumes detection from congestion / traffic surges).
//
// At scale: the whitelist is a flat open-addressing table keyed by interned
// IpId (no string hashing, no allocation per client), queued replies capture
// 16 bytes (inside std::function's small buffer), shuffle redirects go out
// as one message batch, and building a large batch is sharded across
// util::ThreadPool under the deterministic-chunk contract (`shard_threads`).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloudsim/node.h"
#include "obs/registry.h"

namespace shuffledef::cloudsim {

// Registry metric names of the replica-side QoS signal (the closed-loop
// control plane's input; see cloudsim/qos.h and ARCHITECTURE.md).
inline constexpr std::string_view kMetricReplicaLatencyEwmaUs =
    "replica.latency_ewma_us";
inline constexpr std::string_view kMetricReplicaQosReports =
    "replica.qos_reports";
inline constexpr std::string_view kMetricReplicaQueueDepthPeakUs =
    "replica.queue_depth_peak_us";

struct ReplicaConfig {
  std::int64_t page_bytes = 246 * 1024;  // the prototype's 246 KB page
  double cpu_per_request_s = 0.002;      // ~500 pages/s when healthy
  double detect_window_s = 0.5;
  double junk_rate_threshold = 200.0;    // packets/s
  double cpu_backlog_threshold_s = 1.0;  // computational-attack indicator
  /// Threads for building large shuffle-redirect batches (deterministic
  /// chunks: the result is bit-identical at every value).  1 = serial.
  int shard_threads = 1;

  // ---- closed-loop QoS signal (cloudsim/qos.h) ------------------------------
  /// Sample-and-report cadence of the QoS tick (0 = QoS reporting off, the
  /// legacy world: no extra events, no extra messages).  Each tick sends a
  /// kQosReport{latency EWMA, queue depth} to the coordinator.
  double qos_report_interval_s = 0.0;
  /// EWMA weight on each completed request's service latency.
  double qos_latency_alpha = 0.3;
  /// Sink for the replica.* metric family (nullptr = uninstrumented).
  obs::Registry* registry = nullptr;
};

struct ReplicaStats {
  std::uint64_t pages_served = 0;
  std::uint64_t rejected_not_whitelisted = 0;
  std::uint64_t shed_cpu_overload = 0;
  std::uint64_t junk_received = 0;
  std::uint64_t heavy_served = 0;
  std::uint64_t redirects_pushed = 0;
  std::uint64_t attack_reports_sent = 0;     // incl. renewals
  std::uint64_t duplicate_shuffle_commands = 0;  // re-acked idempotently
};

class ReplicaServer final : public Node {
 public:
  ReplicaServer(World& world, std::string name, ReplicaConfig config,
                NodeId coordinator = kInvalidNode);

  void set_coordinator(NodeId coordinator) { coordinator_ = coordinator; }

  void on_start() override;
  void on_message(const Message& msg) override;

  /// Clients currently whitelisted here, as (ip, client node) pairs — read
  /// by the coordination server when it builds a shuffle plan.
  [[nodiscard]] std::vector<std::pair<IpId, NodeId>> connected_clients() const;

  /// Force the detection path to fire now (used by the prototype-latency
  /// experiment, which triggers a *simulated* attack exactly like the
  /// paper's Figure 12 measurement).
  void simulate_attack_detected();

  /// Instance failure (fault injection): the server dies on the spot — no
  /// redirects pushed, no decommission ack, detection stops.  The caller
  /// detaches the NIC; clients recover via heartbeat rejoin and the
  /// coordinator via its command watchdog.
  void crash();

  [[nodiscard]] const ReplicaStats& stats() const { return stats_; }
  [[nodiscard]] bool decommissioned() const { return decommissioned_; }
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] double cpu_backlog_s() const;

  /// The QoS signal pair as the next kQosReport would carry it: EWMA of
  /// request service latency (0 until the first request) and the current
  /// queue depth (CPU backlog + egress backlog), in seconds.
  [[nodiscard]] double latency_ewma_s() const { return latency_ewma_s_; }
  [[nodiscard]] double queue_depth_s() const;

 private:
  /// Shed load beyond this CPU backlog.
  static constexpr double kCpuQueueLimitS = 2.0;
  /// While still under attack, re-send the attack report this long after
  /// the previous one, so a lost report (or a lost/failed shuffle round)
  /// cannot silence the defense forever.
  static constexpr double kReportRenewS = 2.0;

  void detection_tick();
  void qos_tick();
  void send_attack_report(double junk_rate);
  /// Queue a kHttpResponse{200} reply behind the CPU; the deferred closure
  /// captures {this, dst, bytes} — 16 bytes, no heap allocation.
  void serve(NodeId reply_to, double cpu_seconds, std::int32_t reply_bytes);
  [[nodiscard]] double world_now() const;
  /// Whitelist (or re-point) `ip`; IpIds are non-negative.
  void whitelist(IpId ip, NodeId node);
  [[nodiscard]] bool whitelisted(IpId ip) const noexcept;
  /// The slot holding `ip`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(IpId ip) const noexcept;

  ReplicaConfig config_;
  NodeId coordinator_;
  // The whitelist, ip -> client node: open addressing with linear probing
  // over a power-of-two slot array kept at most half full; kInvalidIp marks
  // an empty slot.  Slot order never shows (connected_clients() sorts).
  std::vector<std::pair<IpId, NodeId>> whitelist_;
  std::size_t whitelisted_ = 0;
  double cpu_busy_until_ = 0.0;
  std::uint64_t junk_in_window_ = 0;
  bool attack_reported_ = false;
  double last_report_at_ = 0.0;
  bool decommissioned_ = false;
  bool crashed_ = false;
  double latency_ewma_s_ = 0.0;  // updated per admitted request (event loop)
  ReplicaStats stats_;
  // Null handles when config_.registry is null.
  obs::Gauge latency_ewma_us_;
  obs::Gauge queue_depth_peak_us_;
  obs::Counter qos_reports_;
};

}  // namespace shuffledef::cloudsim
