// Network model: latency + bandwidth + queueing + tail drop.
//
// Each attached node gets a NIC with separate ingress and egress capacity.
// A message experiences, in order:
//
//   egress serialization  (size / sender egress bandwidth, FIFO backlog)
//   propagation           (sender base + receiver base + domain penalty)
//   ingress serialization (size / receiver ingress bandwidth, FIFO backlog)
//
// Backlogs are modelled as busy-until horizons — O(1) per message.  When a
// lane's backlog exceeds `max_queue_s` the message is tail-dropped, which is
// how a junk-packet flood starves a victim's page responses while the
// prioritized control lane (redirects, coordination traffic — see
// is_priority_type) keeps working: the paper's "client redirection traffic
// is treated preferentially" assumption, made explicit.
//
// Domains model the paper's separately-managed cloud regions: traffic
// between different domains pays `inter_domain_extra_s` more propagation.
//
// One delivery engine carries every message.  In-flight messages live in a
// free-listed slot arena (no per-message heap allocation), and each ingress
// lane runs a *walker*: arrivals enqueue into a per-lane pending heap and
// one POD event per lane fires at the lane's next delivery instant,
// draining every matured arrival in (arrival, send-order) sequence with the
// lane's busy horizon as of the arrival instant — exactly the eager model
// above, sealed lazily.  A quiet lane pays a single 32-byte event per
// delivered message.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cloudsim/event_loop.h"
#include "cloudsim/message.h"
#include "obs/registry.h"

namespace shuffledef::cloudsim {

// Registry metric names of the NetworkStats fields (same semantics, same
// conservation invariant; see ARCHITECTURE.md "Observability").
inline constexpr std::string_view kMetricNetSends = "net.sends";
inline constexpr std::string_view kMetricNetDelivered = "net.delivered";
inline constexpr std::string_view kMetricNetDroppedEgress =
    "net.dropped_egress";
inline constexpr std::string_view kMetricNetDroppedIngress =
    "net.dropped_ingress";
inline constexpr std::string_view kMetricNetDroppedDetached =
    "net.dropped_detached";
inline constexpr std::string_view kMetricNetDroppedFaulted =
    "net.dropped_faulted";
inline constexpr std::string_view kMetricNetDuplicated = "net.duplicated";
inline constexpr std::string_view kMetricNetBytesDelivered =
    "net.bytes_delivered";
inline constexpr std::string_view kMetricNetInFlight = "net.in_flight";

class Node;           // full definition in node.h
class FaultInjector;  // full definition in fault.h

struct NicConfig {
  double egress_bps = 100e6;    // bits per second
  double ingress_bps = 100e6;   // bits per second
  double base_latency_s = 0.01; // one-way propagation to the network core
  std::int32_t domain = 0;
  double max_queue_s = 0.5;     // tail-drop beyond this backlog
  /// Fraction of bandwidth reserved for the priority (control) lane.
  double control_share = 0.1;

  /// All violations at once, each prefixed (e.g. "client_nic.") for
  /// embedding in a composite config's report.  Network::attach throws
  /// std::invalid_argument listing every violation.
  [[nodiscard]] std::vector<std::string> violations(
      const std::string& prefix = {}) const;
};

struct NetworkConfig {
  double intra_domain_extra_s = 0.0005;
  double inter_domain_extra_s = 0.03;

  /// All violations at once, each prefixed (e.g. "network."); the Network
  /// constructor throws std::invalid_argument listing every violation.
  [[nodiscard]] std::vector<std::string> violations(
      const std::string& prefix = {}) const;
};

struct NetworkStats {
  std::uint64_t sends = 0;       // every send() call
  std::uint64_t delivered = 0;
  std::uint64_t dropped_egress = 0;
  std::uint64_t dropped_ingress = 0;
  std::uint64_t dropped_detached = 0;
  std::uint64_t dropped_faulted = 0;  // injected loss (fault subsystem)
  std::uint64_t duplicated = 0;       // extra copies injected
  std::uint64_t in_flight = 0;        // accepted, not yet resolved
  std::int64_t bytes_delivered = 0;

  /// Conservation invariant: every send() and every injected duplicate is
  /// delivered, dropped (for exactly one reason), or still in flight.
  [[nodiscard]] bool conserved() const noexcept {
    return sends + duplicated == delivered + dropped_egress +
                                     dropped_ingress + dropped_detached +
                                     dropped_faulted + in_flight;
  }
};

/// One resolved message in the network's (optional) event trace.  Traces of
/// two runs with the same seed must compare equal — the determinism tests
/// rely on it.
struct NetTraceEvent {
  enum class Outcome : std::uint8_t {
    kDelivered,
    kDroppedEgress,
    kDroppedIngress,
    kDroppedDetached,
    kDroppedFaulted,
    kDuplicated,  // a copy was injected (the copy resolves separately)
  };
  double time = 0.0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  MessageType type{};
  std::int64_t size_bytes = 0;
  Outcome outcome{};

  bool operator==(const NetTraceEvent&) const = default;
};

/// One element of a send_batch fan-out.
struct BatchItem {
  NodeId dst = kInvalidNode;
  Payload payload;
};

class Network {
 public:
  Network(EventLoop& loop, NetworkConfig config);
  // The loop holds `this` (walker handler, exit hook).
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attach a node; returns its address.  The node must outlive the network
  /// or be detached first.
  NodeId attach(Node* node, NicConfig nic);

  /// Detach (recycle) a node: all in-flight and future messages to it are
  /// dropped.  The address is never reused.
  void detach(NodeId id);

  [[nodiscard]] bool is_attached(NodeId id) const;

  /// Queue a message for delivery; applies the full latency model (and the
  /// fault injector, when one is installed).
  void send(Message msg);

  /// Fan one sender's same-type messages out to many receivers.  Semantics
  /// match a loop of send() calls in item order (same stats, same fault
  /// gating, same shared-egress serialization); the per-lane walkers then
  /// amortize the whole span into one scheduled event per receiving lane.
  void send_batch(NodeId src, MessageType type, std::int64_t size_bytes,
                  std::vector<BatchItem> items);

  /// Pre-size the message arena (large scenarios).
  void reserve_messages(std::size_t n) { slots_.reserve(n); }

  /// Install a fault injector consulted on every send (nullptr = fault-free;
  /// non-owning, must outlive the network or be cleared).
  void set_fault_injector(FaultInjector* injector) noexcept {
    fault_ = injector;
  }

  /// Publish every NetworkStats field onto registry metrics (kMetricNet*)
  /// whenever the loop's run()/run_until() returns, counting from
  /// attachment: each metric gets add(delta), so worlds sharing a registry
  /// sum.  The struct stays authoritative; nullptr detaches.
  void set_registry(obs::Registry* registry);

  /// Record every resolved message into an event trace (off by default —
  /// costs memory proportional to traffic).
  void enable_trace() noexcept { trace_enabled_ = true; }
  [[nodiscard]] const std::vector<NetTraceEvent>& trace() const noexcept {
    return trace_;
  }

  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const NicConfig& nic(NodeId id) const;

  /// Current egress data-lane backlog of a node, in seconds (observable by
  /// the node itself, e.g. for load metrics).
  [[nodiscard]] double egress_backlog_s(NodeId id) const;

 private:
  struct Lane {
    double busy_until = 0.0;
  };
  struct Port {
    Node* node = nullptr;
    NicConfig nic;
    bool attached = false;
    Lane egress_data, egress_ctrl, ingress_data, ingress_ctrl;
  };
  /// A finalized arrival awaiting its delivery instant.  Per lane, done
  /// times are strictly increasing (busy-chain order), so a FIFO suffices.
  struct Ready {
    double done = 0.0;
    std::uint32_t slot = 0;
  };
  struct IngressQueue {
    // Unsealed arrival slots by (arrival, admission order).
    detail::TimeSeqHeap<std::uint32_t> pending;
    std::vector<Ready> ready;      // FIFO; ready_head indexes the front
    std::uint32_t ready_head = 0;
    std::uint32_t gen = 0;   // invalidates superseded walker events
    double armed_at = -1.0;  // instant of the live walker event; -1 = none
  };

  Port& port_at(NodeId id);
  const Port& port_at(NodeId id) const;
  [[nodiscard]] double propagation_s(const Port& src, const Port& dst) const;

  void resolve(const Message& msg, NetTraceEvent::Outcome outcome);
  /// Trace with an explicit timestamp: lazily finalized walker drops record
  /// the instant the fate was sealed (the NIC arrival), not discovery time.
  void resolve_at(double t, const Message& msg, NetTraceEvent::Outcome outcome);

  /// Pre-gate shared by send()/send_batch(): sends counter, src/dst checks,
  /// fault injection.  Returns false when the message already resolved
  /// (dropped); on true the caller owns one in_flight unit.
  bool admit(Message& msg);

  // ---- slot arena ----------------------------------------------------------
  std::uint32_t acquire(Message&& msg);
  void release(std::uint32_t slot);
  /// Egress + propagation for an admitted arena message, then hand it to
  /// its receiving lane's walker (or drop it at egress).
  void dispatch(std::uint32_t slot);
  void deliver(std::uint32_t slot);
  /// Egress only; returns the NIC-arrival time, or a negative value when the
  /// message was tail-dropped at egress (already accounted + resolved).
  double egress_admit(Message& msg);

  // ---- per-lane delivery walkers -------------------------------------------
  void ingress_enqueue(std::uint32_t slot, double arr);
  /// Seal the fate of one matured arrival with busy-as-of-arrival semantics:
  /// drop (detached / backlog) or commit a delivery instant.
  void finalize_arrival(std::uint32_t lane, double arr, std::uint32_t slot,
                        double now);
  /// Deliver matured ready messages, finalize matured arrivals, re-arm.
  /// Firings whose generation was superseded are no-ops.
  void walk_lane(std::uint32_t lane, std::uint32_t gen);
  /// Schedule the lane's next walker event if none fires early enough.
  void arm_lane(std::uint32_t lane);
  /// Add the stats' growth since the last publication to the registry.
  void publish() noexcept;

  EventLoop& loop_;
  NetworkConfig config_;
  std::vector<Port> ports_;
  NetworkStats stats_;
  FaultInjector* fault_ = nullptr;
  bool trace_enabled_ = false;
  std::uint16_t pod_walk_kind_ = 0;
  std::uint64_t arrival_order_ = 0;
  std::vector<NetTraceEvent> trace_;
  std::vector<Message> slots_;  // arena: in-flight messages
  std::vector<std::uint32_t> free_slots_;
  std::vector<IngressQueue> ingress_;  // indexed 2 * port + priority
  NetworkStats published_;  // stats_ as of the last publication
  // Null handles when no registry is set (publication no-ops).
  struct {
    obs::Counter sends, delivered, dropped_egress, dropped_ingress,
        dropped_detached, dropped_faulted, duplicated, bytes_delivered;
    obs::Gauge in_flight;
  } metrics_;
};

}  // namespace shuffledef::cloudsim
