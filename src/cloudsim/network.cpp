#include "cloudsim/network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cloudsim/fault.h"
#include "cloudsim/node.h"
#include "util/validation.h"

namespace shuffledef::cloudsim {

std::vector<std::string> NicConfig::violations(
    const std::string& prefix) const {
  std::vector<std::string> out;
  if (!std::isfinite(egress_bps) || egress_bps <= 0.0) {
    out.push_back(prefix + "egress_bps must be finite and > 0");
  }
  if (!std::isfinite(ingress_bps) || ingress_bps <= 0.0) {
    out.push_back(prefix + "ingress_bps must be finite and > 0");
  }
  if (!std::isfinite(base_latency_s) || base_latency_s < 0.0) {
    out.push_back(prefix + "base_latency_s must be finite and >= 0");
  }
  if (!(max_queue_s > 0.0)) {
    out.push_back(prefix + "max_queue_s must be > 0");
  }
  if (!(control_share > 0.0 && control_share < 1.0)) {
    out.push_back(prefix + "control_share must be in (0, 1)");
  }
  return out;
}

std::vector<std::string> NetworkConfig::violations(
    const std::string& prefix) const {
  std::vector<std::string> out;
  if (!std::isfinite(intra_domain_extra_s) || intra_domain_extra_s < 0.0) {
    out.push_back(prefix + "intra_domain_extra_s must be finite and >= 0");
  }
  if (!std::isfinite(inter_domain_extra_s) || inter_domain_extra_s < 0.0) {
    out.push_back(prefix + "inter_domain_extra_s must be finite and >= 0");
  }
  return out;
}

Network::Network(EventLoop& loop, NetworkConfig config)
    : loop_(loop), config_(config) {
  util::throw_if_invalid("NetworkConfig", config_.violations());
  pod_walk_kind_ = loop_.register_pod_handler(
      [](void* ctx, std::uint32_t lane, std::uint32_t gen) {
        static_cast<Network*>(ctx)->walk_lane(lane, gen);
      },
      this);
  loop_.add_exit_hook(
      [](void* ctx) { static_cast<Network*>(ctx)->publish(); }, this);
}

void Network::set_registry(obs::Registry* registry) {
  published_ = stats_;
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.sends = registry->counter(kMetricNetSends);
  metrics_.delivered = registry->counter(kMetricNetDelivered);
  metrics_.dropped_egress = registry->counter(kMetricNetDroppedEgress);
  metrics_.dropped_ingress = registry->counter(kMetricNetDroppedIngress);
  metrics_.dropped_detached = registry->counter(kMetricNetDroppedDetached);
  metrics_.dropped_faulted = registry->counter(kMetricNetDroppedFaulted);
  metrics_.duplicated = registry->counter(kMetricNetDuplicated);
  metrics_.bytes_delivered = registry->counter(kMetricNetBytesDelivered);
  metrics_.in_flight = registry->gauge(kMetricNetInFlight);
}

void Network::publish() noexcept {
  const NetworkStats& s = stats_;
  const NetworkStats& p = published_;
  metrics_.sends.inc(s.sends - p.sends);
  metrics_.delivered.inc(s.delivered - p.delivered);
  metrics_.dropped_egress.inc(s.dropped_egress - p.dropped_egress);
  metrics_.dropped_ingress.inc(s.dropped_ingress - p.dropped_ingress);
  metrics_.dropped_detached.inc(s.dropped_detached - p.dropped_detached);
  metrics_.dropped_faulted.inc(s.dropped_faulted - p.dropped_faulted);
  metrics_.duplicated.inc(s.duplicated - p.duplicated);
  metrics_.bytes_delivered.inc(
      static_cast<std::uint64_t>(s.bytes_delivered - p.bytes_delivered));
  metrics_.in_flight.add(static_cast<std::int64_t>(s.in_flight) -
                         static_cast<std::int64_t>(p.in_flight));
  published_ = stats_;
}

NodeId Network::attach(Node* node, NicConfig nic) {
  if (node == nullptr) throw std::invalid_argument("Network: null node");
  util::throw_if_invalid("NicConfig", nic.violations());
  Port port;
  port.node = node;
  port.nic = nic;
  port.attached = true;
  ports_.push_back(port);
  return static_cast<NodeId>(ports_.size() - 1);
}

void Network::detach(NodeId id) { port_at(id).attached = false; }

bool Network::is_attached(NodeId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < ports_.size() &&
         ports_[static_cast<std::size_t>(id)].attached;
}

Network::Port& Network::port_at(NodeId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= ports_.size()) {
    throw std::out_of_range("Network: unknown node id");
  }
  return ports_[static_cast<std::size_t>(id)];
}

const Network::Port& Network::port_at(NodeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= ports_.size()) {
    throw std::out_of_range("Network: unknown node id");
  }
  return ports_[static_cast<std::size_t>(id)];
}

const NicConfig& Network::nic(NodeId id) const { return port_at(id).nic; }

double Network::egress_backlog_s(NodeId id) const {
  const Port& p = port_at(id);
  return std::max(0.0, p.egress_data.busy_until - loop_.now());
}

double Network::propagation_s(const Port& src, const Port& dst) const {
  const double domain_extra = src.nic.domain == dst.nic.domain
                                  ? config_.intra_domain_extra_s
                                  : config_.inter_domain_extra_s;
  return src.nic.base_latency_s + dst.nic.base_latency_s + domain_extra;
}

void Network::resolve(const Message& msg, NetTraceEvent::Outcome outcome) {
  resolve_at(loop_.now(), msg, outcome);
}

void Network::resolve_at(double t, const Message& msg,
                         NetTraceEvent::Outcome outcome) {
  if (trace_enabled_) {
    trace_.push_back(
        NetTraceEvent{t, msg.src, msg.dst, msg.type, msg.size_bytes, outcome});
  }
}

bool Network::admit(Message& msg) {
  ++stats_.sends;
  Port& src = port_at(msg.src);
  if (!src.attached) {
    ++stats_.dropped_detached;
    resolve(msg, NetTraceEvent::Outcome::kDroppedDetached);
    return false;
  }
  if (msg.dst < 0 || static_cast<std::size_t>(msg.dst) >= ports_.size()) {
    ++stats_.dropped_detached;  // address never existed (stale reference)
    resolve(msg, NetTraceEvent::Outcome::kDroppedDetached);
    return false;
  }

  if (fault_ != nullptr) {
    switch (fault_->on_send(msg, is_priority_type(msg.type), loop_.now())) {
      case FaultAction::kDrop:
        ++stats_.dropped_faulted;
        resolve(msg, NetTraceEvent::Outcome::kDroppedFaulted);
        return false;
      case FaultAction::kDuplicate: {
        // The original delivers normally below; an extra copy re-enters the
        // sender's NIC after a small delay.  The copy skips the fault gate
        // (no duplicate chains) and resolves like any other message.
        ++stats_.duplicated;
        ++stats_.in_flight;
        resolve(msg, NetTraceEvent::Outcome::kDuplicated);
        const std::uint32_t slot = acquire(Message(msg));
        loop_.schedule_after(FaultInjector::kDupExtraDelayS,
                             [this, slot] { dispatch(slot); });
        break;
      }
      case FaultAction::kDeliver:
        break;
    }
  }

  ++stats_.in_flight;
  return true;
}

void Network::send(Message msg) {
  if (admit(msg)) dispatch(acquire(std::move(msg)));
}

void Network::send_batch(NodeId src, MessageType type, std::int64_t size_bytes,
                         std::vector<BatchItem> items) {
  // Identical to a loop of send() calls by construction; the per-lane
  // walkers are what amortize the fan-out (each receiving lane drains its
  // span of arrivals with one scheduled event).
  for (auto& item : items) {
    send(Message{src, item.dst, type, size_bytes, std::move(item.payload)});
  }
}

// ---- slot arena ------------------------------------------------------------

std::uint32_t Network::acquire(Message&& msg) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(msg));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[static_cast<std::size_t>(slot)] = std::move(msg);
  return slot;
}

void Network::release(std::uint32_t slot) {
  slots_[static_cast<std::size_t>(slot)].payload = {};
  free_slots_.push_back(slot);
}

double Network::egress_admit(Message& msg) {
  Port& src = port_at(msg.src);
  if (!src.attached) {
    // A duplicated copy can outlive its sender's NIC.
    --stats_.in_flight;
    ++stats_.dropped_detached;
    resolve(msg, NetTraceEvent::Outcome::kDroppedDetached);
    return -1.0;
  }
  Port& dst = port_at(msg.dst);
  const bool priority = is_priority_type(msg.type);
  const double now = loop_.now();
  Lane& out_lane = priority ? src.egress_ctrl : src.egress_data;
  const double out_bps = priority
                             ? src.nic.egress_bps * src.nic.control_share
                             : src.nic.egress_bps * (1.0 - src.nic.control_share);
  const double out_backlog = std::max(0.0, out_lane.busy_until - now);
  if (out_backlog > src.nic.max_queue_s) {
    --stats_.in_flight;
    ++stats_.dropped_egress;
    resolve(msg, NetTraceEvent::Outcome::kDroppedEgress);
    return -1.0;
  }
  const double out_ser = static_cast<double>(msg.size_bytes) * 8.0 / out_bps;
  const double departs = std::max(now, out_lane.busy_until) + out_ser;
  out_lane.busy_until = departs;
  return departs + propagation_s(src, dst);
}

void Network::dispatch(std::uint32_t slot) {
  const double arrives = egress_admit(slots_[static_cast<std::size_t>(slot)]);
  if (arrives < 0) {
    release(slot);
    return;
  }
  ingress_enqueue(slot, arrives);
}

// ---- per-lane delivery walkers ---------------------------------------------
//
// One IngressQueue per (port, priority) lane.  Arrivals enqueue into the
// lane's pending heap at send time; fates (detached / tail-drop / delivery
// instant) are sealed strictly in (arrival, send-order) sequence with the
// lane's busy horizon as of the arrival instant — exactly the values an
// eager per-message evaluation computes — but lazily, at walker firings.
// The walker is armed at the lane's next delivery instant: when the head's
// predicted instant holds (the common case on quiet lanes), one POD event
// finalizes and delivers it in a single pop.  Predictions can only go stale
// upward (busy horizons never shrink), so a walker never fires after the
// true instant — a stale early firing just re-arms.  Drops are recorded
// with the arrival timestamp (resolve_at), the instant their fate was
// sealed, at the trace position where the walker reached them.

void Network::ingress_enqueue(std::uint32_t slot, double arr) {
  const Message& msg = slots_[static_cast<std::size_t>(slot)];
  const auto lane = static_cast<std::size_t>(msg.dst) * 2 +
                    (is_priority_type(msg.type) ? 1 : 0);
  if (lane >= ingress_.size()) ingress_.resize(ports_.size() * 2);
  IngressQueue& q = ingress_[lane];
  q.pending.push(arr, arrival_order_++, slot);
  arm_lane(static_cast<std::uint32_t>(lane));
}

void Network::finalize_arrival(std::uint32_t lane, double arr,
                               std::uint32_t slot, double now) {
  Message& msg = slots_[static_cast<std::size_t>(slot)];
  Port& d = ports_[static_cast<std::size_t>(msg.dst)];
  if (!d.attached) {
    --stats_.in_flight;
    ++stats_.dropped_detached;
    resolve_at(arr, msg, NetTraceEvent::Outcome::kDroppedDetached);
    release(slot);
    return;
  }
  const bool priority = (lane & 1u) != 0;
  Lane& in_lane = priority ? d.ingress_ctrl : d.ingress_data;
  const double in_bps = priority
                            ? d.nic.ingress_bps * d.nic.control_share
                            : d.nic.ingress_bps * (1.0 - d.nic.control_share);
  const double in_backlog = std::max(0.0, in_lane.busy_until - arr);
  if (in_backlog > d.nic.max_queue_s) {
    --stats_.in_flight;
    ++stats_.dropped_ingress;
    resolve_at(arr, msg, NetTraceEvent::Outcome::kDroppedIngress);
    release(slot);
    return;
  }
  const double in_ser = static_cast<double>(msg.size_bytes) * 8.0 / in_bps;
  const double done = std::max(arr, in_lane.busy_until) + in_ser;
  in_lane.busy_until = done;
  if (done <= now) {
    // The armed prediction held exactly: finalize and deliver in one pop.
    deliver(slot);
  } else {
    ingress_[static_cast<std::size_t>(lane)].ready.push_back(
        Ready{done, slot});
  }
}

void Network::walk_lane(std::uint32_t lane, std::uint32_t gen) {
  if (ingress_[static_cast<std::size_t>(lane)].gen != gen) return;  // stale
  const double now = loop_.now();
  // Park armed_at at `now` for the duration: re-entrant sends from
  // on_message (whose arrivals are strictly in the future) must not arm a
  // second event — the re-arm at the end covers them.
  ingress_[static_cast<std::size_t>(lane)].armed_at = now;
  // Deliver matured finalized messages (done times are monotone per lane).
  // Re-fetch the queue every iteration: on_message may send, which can
  // grow ingress_ (new ports) or this lane's own vectors.
  for (;;) {
    IngressQueue& q = ingress_[static_cast<std::size_t>(lane)];
    if (q.ready_head >= q.ready.size() || q.ready[q.ready_head].done > now) {
      break;
    }
    const std::uint32_t slot = q.ready[q.ready_head].slot;
    ++q.ready_head;
    deliver(slot);
  }
  // Seal matured arrivals in (arr, order) sequence.
  for (;;) {
    IngressQueue& q = ingress_[static_cast<std::size_t>(lane)];
    if (q.pending.empty() || q.pending.top().time() > now) break;
    const auto p = q.pending.pop();
    finalize_arrival(lane, p.time(), p.value, now);  // may deliver inline
  }
  IngressQueue& q = ingress_[static_cast<std::size_t>(lane)];
  if (q.ready_head >= q.ready.size()) {
    q.ready.clear();
    q.ready_head = 0;
  } else if (q.ready_head > 1024 && q.ready_head * 2 > q.ready.size()) {
    q.ready.erase(q.ready.begin(),
                  q.ready.begin() + static_cast<std::ptrdiff_t>(q.ready_head));
    q.ready_head = 0;
  }
  q.armed_at = -1.0;
  arm_lane(lane);
}

void Network::arm_lane(std::uint32_t lane) {
  IngressQueue& q = ingress_[static_cast<std::size_t>(lane)];
  double next = -1.0;
  if (q.ready_head < q.ready.size()) {
    // Finalized deliveries always precede the pending head's instant (done
    // times are the lane's busy chain).
    next = q.ready[q.ready_head].done;
  } else if (!q.pending.empty()) {
    const auto& head = q.pending.top();
    const Message& msg = slots_[static_cast<std::size_t>(head.value)];
    const Port& d = ports_[static_cast<std::size_t>(msg.dst)];
    const bool priority = (lane & 1u) != 0;
    const double in_bps =
        priority ? d.nic.ingress_bps * d.nic.control_share
                 : d.nic.ingress_bps * (1.0 - d.nic.control_share);
    const double busy =
        (priority ? d.ingress_ctrl : d.ingress_data).busy_until;
    next = std::max(head.time(), busy) +
           static_cast<double>(msg.size_bytes) * 8.0 / in_bps;
  }
  if (next < 0.0) {
    q.armed_at = -1.0;
    return;
  }
  // The live event at or before `next` will re-arm when it fires; only
  // schedule when nothing fires early enough.  Predictions grow stale
  // upward only (busy horizons never shrink), so an early firing is safe
  // (it re-computes and re-arms) and a too-late firing cannot happen.
  if (q.armed_at >= 0.0 && q.armed_at <= next) return;
  ++q.gen;  // supersede any later-firing event
  q.armed_at = next;
  loop_.schedule_pod_at(next, pod_walk_kind_, lane, q.gen);
}

void Network::deliver(std::uint32_t slot) {
  // Move out before running the receiver: on_message may send, and a send
  // can grow the arena, invalidating references into slots_.
  Message msg = std::move(slots_[static_cast<std::size_t>(slot)]);
  release(slot);
  Port& d = ports_[static_cast<std::size_t>(msg.dst)];
  --stats_.in_flight;
  if (!d.attached) {
    ++stats_.dropped_detached;
    resolve(msg, NetTraceEvent::Outcome::kDroppedDetached);
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += msg.size_bytes;
  resolve(msg, NetTraceEvent::Outcome::kDelivered);
  d.node->on_message(msg);
}

}  // namespace shuffledef::cloudsim
