// Client and bot engine: the whole population as one Node (SoA columns).
//
// Every browser and persistent bot of a cloudsim world is a member of one
// ClientSwarm.  Its state lives in contiguous columns — phase, assigned
// replica, deadlines, per-member SmallRng streams — indexed by a dense
// member id, the technique the sim-layer client store uses, so one engine
// carries 10 to 10^6 members without a heap object or scheduled closure per
// client or timer.
//
// Mechanics:
//
//  * Every member owns a real network address: World::attach_port gives the
//    swarm one port per member, so the Network's NIC model, the load
//    balancer's spoofing check, and replica whitelists see ordinary hosts.
//    `msg.dst - base_port()` recovers the member index in O(1).  Member IPs
//    are anonymous interned ids (World::alloc_ip).
//  * Message-driven transitions (DNS replies, redirects, page loads,
//    WebSocket pushes) run per message, in the browser's join order: DNS ->
//    load balancer -> page -> WebSocket, reloading the page from the new
//    replica on a shuffle push (the measured migration).
//  * Time-driven behaviour (request timeouts, heartbeats, browse reloads,
//    bot junk/heavy cadences) runs in a periodic *sweep*: one repeating
//    scheduled event scans the deadline columns instead of one scheduled
//    closure per timer.  Deadlines therefore fire on sweep boundaries —
//    quantized by at most `kSweepDtS` — which is the engine's documented
//    accuracy contract.  A heartbeat pings `heartbeat_s` after the previous
//    pong arrived.
//  * The sweep's scan phase and the botnet's strategy rounds shard across
//    util::ThreadPool::shared() under the deterministic-chunk contract:
//    every draw comes from a per-member SmallRng and every write lands in
//    that member's own column slot, so results are bit-identical at every
//    `shard_threads` setting.  All sends happen in a serial emission pass
//    in member-index order; the event loop stays single-threaded.
//
// Bots are trailing members: they join like browsers (so they are
// whitelisted insiders), report every replica they land on to the
// botmaster, and attack it with junk packets and/or heavy requests while a
// shared core::AttackerStrategy, run through its batched span API, keeps
// them active.  Aggregates live in SwarmStats; callers that need
// per-member records (page-load and migration times) install an observer.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cloudsim/node.h"
#include "core/attacker_strategy.h"

namespace shuffledef::cloudsim {

struct SwarmConfig {
  std::string service = "www.example.com";
  NodeId dns = kInvalidNode;

  // Benign-member behaviour.
  double request_timeout_s = 4.0;
  double browse_think_s = 0.0;   // 0 = load once (prototype-style)
  /// WebSocket keepalive interval (0 = none).  A missed pong means the
  /// replica died without pushing a redirect; the member rejoins via DNS.
  double heartbeat_s = 0.0;

  // Bot members (bots never browse or heartbeat).
  NodeId botmaster = kInvalidNode;
  double bot_junk_rate_pps = 0.0;
  double bot_heavy_interval_s = 0.0;
  double bot_heavy_cpu_seconds = 0.2;
  /// Shared strategy (non-owning; nullptr = legacy unconditional flood).
  const core::AttackerStrategy* strategy = nullptr;
  double strategy_round_s = 1.0;
  std::int32_t strategy_replicas = 0;

  /// Worker threads for the sweep scan and batched strategy rounds (1 =
  /// serial).  Bit-identical results at every setting.
  int shard_threads = 1;

  /// Root for per-member behaviour streams (browse gaps, junk cadences);
  /// member i draws from behavior_root.fork_small(i).
  util::Rng behavior_root{0};
};

/// Aggregate population statistics: counters and sums over every member,
/// bots included.
struct SwarmStats {
  std::int64_t page_loads = 0;
  std::int64_t timeouts = 0;
  std::int64_t rejoins = 0;
  std::int64_t heartbeat_failures = 0;
  std::int64_t migrations_completed = 0;
  std::int64_t junk_sent = 0;
  std::int64_t heavy_sent = 0;
  double first_page_at = -1.0;
  double page_load_seconds_sum = 0.0;     // over page_loads
  double migration_seconds_sum = 0.0;     // over migrations_completed
};

/// One per-member record, handed to the observer as it happens.
struct MemberEvent {
  enum class Kind : std::uint8_t {
    kPageLoad,   // start: request sent; end: response received
    kTimeout,    // start: request sent; end: the sweep that gave up on it
    kMigration,  // start: shuffle push received; end: WebSocket reopened
  };
  Kind kind = Kind::kPageLoad;
  std::int32_t member = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  [[nodiscard]] double duration() const { return end_s - start_s; }
};

class ClientSwarm final : public Node {
 public:
  /// Requests a member retries before rejoining from DNS.
  static constexpr int kMaxRetries = 4;
  /// Bots' request timeout (benign members use SwarmConfig's).
  static constexpr double kBotRequestTimeoutS = 4.0;
  /// Sweep cadence: the engine's timer-quantization granularity.
  static constexpr double kSweepDtS = 0.25;

  ClientSwarm(World& world, std::string name, SwarmConfig config);

  /// Called, in event order, for every page load, request timeout and
  /// completed migration of any member.  Null (the default) records
  /// nothing; installing one changes no simulated bit.  Members start from
  /// scheduled events, so an observer set before the first run sees all.
  void set_observer(std::function<void(const MemberEvent&)> observer) {
    observer_ = std::move(observer);
  }

  /// Add one benign member (before finalize()).  Returns its member index.
  std::int32_t add_client(const NicConfig& nic, double start_time_s);
  /// Add one bot member (after every benign member).  Bots carry a
  /// strategy-state record seeded by the caller (scenario seed chain).
  std::int32_t add_bot(const NicConfig& nic, double start_time_s,
                       core::BotState state);

  /// Start the engine: schedules the sweep and the strategy round cadence.
  /// Call once, after the last add_*().
  void finalize();

  void on_message(const Message& msg) override;

  [[nodiscard]] std::int32_t members() const {
    return static_cast<std::int32_t>(port_.size());
  }
  [[nodiscard]] std::int32_t benign_members() const { return first_bot_; }
  [[nodiscard]] std::int32_t bot_members() const {
    return members() - first_bot_;
  }
  [[nodiscard]] NodeId member_port(std::int32_t i) const {
    return port_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] IpId member_ip(std::int32_t i) const {
    return ip_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] bool connected(std::int32_t i) const {
    return phase_[static_cast<std::size_t>(i)] == kConnected;
  }
  [[nodiscard]] NodeId current_replica(std::int32_t i) const {
    return replica_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] bool bot_active(std::int32_t bot) const {
    return bot_active_[static_cast<std::size_t>(bot)] != 0;
  }

  [[nodiscard]] std::int64_t clients_connected() const;
  [[nodiscard]] const SwarmStats& stats() const { return stats_; }

 private:
  // Member phases, in join order.
  static constexpr std::uint8_t kIdle = 0;
  static constexpr std::uint8_t kResolving = 1;
  static constexpr std::uint8_t kContactingLb = 2;
  static constexpr std::uint8_t kLoadingPage = 3;
  static constexpr std::uint8_t kOpeningWs = 4;
  static constexpr std::uint8_t kConnected = 5;

  // flags_ bits.
  static constexpr std::uint8_t kMigrating = 1u << 0;
  static constexpr std::uint8_t kHbAwait = 1u << 1;

  // Sweep scratch action bits (written in the parallel scan, consumed by
  // the serial emission pass).
  static constexpr std::uint8_t kActTimeout = 1u << 0;
  static constexpr std::uint8_t kActHbPing = 1u << 1;
  static constexpr std::uint8_t kActHbFail = 1u << 2;
  static constexpr std::uint8_t kActBrowse = 1u << 3;
  static constexpr std::uint8_t kActBot = 1u << 4;  // junk/heavy due

  static constexpr double kNever = std::numeric_limits<double>::infinity();

  std::int32_t add_member(const NicConfig& nic, double start_time_s);
  [[nodiscard]] std::int32_t member_of(NodeId port) const {
    return static_cast<std::int32_t>(port - base_port_);
  }
  [[nodiscard]] bool is_bot(std::int32_t i) const { return i >= first_bot_; }
  [[nodiscard]] double timeout_s(std::int32_t i) const {
    return is_bot(i) ? kBotRequestTimeoutS : config_.request_timeout_s;
  }
  [[nodiscard]] double exp_gap(std::int32_t i, double rate);

  void begin_join(std::int32_t i);
  /// One walking event starts every member at its start instant in
  /// (start-time, add-order) sequence — replacing one scheduled closure per
  /// member, the dominant heap load while a million-member world boots.
  void start_walk();
  void request_page(std::int32_t i);
  void handle_connected(std::int32_t i, bool migrated);
  void handle_timeout(std::int32_t i);
  void bot_report(std::int32_t i);
  void observe(MemberEvent::Kind kind, std::int32_t i, double start_s,
               double end_s) {
    if (observer_) observer_(MemberEvent{kind, i, start_s, end_s});
  }

  void sweep();
  void scan_member(std::int32_t i, double now);
  void emit_actions(double now);
  void strategy_round();

  SwarmConfig config_;
  ServiceId service_id_ = kInvalidService;
  NodeId base_port_ = kInvalidNode;  // port of member 0
  std::int32_t first_bot_ = 0;       // members [first_bot_, n) are bots
  bool finalized_ = false;
  core::Count round_ = 0;

  // Start schedule: absolute instants, walked in sorted order by one event
  // chain after finalize(); freed once every member has started.
  std::vector<double> start_at_;
  std::vector<std::int32_t> start_order_;
  std::size_t start_next_ = 0;

  // ---- SoA columns (size = members()) --------------------------------------
  std::vector<NodeId> port_;
  std::vector<IpId> ip_;
  std::vector<std::uint8_t> phase_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::int16_t> retries_;
  std::vector<NodeId> lb_;
  std::vector<NodeId> replica_;
  std::vector<NodeId> ws_replica_;
  std::vector<double> deadline_;      // pending-request timeout (kNever: none)
  std::vector<double> hb_next_;       // next keepalive ping
  std::vector<double> hb_deadline_;   // pong deadline while kHbAwait
  std::vector<double> browse_next_;   // next page reload
  std::vector<double> page_requested_at_;
  std::vector<double> migration_started_at_;
  std::vector<util::SmallRng> stream_;  // per-member behaviour stream
  std::vector<std::uint8_t> action_;    // sweep scratch

  // ---- bot-local columns (size = bot_members(), index i - first_bot_) ------
  std::vector<core::BotState> bot_state_;
  std::vector<std::uint8_t> bot_started_;  // connected at least once
  std::vector<std::uint8_t> bot_active_;   // attacking this round
  std::vector<double> junk_next_;
  std::vector<double> heavy_next_;
  std::vector<std::uint16_t> junk_due_;    // sweep scratch
  std::vector<std::uint16_t> heavy_due_;   // sweep scratch

  SwarmStats stats_;
  std::function<void(const MemberEvent&)> observer_;
};

}  // namespace shuffledef::cloudsim
