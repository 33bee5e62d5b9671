#include "cloudsim/client_swarm.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "util/thread_pool.h"

namespace shuffledef::cloudsim {

namespace {
// Below this population the parallel scan costs more than it saves.
constexpr std::int32_t kShardMinMembers = 4096;
constexpr std::int64_t kShardGrain = 4096;
}  // namespace

ClientSwarm::ClientSwarm(World& world, std::string name, SwarmConfig config)
    : Node(world, std::move(name)), config_(std::move(config)) {
  if (config_.shard_threads < 1) {
    throw std::invalid_argument("ClientSwarm: shard_threads must be >= 1");
  }
  service_id_ = this->world().intern_service(config_.service);
}

std::int32_t ClientSwarm::add_member(const NicConfig& nic,
                                     double start_time_s) {
  if (finalized_) {
    throw std::logic_error("ClientSwarm: add after finalize()");
  }
  const auto i = static_cast<std::int32_t>(port_.size());
  const NodeId port = world().attach_port(this, nic);
  if (i == 0) {
    base_port_ = port;
  } else if (port != base_port_ + i) {
    // The O(1) dst->index mapping requires the member ports to be a
    // contiguous id range; interleaving other attachments breaks it.
    throw std::logic_error("ClientSwarm: member ports must be contiguous");
  }
  const IpId ip = world().alloc_ip();
  world().register_ip(ip, port);

  port_.push_back(port);
  ip_.push_back(ip);
  phase_.push_back(kIdle);
  flags_.push_back(0);
  retries_.push_back(0);
  lb_.push_back(kInvalidNode);
  replica_.push_back(kInvalidNode);
  ws_replica_.push_back(kInvalidNode);
  deadline_.push_back(kNever);
  hb_next_.push_back(kNever);
  hb_deadline_.push_back(kNever);
  browse_next_.push_back(kNever);
  page_requested_at_.push_back(0.0);
  migration_started_at_.push_back(0.0);
  stream_.push_back(
      config_.behavior_root.fork_small(static_cast<std::uint64_t>(i)));
  action_.push_back(0);

  if (!std::isfinite(start_time_s) || start_time_s < 0.0) {
    throw std::invalid_argument("ClientSwarm: invalid start time");
  }
  start_at_.push_back(loop().now() + start_time_s);
  return i;
}

std::int32_t ClientSwarm::add_client(const NicConfig& nic,
                                     double start_time_s) {
  if (first_bot_ != static_cast<std::int32_t>(port_.size())) {
    throw std::logic_error("ClientSwarm: benign members must precede bots");
  }
  const std::int32_t i = add_member(nic, start_time_s);
  first_bot_ = i + 1;
  return i;
}

std::int32_t ClientSwarm::add_bot(const NicConfig& nic, double start_time_s,
                                  core::BotState state) {
  const std::int32_t i = add_member(nic, start_time_s);
  bot_state_.push_back(state);
  bot_started_.push_back(0);
  bot_active_.push_back(0);
  junk_next_.push_back(kNever);
  heavy_next_.push_back(kNever);
  junk_due_.push_back(0);
  heavy_due_.push_back(0);
  return i;
}

void ClientSwarm::finalize() {
  if (finalized_) throw std::logic_error("ClientSwarm: finalize() twice");
  finalized_ = true;
  if (members() > 0) {
    // One walking event starts the whole population: sort members by
    // (start instant, add order) — exactly the order one scheduled closure
    // per member would have fired in — and chain from start to start.
    start_order_.resize(start_at_.size());
    std::iota(start_order_.begin(), start_order_.end(), 0);
    std::stable_sort(start_order_.begin(), start_order_.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       return start_at_[static_cast<std::size_t>(a)] <
                              start_at_[static_cast<std::size_t>(b)];
                     });
    loop().schedule_at(start_at_[static_cast<std::size_t>(start_order_[0])],
                       [this] { start_walk(); });
    loop().schedule_after(kSweepDtS, [this] { sweep(); });
  }
  if (config_.strategy != nullptr && bot_members() > 0) {
    loop().schedule_after(config_.strategy_round_s,
                          [this] { strategy_round(); });
  }
}

void ClientSwarm::start_walk() {
  const double now = loop().now();
  while (start_next_ < start_order_.size()) {
    const std::int32_t i = start_order_[start_next_];
    const double at = start_at_[static_cast<std::size_t>(i)];
    if (at > now) {
      loop().schedule_at(at, [this] { start_walk(); });
      return;
    }
    ++start_next_;
    begin_join(i);
  }
  start_at_ = {};
  start_order_ = {};
}

double ClientSwarm::exp_gap(std::int32_t i, double rate) {
  // Exponential gap off the member's private stream (the inverse-CDF form
  // of util::Rng::exponential).
  return -std::log1p(-stream_[static_cast<std::size_t>(i)].uniform()) / rate;
}

void ClientSwarm::begin_join(std::int32_t i) {
  const auto s = static_cast<std::size_t>(i);
  phase_[s] = kResolving;
  retries_[s] = 0;
  ws_replica_[s] = kInvalidNode;
  flags_[s] &= static_cast<std::uint8_t>(~kHbAwait);
  hb_next_[s] = kNever;
  hb_deadline_[s] = kNever;
  browse_next_[s] = kNever;
  send_from(port_[s], config_.dns, MessageType::kDnsQuery, kDnsMessageBytes,
            DnsQueryPayload{service_id_});
  deadline_[s] = loop().now() + timeout_s(i);
}

void ClientSwarm::request_page(std::int32_t i) {
  const auto s = static_cast<std::size_t>(i);
  phase_[s] = kLoadingPage;
  page_requested_at_[s] = loop().now();
  send_from(port_[s], replica_[s], MessageType::kHttpGet, kHttpRequestBytes,
            HttpGetPayload{ip_[s]});
  deadline_[s] = loop().now() + timeout_s(i);
}

void ClientSwarm::bot_report(std::int32_t i) {
  if (config_.botmaster == kInvalidNode) return;
  const auto s = static_cast<std::size_t>(i);
  send_from(port_[s], config_.botmaster, MessageType::kBotReport,
            kControlMessageBytes, BotReportPayload{replica_[s]});
}

void ClientSwarm::handle_connected(std::int32_t i, bool migrated) {
  const auto s = static_cast<std::size_t>(i);
  const double now = loop().now();
  phase_[s] = kConnected;
  deadline_[s] = kNever;
  ws_replica_[s] = replica_[s];
  flags_[s] &= static_cast<std::uint8_t>(~kHbAwait);
  hb_deadline_[s] = kNever;
  if (!is_bot(i)) {
    hb_next_[s] = config_.heartbeat_s > 0.0 ? now + config_.heartbeat_s
                                            : kNever;
    browse_next_[s] = config_.browse_think_s > 0.0
                          ? now + exp_gap(i, 1.0 / config_.browse_think_s)
                          : kNever;
  }
  if (migrated) {
    flags_[s] &= static_cast<std::uint8_t>(~kMigrating);
    ++stats_.migrations_completed;
    stats_.migration_seconds_sum += now - migration_started_at_[s];
    observe(MemberEvent::Kind::kMigration, i, migration_started_at_[s], now);
  }
  if (!is_bot(i)) return;

  // ---- bot connect/migrate hooks -------------------------------------------
  const auto k = static_cast<std::size_t>(i - first_bot_);
  bot_report(i);
  if (migrated) {
    if (config_.strategy != nullptr && config_.strategy->reacts_to_shuffle()) {
      const core::StrategyContext ctx{round_, config_.strategy_replicas};
      const core::Count away =
          config_.strategy->on_shuffled_one(ctx, bot_state_[k]);
      if (away >= 0) bot_active_[k] = 0;  // went dark until the counter drains
    }
    return;
  }
  if (bot_started_[k] != 0) return;  // cadences already running
  bot_started_[k] = 1;
  // A bot decides at its connect instant, then at every botnet-wide round:
  // a strategy bot that waited for the next round boundary would hold its
  // first shots for up to strategy_round_s.
  bot_active_[k] = config_.strategy == nullptr ||
                   config_.strategy->decide_one(
                       core::StrategyContext{round_, config_.strategy_replicas},
                       bot_state_[k]);
  // First shot fires at connect, then the sweep drives the cadence.
  if (config_.bot_junk_rate_pps > 0.0) {
    if (bot_active_[k] != 0) {
      send_from(port_[s], replica_[s], MessageType::kJunkPacket,
                kJunkPacketBytes);
      ++stats_.junk_sent;
    }
    junk_next_[k] = now + exp_gap(i, config_.bot_junk_rate_pps);
  }
  if (config_.bot_heavy_interval_s > 0.0) {
    if (bot_active_[k] != 0) {
      send_from(port_[s], replica_[s], MessageType::kHeavyRequest,
                kHttpRequestBytes,
                HeavyRequestPayload{ip_[s], config_.bot_heavy_cpu_seconds});
      ++stats_.heavy_sent;
    }
    heavy_next_[k] = now + config_.bot_heavy_interval_s;
  }
}

void ClientSwarm::handle_timeout(std::int32_t i) {
  const auto s = static_cast<std::size_t>(i);
  const double now = loop().now();
  ++stats_.timeouts;
  observe(MemberEvent::Kind::kTimeout, i, deadline_[s] - timeout_s(i), now);
  if (++retries_[s] > kMaxRetries) {
    ++stats_.rejoins;
    begin_join(i);
    return;
  }
  switch (phase_[s]) {
    case kResolving:
      send_from(port_[s], config_.dns, MessageType::kDnsQuery,
                kDnsMessageBytes, DnsQueryPayload{service_id_});
      break;
    case kContactingLb:
      send_from(port_[s], lb_[s], MessageType::kClientHello,
                kHttpRequestBytes, ClientHelloPayload{ip_[s]});
      break;
    case kLoadingPage:
      send_from(port_[s], replica_[s], MessageType::kHttpGet,
                kHttpRequestBytes, HttpGetPayload{ip_[s]});
      break;
    case kOpeningWs:
      send_from(port_[s], replica_[s], MessageType::kWsOpen, kWsFrameBytes,
                WsOpenPayload{ip_[s]});
      break;
    default:
      return;
  }
  deadline_[s] = now + timeout_s(i);
}

void ClientSwarm::on_message(const Message& msg) {
  const std::int32_t i = member_of(msg.dst);
  if (i < 0 || i >= members()) return;
  const auto s = static_cast<std::size_t>(i);
  switch (msg.type) {
    case MessageType::kDnsReply: {
      if (phase_[s] != kResolving) break;
      const auto& reply = payload_as<DnsReplyPayload>(msg);
      lb_[s] = reply.load_balancer;
      phase_[s] = kContactingLb;
      retries_[s] = 0;
      send_from(port_[s], lb_[s], MessageType::kClientHello,
                kHttpRequestBytes, ClientHelloPayload{ip_[s]});
      deadline_[s] = loop().now() + timeout_s(i);
      break;
    }
    case MessageType::kRedirect: {
      if (phase_[s] != kContactingLb) break;
      replica_[s] = payload_as<RedirectPayload>(msg).target_replica;
      retries_[s] = 0;
      request_page(i);
      break;
    }
    case MessageType::kHttpResponse: {
      if (phase_[s] != kLoadingPage || msg.src != replica_[s]) break;
      const double now = loop().now();
      ++stats_.page_loads;
      stats_.page_load_seconds_sum += now - page_requested_at_[s];
      if (stats_.first_page_at < 0.0) stats_.first_page_at = now;
      observe(MemberEvent::Kind::kPageLoad, i, page_requested_at_[s], now);
      retries_[s] = 0;
      if (ws_replica_[s] == replica_[s]) {
        // Reload on an already-connected replica: WebSocket still up.
        phase_[s] = kConnected;
        deadline_[s] = kNever;
        if (!is_bot(i) && config_.browse_think_s > 0.0) {
          browse_next_[s] = now + exp_gap(i, 1.0 / config_.browse_think_s);
        }
        break;
      }
      phase_[s] = kOpeningWs;
      send_from(port_[s], replica_[s], MessageType::kWsOpen, kWsFrameBytes,
                WsOpenPayload{ip_[s]});
      deadline_[s] = now + timeout_s(i);
      break;
    }
    case MessageType::kWsOpenAck: {
      if (phase_[s] != kOpeningWs || msg.src != replica_[s]) break;
      handle_connected(i, (flags_[s] & kMigrating) != 0);
      break;
    }
    case MessageType::kWsPong: {
      if (msg.src != ws_replica_[s]) break;
      flags_[s] &= static_cast<std::uint8_t>(~kHbAwait);
      hb_deadline_[s] = kNever;
      hb_next_[s] = config_.heartbeat_s > 0.0 && !is_bot(i)
                        ? loop().now() + config_.heartbeat_s
                        : kNever;
      break;
    }
    case MessageType::kWsPush: {
      const auto& push = payload_as<WsPushPayload>(msg);
      // Duplicate-safe: re-sent shuffle commands and injected duplicates can
      // deliver one push twice, and a push to where the member is already
      // heading (or connected) is a no-op, not a spurious reload.
      if (push.new_replica == replica_[s] &&
          ((flags_[s] & kMigrating) != 0 || ws_replica_[s] == replica_[s])) {
        break;
      }
      if ((flags_[s] & kMigrating) == 0) {
        flags_[s] |= kMigrating;
        migration_started_at_[s] = loop().now();
      }
      replica_[s] = push.new_replica;
      retries_[s] = 0;
      request_page(i);
      break;
    }
    default:
      break;
  }
}

// ---- periodic sweep --------------------------------------------------------

void ClientSwarm::scan_member(std::int32_t i, double now) {
  const auto s = static_cast<std::size_t>(i);
  std::uint8_t action = 0;
  const std::uint8_t phase = phase_[s];
  if (deadline_[s] <= now && phase >= kResolving && phase <= kOpeningWs) {
    action |= kActTimeout;
  }
  if (phase == kConnected) {
    if ((flags_[s] & kHbAwait) != 0) {
      if (hb_deadline_[s] <= now) action |= kActHbFail;
    } else if (hb_next_[s] <= now) {
      action |= kActHbPing;
    }
    if (browse_next_[s] <= now) action |= kActBrowse;
  }
  if (is_bot(i)) {
    const auto k = static_cast<std::size_t>(i - first_bot_);
    // Cadence streams keep ticking (and drawing) even while the strategy
    // holds the bot dormant or the connection is down, so enabling a
    // strategy never shifts the timing stream.
    const bool firing = bot_active_[k] != 0 && phase == kConnected &&
                        replica_[s] != kInvalidNode;
    std::uint16_t junk = 0;
    while (junk_next_[k] <= now) {
      junk_next_[k] += exp_gap(i, config_.bot_junk_rate_pps);
      if (firing && junk < std::numeric_limits<std::uint16_t>::max()) ++junk;
    }
    std::uint16_t heavy = 0;
    while (heavy_next_[k] <= now) {
      heavy_next_[k] += config_.bot_heavy_interval_s;
      if (firing && heavy < std::numeric_limits<std::uint16_t>::max()) {
        ++heavy;
      }
    }
    junk_due_[k] = junk;
    heavy_due_[k] = heavy;
    if (junk > 0 || heavy > 0) action |= kActBot;
  }
  action_[s] = action;
}

void ClientSwarm::emit_actions(double now) {
  const std::int32_t n = members();
  for (std::int32_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(i);
    const std::uint8_t action = action_[s];
    if (action == 0) continue;
    if ((action & kActHbFail) != 0) {
      // Silence on the WebSocket: the replica died without a redirect.
      // Fall back to the pull path through DNS.
      ++stats_.heartbeat_failures;
      ++stats_.rejoins;
      begin_join(i);
    } else if ((action & kActTimeout) != 0) {
      handle_timeout(i);
    } else {
      if ((action & kActHbPing) != 0) {
        send_from(port_[s], ws_replica_[s], MessageType::kWsPing,
                  kWsFrameBytes);
        flags_[s] |= kHbAwait;
        hb_deadline_[s] = now + timeout_s(i);
        hb_next_[s] = kNever;
      }
      if ((action & kActBrowse) != 0) {
        browse_next_[s] = kNever;  // re-armed when the reload completes
        retries_[s] = 0;
        request_page(i);
      }
    }
    if ((action & kActBot) != 0 && phase_[s] == kConnected &&
        replica_[s] != kInvalidNode) {
      const auto k = static_cast<std::size_t>(i - first_bot_);
      for (std::uint16_t j = 0; j < junk_due_[k]; ++j) {
        send_from(port_[s], replica_[s], MessageType::kJunkPacket,
                  kJunkPacketBytes);
        ++stats_.junk_sent;
      }
      for (std::uint16_t j = 0; j < heavy_due_[k]; ++j) {
        send_from(port_[s], replica_[s], MessageType::kHeavyRequest,
                  kHttpRequestBytes,
                  HeavyRequestPayload{ip_[s], config_.bot_heavy_cpu_seconds});
        ++stats_.heavy_sent;
      }
    }
  }
}

void ClientSwarm::sweep() {
  const double now = loop().now();
  const std::int32_t n = members();
  if (config_.shard_threads > 1 && n >= kShardMinMembers) {
    // Parallel scan: every draw comes from the member's own stream and every
    // write lands in the member's own slots, so chunk boundaries (fixed by
    // the pool's grain contract) cannot change the result.
    auto& pool = util::ThreadPool::shared();
    auto job = pool.submit(
        0, n,
        [this, now](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            scan_member(static_cast<std::int32_t>(i), now);
          }
        },
        kShardGrain, static_cast<std::size_t>(config_.shard_threads));
    pool.wait(job);
  } else {
    for (std::int32_t i = 0; i < n; ++i) scan_member(i, now);
  }
  // Serial emission in member-index order: the only pass that touches the
  // network, stats, or phases — the event loop stays single-threaded.
  emit_actions(now);
  loop().schedule_after(kSweepDtS, [this] { sweep(); });
}

void ClientSwarm::strategy_round() {
  const core::StrategyContext ctx{++round_, config_.strategy_replicas};
  const std::int32_t n = bot_members();
  const std::span<core::BotState> bots(bot_state_);
  const std::span<const std::uint8_t> present(bot_started_);
  const std::span<std::uint8_t> active(bot_active_);
  auto run = [&](std::int64_t lo, std::int64_t hi) {
    const auto b = static_cast<std::size_t>(lo);
    const auto len = static_cast<std::size_t>(hi - lo);
    config_.strategy->decide(ctx, bots.subspan(b, len),
                             present.subspan(b, len), active.subspan(b, len));
  };
  if (config_.shard_threads > 1 && n >= kShardMinMembers) {
    auto& pool = util::ThreadPool::shared();
    auto job = pool.submit(0, n, run, kShardGrain,
                           static_cast<std::size_t>(config_.shard_threads));
    pool.wait(job);
  } else if (n > 0) {
    run(0, n);
  }
  loop().schedule_after(config_.strategy_round_s, [this] { strategy_round(); });
}

std::int64_t ClientSwarm::clients_connected() const {
  std::int64_t count = 0;
  for (std::int32_t i = 0; i < first_bot_; ++i) {
    if (phase_[static_cast<std::size_t>(i)] == kConnected) ++count;
  }
  return count;
}

}  // namespace shuffledef::cloudsim
