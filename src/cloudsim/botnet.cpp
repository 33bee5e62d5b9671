#include "cloudsim/botnet.h"

namespace shuffledef::cloudsim {

// ---- NaiveBot --------------------------------------------------------------

NaiveBot::NaiveBot(World& world, std::string name, NaiveBotConfig config)
    : Node(world, std::move(name)), config_(config) {}

void NaiveBot::on_message(const Message& msg) {
  if (msg.type != MessageType::kFloodCommand) return;
  const auto& cmd = payload_as<FloodCommandPayload>(msg);
  targets_ = cmd.targets;
  next_target_ = 0;
  if (!ticking_ && !targets_.empty() && config_.junk_rate_pps > 0.0) {
    ticking_ = true;
    flood_tick();
  }
}

void NaiveBot::flood_tick() {
  if (targets_.empty()) {
    ticking_ = false;
    return;
  }
  // Naive bots keep hammering stale addresses; the network drops traffic to
  // recycled instances, which is precisely the evasion effect.
  const NodeId target = targets_[next_target_ % targets_.size()];
  next_target_ = (next_target_ + 1) % targets_.size();
  send(target, MessageType::kJunkPacket, kJunkPacketBytes);
  ++junk_sent_;
  loop().schedule_after(rng().exponential(config_.junk_rate_pps),
                        [this] { flood_tick(); });
}

// ---- Botmaster -------------------------------------------------------------

Botmaster::Botmaster(World& world, std::string name)
    : Node(world, std::move(name)) {}

void Botmaster::on_start() {
  loop().schedule_after(kCommandIntervalS, [this] { command_tick(); });
}

void Botmaster::on_message(const Message& msg) {
  if (msg.type != MessageType::kBotReport) return;
  const auto& report = payload_as<BotReportPayload>(msg);
  if (report.observed_replica == kInvalidNode) return;
  if (hit_list_.insert(report.observed_replica).second) {
    hit_list_dirty_ = true;
  }
}

void Botmaster::command_tick() {
  // Drop recycled replicas from the hit list only when a persistent bot
  // reports a fresh address — the botmaster itself cannot tell a silent
  // target from a dead one (naive bots flood dead addresses meanwhile).
  if (hit_list_dirty_ && !naive_bots_.empty()) {
    hit_list_dirty_ = false;
    FloodCommandPayload cmd;
    cmd.targets.assign(hit_list_.begin(), hit_list_.end());
    for (const NodeId bot : naive_bots_) {
      send(bot, MessageType::kFloodCommand, kControlMessageBytes, cmd);
    }
  }
  loop().schedule_after(kCommandIntervalS, [this] { command_tick(); });
}

}  // namespace shuffledef::cloudsim
