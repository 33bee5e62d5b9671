// The botnet's hit-list side (paper §II-B).  Persistent bots — insiders
// that join like browsers, follow shuffle redirects and report every
// replica address they land on — are ClientSwarm members
// (cloudsim/client_swarm.h).
//
//   Botmaster — aggregates the persistent bots' reconnaissance and
//     periodically commands the naive bots to flood the currently known
//     replica addresses (the "hit list").
//
//   NaiveBot — floods whatever addresses it was last told; it cannot follow
//     moving targets, so after one server replacement its packets pour into
//     detached NICs (the defense's evasion of hit-list attackers).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "cloudsim/node.h"

namespace shuffledef::cloudsim {

struct NaiveBotConfig {
  double junk_rate_pps = 100.0;  // spread across the current hit list
};

class NaiveBot final : public Node {
 public:
  NaiveBot(World& world, std::string name, NaiveBotConfig config);

  void on_message(const Message& msg) override;

  [[nodiscard]] std::uint64_t junk_sent() const { return junk_sent_; }

 private:
  void flood_tick();

  NaiveBotConfig config_;
  std::vector<NodeId> targets_;
  std::size_t next_target_ = 0;
  bool ticking_ = false;
  std::uint64_t junk_sent_ = 0;
};

class Botmaster final : public Node {
 public:
  Botmaster(World& world, std::string name);

  void add_naive_bot(NodeId bot) { naive_bots_.push_back(bot); }

  void on_start() override;
  void on_message(const Message& msg) override;

  [[nodiscard]] const std::set<NodeId>& hit_list() const { return hit_list_; }

 private:
  /// Period of the flood commands to the naive bots.
  static constexpr double kCommandIntervalS = 1.0;

  void command_tick();

  std::vector<NodeId> naive_bots_;
  std::set<NodeId> hit_list_;
  bool hit_list_dirty_ = false;
};

}  // namespace shuffledef::cloudsim
