#include "cloudsim/coordination_server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/provisioning.h"
#include "obs/span.h"
#include "util/logging.h"

namespace shuffledef::cloudsim {

CoordinationServer::CoordinationServer(World& world, std::string name,
                                       CoordinatorConfig config)
    : Node(world, std::move(name)),
      config_(config),
      controller_(config.controller) {
  if (config_.fixed_cadence_s < 0) {
    throw std::invalid_argument("CoordinatorConfig: negative fixed cadence");
  }
  if (config_.qos.enabled) {
    phase_machine_.emplace(config_.qos);  // validates config_.qos
  }
  if (auto* registry = config_.controller.registry; registry != nullptr) {
    metrics_.attack_reports = registry->counter(kMetricCoordAttackReports);
    metrics_.rounds_executed = registry->counter(kMetricCoordRoundsExecuted);
    metrics_.clients_migrated = registry->counter(kMetricCoordClientsMigrated);
    metrics_.replicas_recycled =
        registry->counter(kMetricCoordReplicasRecycled);
    metrics_.provision_retries =
        registry->counter(kMetricCoordProvisionRetries);
    metrics_.rounds_degraded = registry->counter(kMetricCoordRoundsDegraded);
    metrics_.rounds_aborted = registry->counter(kMetricCoordRoundsAborted);
    metrics_.command_retries = registry->counter(kMetricCoordCommandRetries);
    metrics_.replicas_presumed_crashed =
        registry->counter(kMetricCoordReplicasPresumedCrashed);
    metrics_.late_spares_banked =
        registry->counter(kMetricCoordLateSparesBanked);
    metrics_.shuffles_declined =
        registry->counter(kMetricCoordShufflesDeclined);
    metrics_.qos_reports = registry->counter(kMetricCoordQosReports);
    metrics_.phase_switches = registry->counter(kMetricCoordPhaseSwitches);
    metrics_.autoscale_provisioned =
        registry->counter(kMetricCoordAutoscaleProvisioned);
    metrics_.autoscale_released =
        registry->counter(kMetricCoordAutoscaleReleased);
    metrics_.phase = registry->gauge(kMetricCoordPhase);
    metrics_.overloaded_replicas =
        registry->gauge(kMetricCoordOverloadedReplicas);
    metrics_.remaps_inflight = registry->gauge(kMetricCoordRemapsInflight);
    metrics_.remaps_inflight_peak =
        registry->gauge(kMetricCoordRemapsInflightPeak);
  }
}

void CoordinationServer::on_start() {
  if (config_.fixed_cadence_s > 0) {
    loop().schedule_after(config_.fixed_cadence_s, [this] { cadence_tick(); });
  }
}

void CoordinationServer::cadence_tick() {
  // The paper's proactive model: every T seconds, every active replica
  // shuffles — no feedback consulted.  This is the baseline the closed loop
  // is benchmarked against (bench/abl_qos_feedback).
  for (const NodeId r : active_replicas_) attacked_.insert(r);
  if (!attacked_.empty()) schedule_round();
  loop().schedule_after(config_.fixed_cadence_s, [this] { cadence_tick(); });
}

void CoordinationServer::set_infrastructure(
    CloudProvider* provider, std::vector<LoadBalancer*> load_balancers) {
  if (provider == nullptr) {
    throw std::invalid_argument("CoordinationServer: null provider");
  }
  provider_ = provider;
  load_balancers_ = std::move(load_balancers);
  provider_->set_coordinator(id());
}

void CoordinationServer::register_replica(NodeId replica) {
  active_replicas_.insert(replica);
  for (auto* lb : load_balancers_) lb->add_replica(replica);
}

void CoordinationServer::add_hot_spare(NodeId replica) {
  hot_spares_.push_back(replica);
}

ReplicaServer* CoordinationServer::replica_ptr(NodeId id) {
  return dynamic_cast<ReplicaServer*>(world().node(id));
}

double CoordinationServer::backoff_s(int attempt) {
  double delay = kRetryBackoffInitialS;
  for (int i = 1; i < attempt; ++i) {
    delay *= 2.0;
    if (delay >= kRetryBackoffCapS) break;
  }
  return std::min(delay, kRetryBackoffCapS);
}

void CoordinationServer::on_message(const Message& msg) {
  switch (msg.type) {
    case MessageType::kAttackReport: {
      const auto& report = payload_as<AttackReportPayload>(msg);
      ++stats_.attack_reports;
      metrics_.attack_reports.inc();
      if (!active_replicas_.contains(report.replica)) break;  // stale
      attacked_.insert(report.replica);
      schedule_round();
      break;
    }
    case MessageType::kQosReport: {
      if (!phase_machine_.has_value()) break;  // loop disabled
      const auto& report = payload_as<QosReportPayload>(msg);
      ++stats_.qos_reports;
      metrics_.qos_reports.inc();
      if (!active_replicas_.contains(report.replica)) break;  // stale
      qos_table_[report.replica] =
          QosSample{report.latency_ewma_s, report.queue_depth_s, loop().now()};
      evaluate_qos();
      break;
    }
    case MessageType::kDecommission: {
      const auto& dec = payload_as<DecommissionPayload>(msg);
      pending_commands_.erase(dec.replica);  // command acknowledged
      note_remaps_inflight();
      qos_table_.erase(dec.replica);
      // Duplicate-safe: only the first ack for a replica recycles it.
      if (active_replicas_.erase(dec.replica) == 0) break;
      for (auto* lb : load_balancers_) lb->remove_replica(dec.replica);
      provider_->recycle(dec.replica);
      ++stats_.replicas_recycled;
      metrics_.replicas_recycled.inc();
      // A drained remap frees cap budget; anything the cap deferred can go.
      if (config_.qos.enabled && !attacked_.empty()) schedule_round();
      break;
    }
    default:
      break;
  }
}

void CoordinationServer::note_remaps_inflight() {
  const auto n = static_cast<std::int64_t>(pending_commands_.size());
  stats_.remaps_inflight_peak = std::max(stats_.remaps_inflight_peak, n);
  metrics_.remaps_inflight.set(n);
  metrics_.remaps_inflight_peak.max_with(n);
}

void CoordinationServer::evaluate_qos() {
  const double now = loop().now();
  // Forget silent replicas (crashed, or their control lane lossy): a dead
  // sample must not pin the overloaded set — or the recovery — forever.
  std::erase_if(qos_table_, [&](const auto& kv) {
    return !active_replicas_.contains(kv.first) ||
           now - kv.second.at > kQosStaleAfterS;
  });

  // Threshold each replica into the overloaded set (memec: per-server load
  // vs threshold).  Either signal suffices: latency EWMA catches the CPU
  // queue, queue depth catches a flooded NIC the CPU never notices.
  std::vector<NodeId> overloaded;
  for (const auto& [replica, sample] : qos_table_) {
    if (sample.latency_s > config_.qos.overload_latency_s ||
        sample.queue_s > config_.qos.overload_queue_s) {
      overloaded.push_back(replica);
    }
  }
  const auto total = static_cast<std::int32_t>(active_replicas_.size());
  metrics_.overloaded_replicas.set(
      static_cast<std::int64_t>(overloaded.size()));

  const auto switched = phase_machine_->update(
      now, static_cast<std::int32_t>(overloaded.size()), total);
  if (switched.has_value()) {
    ++stats_.phase_switches;
    metrics_.phase_switches.inc();
    metrics_.phase.set(*switched == QosPhase::kOverload ? 1 : 0);
    SDEF_LOG(Info) << name() << ": phase -> " << qos_phase_name(*switched)
                   << " (" << overloaded.size() << "/" << total
                   << " overloaded)";
    if (*switched == QosPhase::kNormal) release_spares();
  }
  if (phase_machine_->phase() == QosPhase::kOverload) {
    // The latency-feedback trigger: overloaded replicas shuffle.  Theorem-1
    // autoscaling keeps the spare pool sized while the overload lasts, so
    // rounds skip the boot delay.
    for (const NodeId r : overloaded) attacked_.insert(r);
    if (!attacked_.empty()) schedule_round();
    autoscale_up();
  }
}

void CoordinationServer::autoscale_up() {
  if (!config_.qos.autoscale || provider_ == nullptr) return;
  // Keep enough warm spares for the *next* shuffle round to skip the boot
  // delay entirely: Theorem 1 gives the replica count that keeps the bot
  // estimate identifiable at the observed attack intensity (the
  // controller's current M-hat), and that is exactly what the round will
  // consume.  The overall fleet (active + spares + boots in flight) stays
  // capped at max_autoscale_replicas.
  const auto headroom =
      static_cast<std::int64_t>(config_.qos.max_autoscale_replicas) -
      static_cast<std::int64_t>(active_replicas_.size());
  const auto want = std::min<std::int64_t>(
      core::min_replicas_for_estimation(controller_.bot_estimate()),
      headroom);
  const auto have = static_cast<std::int64_t>(hot_spares_.size()) +
                    autoscale_pending_;
  for (std::int64_t i = have; i < want; ++i) {
    ++autoscale_pending_;
    provider_->provision([this](NodeId fresh) {
      --autoscale_pending_;
      ++stats_.autoscale_provisioned;
      metrics_.autoscale_provisioned.inc();
      if (phase_machine_->phase() == QosPhase::kNormal &&
          static_cast<std::int64_t>(hot_spares_.size()) >=
              config_.qos.reserve_spares) {
        // Recovery beat the boot: release the straggler immediately
        // instead of parking capacity nobody will consume.
        provider_->recycle(fresh);
        ++stats_.replicas_recycled;
        metrics_.replicas_recycled.inc();
        ++stats_.autoscale_released;
        metrics_.autoscale_released.inc();
        return;
      }
      add_hot_spare(fresh);
      ++autoscale_spares_;
    });
  }
}

void CoordinationServer::release_spares() {
  // Latency recovered: scale the warm pool back down to the configured
  // reserve, but only ever release spares the autoscaler booted itself —
  // the world-start seed spares stay parked.  Counted into
  // replicas_recycled so the conservation invariant (coordinator recycles
  // == provider recycles) keeps holding.
  while (autoscale_spares_ > 0 &&
         static_cast<std::int64_t>(hot_spares_.size()) >
             config_.qos.reserve_spares) {
    const NodeId spare = hot_spares_.back();
    hot_spares_.pop_back();
    --autoscale_spares_;
    provider_->recycle(spare);
    ++stats_.replicas_recycled;
    metrics_.replicas_recycled.inc();
    ++stats_.autoscale_released;
    metrics_.autoscale_released.inc();
  }
}

void CoordinationServer::schedule_round() {
  if (round_pending_ || round_in_flight_) return;
  round_pending_ = true;
  loop().schedule_after(config_.aggregation_window_s,
                        [this] { execute_round(); });
}

void CoordinationServer::execute_round() {
  const obs::Span span(config_.controller.registry, "coord.execute_round");
  round_pending_ = false;
  if (attacked_.empty() || provider_ == nullptr) return;

  // Snapshot the attacked replicas.  Replicas that already have a shuffle
  // command in flight are not re-shuffled; their retry loop owns them until
  // the kDecommission ack (or force-recycle).
  std::vector<NodeId> attacked(attacked_.begin(), attacked_.end());
  attacked_.clear();
  std::vector<NodeId> still_active;
  for (const NodeId r : attacked) {
    if (!active_replicas_.contains(r)) continue;
    if (pending_commands_.contains(r)) continue;
    still_active.push_back(r);
  }
  attacked = std::move(still_active);

  // Concurrent-remap cap (memec `states.maximum`): this round may only
  // start as many remaps as the budget left by still-unacked commands.  The
  // overflow goes back into attacked_ for the next round.
  if (config_.qos.enabled && config_.qos.max_concurrent_remaps > 0) {
    const auto budget = std::max<std::int64_t>(
        0, config_.qos.max_concurrent_remaps -
               static_cast<std::int64_t>(pending_commands_.size()));
    if (static_cast<std::int64_t>(attacked.size()) > budget) {
      const auto deferred =
          static_cast<std::int64_t>(attacked.size()) - budget;
      for (std::size_t i = static_cast<std::size_t>(budget);
           i < attacked.size(); ++i) {
        attacked_.insert(attacked[i]);
      }
      attacked.resize(static_cast<std::size_t>(budget));
      stats_.remap_cap_deferred += deferred;
      SDEF_LOG(Info) << name() << ": remap cap defers " << deferred
                     << " replica(s) to a later round";
    }
  }
  if (attacked.empty()) {
    // Everything deferred: the deferred set re-arms once in-flight remaps
    // drain (the next kQosReport / attack report reschedules).
    return;
  }

  // The affected client pool, in deterministic replica order.
  std::vector<std::pair<IpId, NodeId>> pool;
  for (const NodeId r : attacked) {
    const auto clients = replica_ptr(r)->connected_clients();
    pool.insert(pool.end(), clients.begin(), clients.end());
  }

  // MLE observation: which of the previous round's replicas were attacked?
  std::optional<core::ShuffleObservation> obs;
  if (last_round_.has_value() && controller_.config().use_mle) {
    std::vector<bool> flags;
    flags.reserve(last_round_->replicas.size());
    const std::set<NodeId> attacked_set(attacked.begin(), attacked.end());
    for (const NodeId r : last_round_->replicas) {
      flags.push_back(attacked_set.contains(r));
    }
    obs = core::ShuffleObservation{core::AssignmentPlan(last_round_->sizes),
                                   std::move(flags)};
  }
  if (!seeded_estimate_) {
    seeded_estimate_ = true;
    controller_.set_bot_estimate(std::max<core::Count>(
        1, static_cast<core::Count>(std::llround(
               config_.initial_bot_fraction *
               static_cast<double>(pool.size())))));
  }

  auto decision =
      controller_.decide(static_cast<core::Count>(pool.size()), obs);
  if (!decision.execute) {
    // Cost-aware decline: the expected saving does not pay for the
    // migration.  This window's reports are dropped — replicas under
    // continued attack keep reporting, so the round re-arms on fresh
    // reports and executes once the economics change.
    ++stats_.shuffles_declined;
    metrics_.shuffles_declined.inc();
    SDEF_LOG(Info) << name() << ": shuffle declined — expected net save "
                   << decision.expected_net_save << " below threshold "
                   << config_.controller.min_expected_net_save;
    return;
  }

  round_in_flight_ = true;
  const auto replica_count =
      static_cast<std::int64_t>(decision.plan.replica_count());
  SDEF_LOG(Info) << name() << ": shuffle round " << stats_.rounds_executed + 1
                 << " — " << attacked.size() << " attacked, pool "
                 << pool.size() << ", M-hat " << decision.bot_estimate
                 << ", new replicas " << replica_count;

  auto round = std::make_shared<PendingRound>();
  round->attacked = std::move(attacked);
  round->pool = std::move(pool);
  round->decision = std::move(decision);
  round->target = replica_count;

  // Consume hot spares first; only the shortfall pays the boot delay.
  while (!hot_spares_.empty() &&
         static_cast<std::int64_t>(round->ready.size()) < round->target) {
    round->ready.push_back(hot_spares_.back());
    hot_spares_.pop_back();
  }
  // Spares are consumed newest-first, so autoscaler-booted ones go first;
  // clamp what recovery may later release to what is actually still parked.
  autoscale_spares_ = std::min(
      autoscale_spares_, static_cast<std::int64_t>(hot_spares_.size()));
  const std::int64_t shortfall =
      round->target - static_cast<std::int64_t>(round->ready.size());
  if (shortfall == 0) {
    finish_round(round);
    return;
  }
  round->attempt = 1;
  request_wave(round, shortfall);
  arm_provision_watchdog(round);
}

void CoordinationServer::request_wave(
    const std::shared_ptr<PendingRound>& round, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    provider_->provision([this, round](NodeId fresh) {
      if (round->deployed) {
        // Straggler from a presumed-lost wave: keep it warm for the next
        // round instead of throwing the boot away.
        add_hot_spare(fresh);
        ++stats_.late_spares_banked;
        metrics_.late_spares_banked.inc();
        return;
      }
      round->ready.push_back(fresh);
      if (static_cast<std::int64_t>(round->ready.size()) >= round->target) {
        finish_round(round);
      }
    });
  }
}

void CoordinationServer::arm_provision_watchdog(
    const std::shared_ptr<PendingRound>& round) {
  const int armed_attempt = round->attempt;
  loop().schedule_after(kProvisionTimeoutS, [this, round, armed_attempt] {
    if (round->deployed || round->attempt != armed_attempt) return;
    const std::int64_t missing =
        round->target - static_cast<std::int64_t>(round->ready.size());
    if (round->attempt > kProvisionMaxRetries) {
      // Out of retries: deploy degraded onto whatever booted.
      SDEF_LOG(Warn) << name() << ": provisioning gave up with "
                     << round->ready.size() << "/" << round->target
                     << " replicas";
      finish_round(round);
      return;
    }
    ++round->attempt;
    ++stats_.provision_retries;
    metrics_.provision_retries.inc();
    const double delay = backoff_s(round->attempt - 1);
    SDEF_LOG(Info) << name() << ": provisioning wave " << round->attempt
                   << " re-requests " << missing << " instances after "
                   << delay << "s backoff";
    loop().schedule_after(delay, [this, round, missing] {
      if (round->deployed) return;
      request_wave(round, missing);
      arm_provision_watchdog(round);
    });
  });
}

void CoordinationServer::finish_round(
    const std::shared_ptr<PendingRound>& round) {
  if (round->deployed) return;
  round->deployed = true;

  std::vector<NodeId> replicas = round->ready;
  if (static_cast<std::int64_t>(replicas.size()) > round->target) {
    // A retry wave over-delivered; bank the surplus as hot spares.
    while (static_cast<std::int64_t>(replicas.size()) > round->target) {
      add_hot_spare(replicas.back());
      replicas.pop_back();
      ++stats_.late_spares_banked;
      metrics_.late_spares_banked.inc();
    }
  }
  if (replicas.empty()) {
    // Nothing booted at all: put the reports back and try again later (the
    // aggregation window plus backoff paces the retry).
    ++stats_.rounds_aborted;
    metrics_.rounds_aborted.inc();
    SDEF_LOG(Warn) << name() << ": round aborted — no replicas available";
    for (const NodeId r : round->attacked) {
      if (active_replicas_.contains(r)) attacked_.insert(r);
    }
    round_in_flight_ = false;
    if (!attacked_.empty()) schedule_round();
    return;
  }
  if (static_cast<std::int64_t>(replicas.size()) < round->target) {
    ++stats_.rounds_degraded;
    metrics_.rounds_degraded.inc();
  }
  deploy_shuffle(std::move(round->attacked), std::move(round->pool),
                 std::move(round->decision), replicas);
}

void CoordinationServer::deploy_shuffle(
    std::vector<NodeId> attacked, std::vector<std::pair<IpId, NodeId>> pool,
    core::RoundDecision decision, const std::vector<NodeId>& new_replicas) {
  // Uniformly random client-to-bucket mapping: the controller fixed only
  // the bucket sizes (paper §III-D: the coordination server "does not
  // control the specific assignments of individual clients").
  rng().shuffle(pool);

  // Where does each client go?  The plan's buckets map 1:1 onto the new
  // replicas; when provisioning came up short (degraded round) the surplus
  // buckets' clients are folded round-robin onto the replicas that exist.
  std::vector<NodeId> target_of(pool.size(), kInvalidNode);
  std::vector<core::Count> actual_sizes(new_replicas.size(), 0);
  std::size_t cursor = 0;
  for (std::size_t b = 0; b < new_replicas.size(); ++b) {
    const auto size = static_cast<std::size_t>(decision.plan[b]);
    for (std::size_t k = 0; k < size && cursor < pool.size(); ++k, ++cursor) {
      target_of[cursor] = new_replicas[b];
      ++actual_sizes[b];
    }
  }
  for (std::size_t i = cursor; i < pool.size(); ++i) {
    target_of[i] = new_replicas[i % new_replicas.size()];
    ++actual_sizes[i % new_replicas.size()];
  }

  // Pre-whitelist every client on its new replica and re-point sticky
  // records, then order each attacked replica to push its redirects.  The
  // whitelist entries for one target travel together as a single
  // kWhitelistBatch — one message per new replica instead of one per client.
  std::map<NodeId, ShuffleCommandPayload> commands;
  std::map<NodeId, WhitelistBatchPayload> whitelists;
  std::map<NodeId, NodeId> current_home;  // client node -> old replica
  for (const NodeId r : attacked) {
    for (const auto& [ip, client] : replica_ptr(r)->connected_clients()) {
      current_home[client] = r;
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto& [ip, client] = pool[i];
    const NodeId target = target_of[i];
    whitelists[target].entries.emplace_back(ip, client);
    for (auto* lb : load_balancers_) lb->update_binding(ip, target);
    commands[current_home[client]].client_to_replica.emplace_back(client,
                                                                  target);
    ++stats_.clients_migrated;
    metrics_.clients_migrated.inc();
  }
  for (auto& [target, batch] : whitelists) {
    const auto wire =
        kControlMessageBytes +
        kWhitelistEntryBytes * static_cast<std::int64_t>(batch.entries.size());
    send(target, MessageType::kWhitelistBatch, wire, std::move(batch));
  }
  for (const NodeId r : attacked) {
    pending_commands_[r] =
        PendingCommand{commands[r], 0, ++command_epoch_};
    send_shuffle_command(r);
    arm_command_watchdog(r, pending_commands_[r].epoch);
  }
  note_remaps_inflight();

  // The new replicas join the active set (and serve fresh arrivals too).
  for (const NodeId r : new_replicas) register_replica(r);

  last_round_ = LastRound{new_replicas, std::move(actual_sizes)};
  ++stats_.rounds_executed;
  metrics_.rounds_executed.inc();
  round_in_flight_ = false;
  // Reports that arrived while this round was deploying start the next one.
  if (!attacked_.empty()) schedule_round();
}

void CoordinationServer::send_shuffle_command(NodeId replica) {
  // Empty command still decommissions the replica.
  send(replica, MessageType::kShuffleCommand, kControlMessageBytes,
       pending_commands_.at(replica).payload);
}

void CoordinationServer::arm_command_watchdog(NodeId replica,
                                              std::uint64_t epoch) {
  const auto it = pending_commands_.find(replica);
  if (it == pending_commands_.end()) return;
  // Ack deadline doubles per resend, capped.
  const double deadline =
      std::min(kCommandTimeoutS * static_cast<double>(1 << it->second.resends),
               kCommandTimeoutS + kRetryBackoffCapS);
  loop().schedule_after(deadline, [this, replica, epoch] {
    const auto itw = pending_commands_.find(replica);
    if (itw == pending_commands_.end() || itw->second.epoch != epoch) {
      return;  // acknowledged (or superseded) in the meantime
    }
    if (itw->second.resends >= kCommandMaxRetries) {
      // No ack after every retry: the replica is presumed crashed.  Remove
      // it so fresh arrivals and heartbeat-rejoining clients only ever see
      // live replicas.
      SDEF_LOG(Warn) << name() << ": replica " << replica
                     << " never acked its shuffle command — force-recycling";
      pending_commands_.erase(itw);
      note_remaps_inflight();
      drop_replica(replica);
      ++stats_.replicas_presumed_crashed;
      metrics_.replicas_presumed_crashed.inc();
      return;
    }
    ++itw->second.resends;
    ++stats_.command_retries;
    metrics_.command_retries.inc();
    itw->second.epoch = ++command_epoch_;
    send_shuffle_command(replica);
    arm_command_watchdog(replica, itw->second.epoch);
  });
}

void CoordinationServer::drop_replica(NodeId replica) {
  qos_table_.erase(replica);
  if (active_replicas_.erase(replica) == 0) return;
  for (auto* lb : load_balancers_) lb->remove_replica(replica);
  provider_->recycle(replica);
  ++stats_.replicas_recycled;
  metrics_.replicas_recycled.inc();
}

}  // namespace shuffledef::cloudsim
