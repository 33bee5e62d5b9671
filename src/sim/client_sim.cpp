#include "sim/client_sim.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"
#include "obs/span.h"
#include "util/thread_pool.h"
#include "util/validation.h"

namespace shuffledef::sim {
namespace {

// Sweeps below this much total work run inline: the pool's chunk handoff
// costs more than the loop.  Purely a scheduling threshold — parallel and
// serial sweeps write disjoint state and combine integer counts, so the
// cutoff (like the thread count) cannot affect any output bit.
constexpr std::int64_t kSerialCutoff = 1 << 13;
// Chunk size for elementwise sweeps; boundaries depend only on the data
// size, never on the thread count (the ThreadPool determinism contract).
constexpr std::int64_t kGrain = 1 << 12;

void sweep(util::ThreadPool* workers, std::int64_t n, std::int64_t work,
           std::int64_t grain,
           const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (n <= 0) return;
  if (workers == nullptr || work < kSerialCutoff || n <= 1) {
    body(0, n);
  } else {
    workers->parallel_for(0, n, body, grain);
  }
}

std::size_t chunk_slots(std::int64_t n) {
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, (n + kGrain - 1) / kGrain));
}

// A pool member or a saved-group slot: 0 for every benign client, b + 1 for
// bot b.  No benign client carries state, so the store keeps no identity for
// one; Rng::shuffle's draws depend only on the pool's length, so a token pool
// puts every bot exactly where a pool of client ids would.
using Token = std::int32_t;

// The engine's whole mutable state: flat SoA columns plus the round scratch
// buffers, all reused across rounds (no per-round allocation churn).
struct SoaState {
  // Per-bot columns (indexed by bot id).
  std::vector<core::BotState> bot_states;
  std::vector<std::uint8_t> bot_present;  // in pool or in a saved group

  // Activity column indexed by token: bots + 1 bytes, bot b at b + 1.  The
  // benign entry act[0] is never written and stays 0, so the bucket scan
  // reads it for every pool member without asking whether the member is a
  // bot.
  std::vector<std::uint8_t> act;

  std::vector<Token> pool;   // the shuffling pool
  Count pool_bot_count = 0;  // running count of bots in the pool

  // Saved groups that still hold a bot, in creation order (re-pollution
  // appends to the pool in that order, so the order is part of the behavior
  // contract).  A group is its size plus its bots' slots ({offset in the
  // group, token}, offsets ascending); the groups' slot slices lie back to
  // back in `slots`, in group order.  Saved groups never shuffle, so a group
  // never changes after creation.  A clean bucket without a bot can never be
  // re-polluted: it only adds to the saved totals and is not kept.
  struct Slot {
    Token offset = 0;
    Token token = 0;
  };
  struct Group {
    Token size = 0;
    Token bots = 0;  // length of the group's slot slice
  };
  std::vector<Group> groups;
  std::vector<Slot> slots;
  Count saved_clients = 0;  // clients in saved groups, kept or not
  Count saved_benign = 0;   // benign clients in saved groups (O(1) safety)

  // Away bots (quit-reenter).  List order matters: returning bots rejoin
  // the pool in list order.  The recorded location is always the pool (the
  // only place a bot can observe a shuffle), so no group is stored.
  struct AwayRec {
    Token token = 0;
    Count rounds_left = 0;
  };
  std::vector<AwayRec> away;

  // Round scratch.
  std::vector<Count> active_partials;
  std::vector<Count> offsets;  // bucket prefix offsets (P + 1)
  std::vector<std::uint8_t> bucket_attacked;
  std::vector<Count> bucket_bots;
  std::vector<Count> away_buf;  // on_shuffled_one results (kStays = stays)
};

}  // namespace

std::vector<std::string> ClientSimConfig::violations(
    const std::string& prefix) const {
  std::vector<std::string> out;
  if (benign < 0) out.push_back(prefix + "benign must be >= 0");
  if (bots < 0) out.push_back(prefix + "bots must be >= 0");
  constexpr Count kMaxClients = std::numeric_limits<Token>::max();
  if (benign >= 0 && bots >= 0 && benign > kMaxClients - bots) {
    out.push_back(prefix + "benign + bots must be <= " +
                  std::to_string(kMaxClients) + " (32-bit client tokens)");
  }
  if (rounds <= 0) out.push_back(prefix + "rounds must be > 0");
  if (threads < 0) {
    out.push_back(prefix +
                  "threads must be >= 0 (1 = serial, 0 = shared pool)");
  }
  for (auto& v : strategy.violations(prefix + "strategy.")) {
    out.push_back(std::move(v));
  }
  for (auto& v : controller.violations(prefix + "controller.")) {
    out.push_back(std::move(v));
  }
  return out;
}

void ClientSimConfig::validate() const {
  util::throw_if_invalid("ClientSimConfig", violations());
}

double ClientSimResult::final_safe_fraction() const {
  if (rounds.empty() || benign_total == 0) return 0.0;
  return static_cast<double>(rounds.back().benign_safe) /
         static_cast<double>(benign_total);
}

double ClientSimResult::mean_attack_intensity() const {
  double total = 0.0;
  Count active_rounds = 0;
  for (const auto& r : rounds) {
    if (r.pool_clients == 0) continue;  // no attack surface this round
    total += static_cast<double>(r.active_attackers);
    ++active_rounds;
  }
  if (active_rounds == 0) return 0.0;
  return total / static_cast<double>(active_rounds);
}

double ClientSimResult::mean_attack_intensity_all_rounds() const {
  if (rounds.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : rounds) total += static_cast<double>(r.active_attackers);
  return total / static_cast<double>(rounds.size());
}

ClientLevelSimulator::ClientLevelSimulator(ClientSimConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

ClientLevelSimulator::~ClientLevelSimulator() = default;

util::ThreadPool* ClientLevelSimulator::pool() const {
  if (config_.threads == 1) return nullptr;  // serial: never touch a pool
  if (config_.threads == 0) return &util::ThreadPool::shared();
  if (!private_pool_) {
    private_pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(config_.threads));
  }
  return private_pool_.get();
}

namespace {

// End-of-round conservation audit (ClientSimConfig::audit), O(pool + bots):
// every bot sits in exactly one of {pool, kept saved group, away} (naive bots
// in none), the benign clients in the pool and in saved groups add up to
// `benign`, every kept group holds at least one slot with offsets strictly
// ascending inside the group, the running totals match a recount,
// `bot_present` says exactly "in the pool or in a group", and the benign
// entry of the activity column was never written.
void audit_round(const ClientSimConfig& cfg, const SoaState& s, Count round) {
  const bool naive = cfg.strategy.strategy == "naive";
  const auto fail = [&](const std::string& what) {
    throw std::logic_error("ClientLevelSimulator audit (round " +
                           std::to_string(round) + "): " + what);
  };
  const auto bots = static_cast<std::size_t>(cfg.bots);

  // Per token: how often the bot was seen, and whether it is away.
  std::vector<std::uint8_t> seen(bots + 1, 0);
  std::vector<std::uint8_t> in_away(bots + 1, 0);
  const auto mark = [&](Token t, const char* where) {
    if (t < 1 || static_cast<std::size_t>(t) > bots) {
      fail(std::string("bad bot token in ") + where);
    }
    if (seen[static_cast<std::size_t>(t)]++ != 0) {
      fail("bot " + std::to_string(t - 1) + " appears twice (last: " + where +
           ")");
    }
  };

  if (s.act[0] != 0) fail("the benign activity entry act[0] is set");

  Count pool_benign = 0, pool_bots = 0;
  for (const Token t : s.pool) {
    if (t == 0) {
      ++pool_benign;
      continue;
    }
    mark(t, "pool");
    ++pool_bots;
  }
  if (pool_bots != s.pool_bot_count) {
    fail("pool_bot_count " + std::to_string(s.pool_bot_count) +
         " != recount " + std::to_string(pool_bots));
  }
  if (pool_benign + s.saved_benign != cfg.benign) {
    fail("pool benign " + std::to_string(pool_benign) + " + saved_benign " +
         std::to_string(s.saved_benign) + " != benign " +
         std::to_string(cfg.benign));
  }

  std::size_t slot = 0;
  for (const auto& g : s.groups) {
    if (g.bots < 1) fail("a kept saved group holds no bot");
    if (slot + static_cast<std::size_t>(g.bots) > s.slots.size()) {
      fail("group slot slices overrun the slot array");
    }
    Token prev = -1;
    for (Token k = 0; k < g.bots; ++k, ++slot) {
      const auto& sl = s.slots[slot];
      if (sl.offset <= prev || sl.offset >= g.size) {
        fail("slot offsets not strictly ascending within [0, size)");
      }
      prev = sl.offset;
      mark(sl.token, "saved group");
    }
  }
  if (slot != s.slots.size()) fail("slots that no kept group owns");
  if (s.saved_clients != s.saved_benign + static_cast<Count>(slot)) {
    fail("saved_clients " + std::to_string(s.saved_clients) +
         " != saved_benign + bots in groups " +
         std::to_string(s.saved_benign + static_cast<Count>(slot)));
  }

  for (const auto& rec : s.away) {
    mark(rec.token, "away");
    in_away[static_cast<std::size_t>(rec.token)] = 1;
  }

  for (std::size_t t = 1; t <= bots; ++t) {
    if (naive && seen[t] != 0) {
      fail("naive bot " + std::to_string(t - 1) + " re-entered the system");
    }
    if (!naive && seen[t] == 0) {
      fail("bot " + std::to_string(t - 1) + " is nowhere");
    }
    const bool present = seen[t] != 0 && in_away[t] == 0;
    if (present != (s.bot_present[t - 1] != 0)) {
      fail("bot_present[" + std::to_string(t - 1) +
           "] disagrees with location");
    }
  }
}

}  // namespace

ClientSimResult ClientLevelSimulator::run() {
  util::Rng root(config_.seed);
  util::Rng shuffle_rng = root.fork(1);
  util::Rng behavior_rng = root.fork(2);
  util::ThreadPool* workers = pool();

  const Count n_benign = config_.benign;
  const Count n_bots = config_.bots;
  const std::unique_ptr<core::AttackerStrategy> strategy =
      config_.strategy.make();
  const bool naive = !strategy->follows_redirects();
  const bool always_active = strategy->always_active();
  const bool reacts = strategy->reacts_to_shuffle();
  const bool departs = strategy->departs_on_shuffle();

  // Each run records into a private registry unless the caller scoped one
  // in; handles are created once, up front.
  obs::Registry local_registry;
  obs::Registry* registry =
      config_.registry != nullptr ? config_.registry : &local_registry;
  obs::Counter rounds_counter = registry->counter(kMetricClientRounds);
  obs::Counter repolluted_counter =
      registry->counter(kMetricClientRepolluted);
  obs::Counter saved_counter = registry->counter(kMetricClientSaved);
  obs::Gauge away_gauge = registry->gauge(kMetricClientAwayBots);
  obs::Histogram pool_hist = registry->histogram(
      std::string(kMetricClientPoolSize),
      {0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7});

  core::ControllerConfig controller_config = config_.controller;
  controller_config.registry = registry;
  core::ShuffleController controller(controller_config);
  std::optional<core::ShuffleObservation> prev_obs;

  // ---- SoA client store -------------------------------------------------
  SoaState s;
  s.bot_states.reserve(static_cast<std::size_t>(n_bots));
  for (Count b = 0; b < n_bots; ++b) {
    s.bot_states.emplace_back(
        behavior_rng.fork_small(static_cast<std::uint64_t>(b)));
  }
  s.bot_present.assign(static_cast<std::size_t>(n_bots), naive ? 0 : 1);
  s.act.assign(static_cast<std::size_t>(n_bots) + 1, 0);
  // The bot part of the activity column, indexed by bot id.
  std::uint8_t* const bot_active = s.act.data() + 1;
  // Every kept group holds a bot, so bots bound both group arrays.
  s.groups.reserve(static_cast<std::size_t>(n_bots));
  s.slots.reserve(static_cast<std::size_t>(n_bots));

  // The pool starts as every benign client, then bots 0..bots-1 (naive bots
  // are dropped up front).  Conservation caps it at benign + bots, so it
  // never reallocates.
  s.pool.reserve(static_cast<std::size_t>(n_benign + n_bots));
  s.pool.assign(static_cast<std::size_t>(n_benign), Token{0});
  if (!naive) {
    for (Count b = 0; b < n_bots; ++b) s.pool.push_back(static_cast<Token>(b + 1));
    s.pool_bot_count = n_bots;
  }

  ClientSimResult result;
  result.benign_total = n_benign;
  result.rounds.reserve(static_cast<std::size_t>(config_.rounds));

  // The replica count the defense currently runs, as visible to the bots
  // (coupon-collector scanners probe this address space).  0 until the
  // first shuffle executes.
  Count current_replicas = 0;

  std::optional<obs::Span> run_span;
  run_span.emplace(registry, "client_sim.run");

  for (Count round = 1; round <= config_.rounds; ++round) {
    const obs::Span round_span(registry, "round");
    ClientRoundMetrics metrics;
    metrics.round = round;

    // 1. Away bots tick down; returning bots rejoin the pool in list order
    //    (bots only ever quit from the pool, so the sticky record always
    //    points back there; see SoaState::AwayRec).
    if (!s.away.empty()) {
      std::size_t keep = 0;
      for (auto rec : s.away) {
        if (--rec.rounds_left > 0) {
          s.away[keep++] = rec;
          continue;
        }
        s.pool.push_back(rec.token);
        ++s.pool_bot_count;
        s.bot_present[static_cast<std::size_t>(rec.token - 1)] = 1;
      }
      s.away.resize(keep);
    }

    // 2. Activity pass: one sharded batched-decide sweep over the per-bot
    //    columns (each bot draws from its own stream, so chunk boundaries
    //    are irrelevant).  Exactly the present bots, in the pool or in a
    //    saved group, are stepped.  Always-active strategies draw nothing
    //    and mutate nothing, so their sweep degenerates to copying the
    //    present flags.  The column pointers and the flag are locals: the
    //    byte stores could otherwise alias what the closure points at,
    //    forcing a reload per bot.
    const core::StrategyContext ctx{round, current_replicas};
    Count active_total = 0;
    {
      s.active_partials.assign(chunk_slots(n_bots), 0);
      sweep(workers, n_bots, n_bots, kGrain,
            [&](std::int64_t lo, std::int64_t hi) {
              const std::uint8_t* const present = s.bot_present.data();
              std::uint8_t* const active = bot_active;
              const bool all_on = always_active;
              const auto lo_s = static_cast<std::size_t>(lo);
              const auto len = static_cast<std::size_t>(hi - lo);
              if (!all_on) {
                strategy->decide(ctx, {s.bot_states.data() + lo_s, len},
                                 {present + lo_s, len},
                                 {active + lo_s, len});
              }
              Count local = 0;
              for (std::int64_t b = lo; b < hi; ++b) {
                const auto bi = static_cast<std::size_t>(b);
                const std::uint8_t on =
                    present[bi] != 0 && (all_on || active[bi] != 0);
                active[bi] = on;
                local += on;
              }
              s.active_partials[static_cast<std::size_t>(lo / kGrain)] +=
                  local;
            });
      for (const Count c : s.active_partials) active_total += c;
    }

    // 3. Re-pollution: a kept group is hit when one of its bots woke up.
    //    Hit groups rejoin the pool in creation order (the pool append order
    //    is part of what the recorded digests pin): `size` benign tokens,
    //    then the bots written back at their offsets.  Groups that stay
    //    clean, and their slots, move down in place.
    if (!s.groups.empty()) {
      const std::uint8_t* const act = s.act.data();
      std::size_t keep = 0, slot_in = 0, slot_out = 0;
      for (std::size_t g = 0; g < s.groups.size(); ++g) {
        const SoaState::Group grp = s.groups[g];
        const SoaState::Slot* const gs = s.slots.data() + slot_in;
        slot_in += static_cast<std::size_t>(grp.bots);
        std::uint8_t hit = 0;
        for (Token k = 0; k < grp.bots; ++k) hit |= act[gs[k].token];
        if (hit == 0) {
          std::copy_n(gs, grp.bots, s.slots.data() + slot_out);
          slot_out += static_cast<std::size_t>(grp.bots);
          s.groups[keep++] = grp;
          continue;
        }
        const std::size_t base = s.pool.size();
        s.pool.resize(base + static_cast<std::size_t>(grp.size), Token{0});
        for (Token k = 0; k < grp.bots; ++k) {
          s.pool[base + static_cast<std::size_t>(gs[k].offset)] = gs[k].token;
        }
        metrics.repolluted_benign += grp.size - grp.bots;
        s.pool_bot_count += grp.bots;
        s.saved_benign -= grp.size - grp.bots;
        s.saved_clients -= grp.size;
      }
      s.groups.resize(keep);
      s.slots.resize(slot_out);
    }

    // 4. Shuffle the pool across a fresh replica set.
    metrics.pool_clients = static_cast<Count>(s.pool.size());
    metrics.pool_bots = s.pool_bot_count;
    metrics.active_attackers = active_total;
    metrics.away_bots = static_cast<Count>(s.away.size());

    if (!s.pool.empty()) {
      if (!config_.controller.use_mle) {
        controller.set_bot_estimate(metrics.pool_bots);
      } else if (!prev_obs.has_value()) {
        controller.set_bot_estimate(
            std::max<Count>(1, metrics.pool_clients / 10));
      }
      const auto decision = controller.decide(metrics.pool_clients, prev_obs);

      if (!decision.execute) {
        // Cost-aware decline: the plan's priced net save fell below the
        // configured floor, so the defense keeps the current placement.
        // Nobody moves, the shuffle stream draws nothing, and the previous
        // observation carries over (this round produced none).
        metrics.shuffle_declined = true;
      } else {
        current_replicas = decision.replicas;

        // The Fisher-Yates walk is a sequential swap chain on the shared
        // shuffle stream, so it stays serial.
        shuffle_rng.shuffle(s.pool);

        const auto np = static_cast<std::int64_t>(s.pool.size());
        const std::size_t replica_count = decision.plan.replica_count();
        const auto np_buckets = static_cast<std::int64_t>(replica_count);
        s.offsets.resize(replica_count + 1);
        s.offsets[0] = 0;
        for (std::size_t r = 0; r < replica_count; ++r) {
          s.offsets[r + 1] = s.offsets[r] + decision.plan[r];
        }

        // Bucket scan: attacked flag + bot count per bucket, one contiguous
        // read of the pool per bucket.  act[0] is 0 for benign members, so
        // neither count needs a branch on whether the member is a bot (bots
        // sit at random pool positions, and that branch mispredicts).
        s.bucket_attacked.assign(replica_count, 0);
        s.bucket_bots.assign(replica_count, 0);
        sweep(workers, np_buckets, np,
              1, [&](std::int64_t lo, std::int64_t hi) {
          const std::uint8_t* const act = s.act.data();
          const Token* const tokens = s.pool.data();
          for (std::int64_t r = lo; r < hi; ++r) {
            const auto rr = static_cast<std::size_t>(r);
            Count bots_here = 0;
            std::uint8_t attacked = 0;
            for (Count i = s.offsets[rr]; i < s.offsets[rr + 1]; ++i) {
              const Token t = tokens[static_cast<std::size_t>(i)];
              bots_here += t != 0;
              attacked |= act[static_cast<std::size_t>(t)];
            }
            s.bucket_bots[rr] = bots_here;
            s.bucket_attacked[rr] = attacked;
          }
        });

        // Partition, serial in replica order: an attacked bucket's tokens
        // move down to the end of the next pool (in place: the write
        // position never passes the bucket's own start), and a clean
        // non-empty bucket becomes a saved group, kept only if it holds a
        // bot.
        Token* const tokens = s.pool.data();
        Count next_n = 0, next_pool_bots = 0, saved_this_round = 0;
        std::vector<bool> attacked_flags(replica_count, false);
        for (std::size_t r = 0; r < replica_count; ++r) {
          const Count begin = s.offsets[r];
          const Count sz = s.offsets[r + 1] - begin;
          const Count bots_here = s.bucket_bots[r];
          if (s.bucket_attacked[r] != 0) {
            attacked_flags[r] = true;
            ++metrics.attacked_replicas;
            next_pool_bots += bots_here;
            if (next_n != begin) {
              std::memmove(tokens + next_n, tokens + begin,
                           static_cast<std::size_t>(sz) * sizeof(Token));
            }
            next_n += sz;
          } else if (sz > 0) {
            s.saved_benign += sz - bots_here;
            s.saved_clients += sz;
            saved_this_round += sz;
            if (bots_here == 0) continue;
            for (Count i = 0, found = 0; found < bots_here; ++i) {
              const Token t = tokens[begin + i];
              if (t == 0) continue;
              s.slots.push_back({static_cast<Token>(i), t});
              ++found;
            }
            s.groups.push_back(
                {static_cast<Token>(sz), static_cast<Token>(bots_here)});
          }
        }
        s.pool.resize(static_cast<std::size_t>(next_n));
        s.pool_bot_count = next_pool_bots;
        saved_counter.inc(static_cast<std::uint64_t>(saved_this_round));
        prev_obs =
            core::ShuffleObservation{decision.plan, std::move(attacked_flags)};

        // 5. Every pool bot witnessed a shuffle.  Strategies that react get
        //    their on_shuffled_one pass (sharded; per-bot streams make chunk
        //    order irrelevant); strategies that can depart additionally get
        //    the away-list partition, in place and in pool order.  For
        //    everything else on_shuffled_one is a stateless no-op that draws
        //    nothing, so the pass is skipped outright.
        if (reacts && next_n > 0) {
          const core::StrategyContext shuffled_ctx{round, current_replicas};
          s.away_buf.assign(static_cast<std::size_t>(next_n),
                            core::AttackerStrategy::kStays);
          sweep(workers, next_n, next_n, kGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                  for (std::int64_t i = lo; i < hi; ++i) {
                    const auto ii = static_cast<std::size_t>(i);
                    const Token t = s.pool[ii];
                    if (t == 0) continue;
                    s.away_buf[ii] = strategy->on_shuffled_one(
                        shuffled_ctx,
                        s.bot_states[static_cast<std::size_t>(t - 1)]);
                  }
                });
          if (departs) {
            std::size_t keep = 0;
            for (std::size_t i = 0; i < s.pool.size(); ++i) {
              const Token t = s.pool[i];
              if (s.away_buf[i] < 0) {
                s.pool[keep++] = t;
                continue;
              }
              s.away.push_back({t, s.away_buf[i]});
              s.bot_present[static_cast<std::size_t>(t - 1)] = 0;
              --s.pool_bot_count;
            }
            s.pool.resize(keep);
          }
        }
      }
    }

    // 6. Benign safety is an O(1) read of the running totals (no rescan of
    //    the saved clients).
    metrics.benign_safe = s.saved_benign;
    metrics.saved_clients = s.saved_clients;

    rounds_counter.inc();
    repolluted_counter.inc(
        static_cast<std::uint64_t>(metrics.repolluted_benign));
    away_gauge.set(metrics.away_bots);
    pool_hist.observe(static_cast<double>(metrics.pool_clients));

    if (config_.audit) audit_round(config_, s, round);
    result.rounds.push_back(metrics);
  }

  run_span.reset();
  result.metrics = registry->snapshot();
  return result;
}

}  // namespace shuffledef::sim
