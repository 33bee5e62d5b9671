#include "sim/client_sim.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <numeric>
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

// The engine's whole mutable state: flat SoA columns plus the round scratch
// buffers, all reused across rounds (no per-round allocation churn).
struct SoaState {
  // Static client column: bot index per client id, -1 = benign.
  std::vector<Count> bot_index;

  // Per-bot columns (indexed by bot id).
  std::vector<core::BotState> bot_states;
  std::vector<std::uint8_t> bot_present;  // in pool or in a saved group

  // Activity column indexed by client id: benign + bots bytes, bot b at
  // benign + b.  Benign entries are never written and stay 0, so the bucket
  // scan reads it for every pool member without asking whether the member
  // is a bot.
  std::vector<std::uint8_t> active;

  // Shuffling pool.  Client ids are assigned once — benign clients take
  // 0..benign-1, bots the tail range — and never change, so the hot sweeps
  // classify an id with one compare (`id >= benign` <=> bot, bot index
  // `id - benign`) instead of a random-access `bot_index` gather.  The
  // `bot_index` column stays the ground truth (step 1, audit).
  std::vector<Count> pool_ids;
  Count pool_bot_count = 0;  // running count of bots in the pool

  // Saved groups: immutable member/bot slices of flat arenas, records kept
  // in creation order (re-pollution appends to the pool in that order, so
  // the order is part of the behavior contract).  Bots only ever quit from
  // the shuffling pool — saved groups never shuffle — so a group's slices
  // never grow after creation; re-polluted groups become dead arena space
  // that is compacted away once it outweighs the live data.
  struct Group {
    Count mbegin = 0, msize = 0;  // member_arena slice (client ids)
    Count bbegin = 0, bsize = 0;  // bot_arena slice (bot ids)
    bool alive = true;
  };
  std::vector<Count> member_arena;
  std::vector<Count> bot_arena;
  std::vector<Group> groups;
  // The alive groups whose bot slice is non-empty, in ascending group index
  // (= creation order).  Only these can be re-polluted, so re-pollution
  // walks this list instead of every group record.
  std::vector<Count> armed;
  Count arena_live = 0;    // live member entries == clients in saved groups
  Count saved_benign = 0;  // benign clients in live groups (O(1) safety)

  // Away bots (quit-reenter).  List order matters: returning bots rejoin
  // the pool in list order.  The recorded location is always the pool (the
  // only place a bot can observe a shuffle), so no group id is stored.
  struct AwayRec {
    Count id = 0;
    Count rounds_left = 0;
  };
  std::vector<AwayRec> away;

  // Round scratch.
  std::vector<Count> active_partials;
  std::vector<std::uint8_t> armed_hit;  // per armed entry: a bot woke up
  std::vector<Count> offsets;  // bucket prefix offsets (P + 1)
  std::vector<std::uint8_t> bucket_attacked;
  std::vector<Count> bucket_bots;
  std::vector<Count> next_off, grp_m_off, grp_b_off;
  std::vector<Count> next_ids;
  std::vector<Count> stay_ids;
  std::vector<Count> away_buf;  // on_shuffled_one results (kStays = stays)

  void compact_arenas() {
    const auto dead =
        static_cast<Count>(member_arena.size()) - arena_live;
    if (dead <= std::max<Count>(arena_live, Count{1} << 16)) return;
    std::vector<Count> new_members;
    new_members.reserve(static_cast<std::size_t>(arena_live));
    std::vector<Count> new_bots;
    std::vector<Group> new_groups;
    armed.clear();
    for (const Group& g : groups) {
      if (!g.alive) continue;
      if (g.bsize > 0) armed.push_back(static_cast<Count>(new_groups.size()));
      Group moved = g;
      moved.mbegin = static_cast<Count>(new_members.size());
      new_members.insert(new_members.end(),
                         member_arena.begin() + g.mbegin,
                         member_arena.begin() + g.mbegin + g.msize);
      moved.bbegin = static_cast<Count>(new_bots.size());
      new_bots.insert(new_bots.end(), bot_arena.begin() + g.bbegin,
                      bot_arena.begin() + g.bbegin + g.bsize);
      new_groups.push_back(moved);
    }
    member_arena.swap(new_members);
    bot_arena.swap(new_bots);
    groups.swap(new_groups);
  }
};

}  // namespace

std::vector<std::string> ClientSimConfig::violations(
    const std::string& prefix) const {
  std::vector<std::string> out;
  if (benign < 0) out.push_back(prefix + "benign must be >= 0");
  if (bots < 0) out.push_back(prefix + "bots must be >= 0");
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

// End-of-round conservation audit (ClientSimConfig::audit): every client id
// sits in exactly one of {pool, saved group, away}, naive-dropped bots in
// none, the engine's running totals match a full recount, the armed list is
// exactly the alive groups holding a bot in ascending order, and no benign
// entry of the activity column was ever written.
void audit_round(const ClientSimConfig& cfg, const SoaState& s, Count round) {
  const Count n_total = cfg.benign + cfg.bots;
  const bool naive = cfg.strategy.strategy == "naive";
  const auto fail = [&](const std::string& what) {
    throw std::logic_error("ClientLevelSimulator audit (round " +
                           std::to_string(round) + "): " + what);
  };

  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n_total), 0);
  const auto mark = [&](Count id, const char* where) {
    if (id < 0 || id >= n_total) fail(std::string("bad id in ") + where);
    if (seen[static_cast<std::size_t>(id)]++ != 0) {
      fail("client " + std::to_string(id) + " appears twice (last: " + where +
           ")");
    }
  };

  Count pool_bots_recount = 0;
  for (const Count id : s.pool_ids) {
    mark(id, "pool");
    if (s.bot_index[static_cast<std::size_t>(id)] >= 0) ++pool_bots_recount;
  }
  if (pool_bots_recount != s.pool_bot_count) {
    fail("pool_bot_count " + std::to_string(s.pool_bot_count) +
         " != recount " + std::to_string(pool_bots_recount));
  }

  Count prev_armed = -1;
  for (const Count g : s.armed) {
    if (g <= prev_armed || g >= static_cast<Count>(s.groups.size())) {
      fail("armed list not strictly ascending group indices");
    }
    const auto& grp = s.groups[static_cast<std::size_t>(g)];
    if (!grp.alive || grp.bsize == 0) {
      fail("armed group " + std::to_string(g) + " is dead or holds no bot");
    }
    prev_armed = g;
  }

  Count members = 0, benign_saved = 0, armable = 0;
  for (const auto& g : s.groups) {
    if (!g.alive) continue;
    if (g.bsize > 0) ++armable;
    Count bots_in_members = 0;
    for (Count k = g.mbegin; k < g.mbegin + g.msize; ++k) {
      const Count id = s.member_arena[static_cast<std::size_t>(k)];
      mark(id, "saved group");
      if (s.bot_index[static_cast<std::size_t>(id)] >= 0) ++bots_in_members;
    }
    if (bots_in_members != g.bsize) {
      fail("group bot slice size disagrees with member recount");
    }
    for (Count k = g.bbegin; k < g.bbegin + g.bsize; ++k) {
      const Count b = s.bot_arena[static_cast<std::size_t>(k)];
      if (b < 0 || b >= cfg.bots) fail("bad bot id in group bot slice");
    }
    members += g.msize;
    benign_saved += g.msize - g.bsize;
  }
  if (armable != static_cast<Count>(s.armed.size())) {
    fail("armed list holds " + std::to_string(s.armed.size()) + " of " +
         std::to_string(armable) + " alive groups with a bot");
  }
  for (Count id = 0; id < cfg.benign; ++id) {
    if (s.active[static_cast<std::size_t>(id)] != 0) {
      fail("benign client " + std::to_string(id) + " marked active");
    }
  }
  if (members != s.arena_live) {
    fail("arena_live " + std::to_string(s.arena_live) + " != recount " +
         std::to_string(members));
  }
  if (benign_saved != s.saved_benign) {
    fail("saved_benign " + std::to_string(s.saved_benign) + " != recount " +
         std::to_string(benign_saved));
  }

  for (const auto& rec : s.away) {
    mark(rec.id, "away");
    if (s.bot_index[static_cast<std::size_t>(rec.id)] < 0) {
      fail("benign client in the away list");
    }
  }

  // Conservation: pool + saved + away covers every client except the
  // naive-bot drop, each exactly once (uniqueness was checked by mark()).
  const Count expected = n_total - (naive ? cfg.bots : 0);
  const Count covered = static_cast<Count>(s.pool_ids.size()) + members +
                        static_cast<Count>(s.away.size());
  if (covered != expected) {
    fail("conservation: pool + saved + away = " + std::to_string(covered) +
         ", expected " + std::to_string(expected));
  }
  if (naive) {
    for (Count b = 0; b < cfg.bots; ++b) {
      if (seen[static_cast<std::size_t>(cfg.benign + b)] != 0) {
        fail("naive bot " + std::to_string(b) + " re-entered the system");
      }
    }
  }
  // bot_present must mean exactly "in the pool or in a saved group".
  std::vector<std::uint8_t> in_away(static_cast<std::size_t>(cfg.bots), 0);
  for (const auto& rec : s.away) {
    in_away[static_cast<std::size_t>(
        s.bot_index[static_cast<std::size_t>(rec.id)])] = 1;
  }
  for (Count b = 0; b < cfg.bots; ++b) {
    const bool present =
        seen[static_cast<std::size_t>(cfg.benign + b)] != 0 &&
        in_away[static_cast<std::size_t>(b)] == 0;
    if (present != (s.bot_present[static_cast<std::size_t>(b)] != 0)) {
      fail("bot_present[" + std::to_string(b) + "] disagrees with location");
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
  const Count n_total = n_benign + n_bots;
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
  s.bot_index.assign(static_cast<std::size_t>(n_total), -1);
  s.bot_states.reserve(static_cast<std::size_t>(n_bots));
  for (Count b = 0; b < n_bots; ++b) {
    s.bot_index[static_cast<std::size_t>(n_benign + b)] = b;
    s.bot_states.emplace_back(
        behavior_rng.fork_small(static_cast<std::uint64_t>(b)));
  }
  s.bot_present.assign(static_cast<std::size_t>(n_bots), 1);
  s.active.assign(static_cast<std::size_t>(n_total), 0);
  // The bot suffix of the activity column, indexed by bot id.
  std::uint8_t* const bot_active = s.active.data() + n_benign;

  // Nearly every client ends up in a saved-group arena slice; reserving up
  // front avoids growth reallocations mid-run (the arenas only matter at
  // scale, where the doubling copies are measurable).
  s.member_arena.reserve(static_cast<std::size_t>(n_total));
  s.bot_arena.reserve(static_cast<std::size_t>(n_bots));

  // Pool starts as ids 0..N-1; bots occupy the tail ids, so the naive-bot
  // drop is a truncation to the benign prefix.
  s.pool_ids.resize(static_cast<std::size_t>(n_total));
  std::iota(s.pool_ids.begin(), s.pool_ids.end(), Count{0});
  s.pool_bot_count = n_bots;
  if (naive) {
    s.pool_ids.resize(static_cast<std::size_t>(n_benign));
    s.pool_bot_count = 0;
    s.bot_present.assign(static_cast<std::size_t>(n_bots), 0);
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
        s.pool_ids.push_back(rec.id);
        ++s.pool_bot_count;
        s.bot_present[static_cast<std::size_t>(
            s.bot_index[static_cast<std::size_t>(rec.id)])] = 1;
      }
      s.away.resize(keep);
    }

    // 2. Activity pass: one sharded batched-decide sweep over the per-bot
    //    columns (each bot draws from its own stream, so chunk boundaries
    //    are irrelevant).  Exactly the present bots, in the pool or in a
    //    saved group, are stepped.
    //    Always-active strategies draw nothing and mutate nothing, so their
    //    sweep degenerates to copying the present flags.
    const core::StrategyContext ctx{round, current_replicas};
    Count active_total = 0;
    {
      s.active_partials.assign(chunk_slots(n_bots), 0);
      sweep(workers, n_bots, n_bots, kGrain,
            [&](std::int64_t lo, std::int64_t hi) {
              const auto lo_s = static_cast<std::size_t>(lo);
              const auto len = static_cast<std::size_t>(hi - lo);
              if (!always_active) {
                strategy->decide(ctx, {s.bot_states.data() + lo_s, len},
                                 {s.bot_present.data() + lo_s, len},
                                 {bot_active + lo_s, len});
              }
              Count local = 0;
              for (std::int64_t b = lo; b < hi; ++b) {
                const auto bi = static_cast<std::size_t>(b);
                if (s.bot_present[bi] != 0) {
                  if (always_active) bot_active[bi] = 1;
                  local += bot_active[bi] != 0 ? 1 : 0;
                } else {
                  bot_active[bi] = 0;
                }
              }
              s.active_partials[static_cast<std::size_t>(lo / kGrain)] +=
                  local;
            });
      for (const Count c : s.active_partials) active_total += c;
    }

    // 3. Re-pollution: a group without a bot can never wake up, so only the
    //    armed groups are visited.  Attacked flags per armed group in
    //    parallel (a group reads only its bot slice), then serial
    //    application in list order, which is creation order: the pool
    //    append order is part of what the recorded digests pin.  Groups
    //    that stay clean stay armed.
    if (!s.armed.empty()) {
      const auto na = static_cast<std::int64_t>(s.armed.size());
      s.armed_hit.resize(s.armed.size());
      sweep(workers, na, static_cast<std::int64_t>(s.bot_arena.size()), 256,
            [&](std::int64_t lo, std::int64_t hi) {
              for (std::int64_t j = lo; j < hi; ++j) {
                const auto& grp = s.groups[static_cast<std::size_t>(
                    s.armed[static_cast<std::size_t>(j)])];
                std::uint8_t hit = 0;
                for (Count k = grp.bbegin; k < grp.bbegin + grp.bsize; ++k) {
                  hit |= bot_active[static_cast<std::size_t>(
                      s.bot_arena[static_cast<std::size_t>(k)])];
                }
                s.armed_hit[static_cast<std::size_t>(j)] = hit;
              }
            });
      std::size_t keep = 0;
      for (std::size_t j = 0; j < s.armed.size(); ++j) {
        const Count g = s.armed[j];
        if (s.armed_hit[j] == 0) {
          s.armed[keep++] = g;
          continue;
        }
        auto& grp = s.groups[static_cast<std::size_t>(g)];
        s.pool_ids.insert(
            s.pool_ids.end(), s.member_arena.begin() + grp.mbegin,
            s.member_arena.begin() + grp.mbegin + grp.msize);
        metrics.repolluted_benign += grp.msize - grp.bsize;
        s.pool_bot_count += grp.bsize;
        s.saved_benign -= grp.msize - grp.bsize;
        s.arena_live -= grp.msize;
        grp.alive = false;
      }
      s.armed.resize(keep);
      s.compact_arenas();
    }

    // 4. Shuffle the pool across a fresh replica set.
    metrics.pool_clients = static_cast<Count>(s.pool_ids.size());
    metrics.pool_bots = s.pool_bot_count;
    metrics.active_attackers = active_total;
    metrics.away_bots = static_cast<Count>(s.away.size());

    if (!s.pool_ids.empty()) {
      if (!config_.controller.use_mle) {
        controller.set_bot_estimate(metrics.pool_bots);
      } else if (!prev_obs.has_value()) {
        controller.set_bot_estimate(std::max<Count>(
            1, static_cast<Count>(s.pool_ids.size()) / 10));
      }
      const auto decision = controller.decide(
          static_cast<Count>(s.pool_ids.size()), prev_obs);

      if (!decision.execute) {
        // Cost-aware decline: the plan's priced net save fell below the
        // configured floor, so the defense keeps the current placement.
        // Nobody moves, the shuffle stream draws nothing, and the previous
        // observation carries over (this round produced none).
        metrics.shuffle_declined = true;
      } else {
        current_replicas = decision.replicas;

        // The one serial data pass: the Fisher-Yates walk is a sequential
        // swap chain on the shared shuffle stream.  Everything downstream
        // of it is sharded.
        shuffle_rng.shuffle(s.pool_ids);

        const auto np = static_cast<std::int64_t>(s.pool_ids.size());
        const std::size_t replica_count = decision.plan.replica_count();
        const auto np_buckets = static_cast<std::int64_t>(replica_count);
        s.offsets.resize(replica_count + 1);
        s.offsets[0] = 0;
        for (std::size_t r = 0; r < replica_count; ++r) {
          s.offsets[r + 1] = s.offsets[r] + decision.plan[r];
        }

        // Bucket scan: attacked flag + bot count per bucket, one contiguous
        // read of the pool per bucket.  The id-indexed activity column is 0
        // for benign members, so neither count needs a branch on whether
        // the member is a bot (bots sit at random pool positions, and that
        // branch mispredicts).
        s.bucket_attacked.assign(replica_count, 0);
        s.bucket_bots.assign(replica_count, 0);
        const std::uint8_t* const active = s.active.data();
        sweep(workers, np_buckets, np,
              1, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t r = lo; r < hi; ++r) {
            const auto rr = static_cast<std::size_t>(r);
            Count bots_here = 0;
            std::uint8_t attacked = 0;
            for (Count i = s.offsets[rr]; i < s.offsets[rr + 1]; ++i) {
              const Count id = s.pool_ids[static_cast<std::size_t>(i)];
              bots_here += id >= n_benign;
              attacked |= active[static_cast<std::size_t>(id)];
            }
            s.bucket_bots[rr] = bots_here;
            s.bucket_attacked[rr] = attacked;
          }
        });

        // Partition destinations (serial over P — cheap), then parallel
        // per-bucket copies into disjoint ranges: attacked buckets stay in
        // the pool (in replica order),
        // clean non-empty buckets become saved groups.
        s.next_off.assign(replica_count, 0);
        s.grp_m_off.assign(replica_count, 0);
        s.grp_b_off.assign(replica_count, 0);
        const auto m_base = static_cast<Count>(s.member_arena.size());
        const auto b_base = static_cast<Count>(s.bot_arena.size());
        Count next_n = 0, new_members = 0, new_group_bots = 0;
        for (std::size_t r = 0; r < replica_count; ++r) {
          const Count sz = s.offsets[r + 1] - s.offsets[r];
          if (s.bucket_attacked[r] != 0) {
            s.next_off[r] = next_n;
            next_n += sz;
          } else if (sz > 0) {
            s.grp_m_off[r] = m_base + new_members;
            s.grp_b_off[r] = b_base + new_group_bots;
            new_members += sz;
            new_group_bots += s.bucket_bots[r];
          }
        }
        s.next_ids.resize(static_cast<std::size_t>(next_n));
        s.member_arena.resize(static_cast<std::size_t>(m_base + new_members));
        s.bot_arena.resize(static_cast<std::size_t>(b_base + new_group_bots));
        sweep(workers, np_buckets, np,
              1, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t r = lo; r < hi; ++r) {
            const auto rr = static_cast<std::size_t>(r);
            const Count begin = s.offsets[rr];
            const Count sz = s.offsets[rr + 1] - begin;
            if (sz == 0) continue;
            if (s.bucket_attacked[rr] != 0) {
              std::copy_n(s.pool_ids.begin() + begin, sz,
                          s.next_ids.begin() + s.next_off[rr]);
            } else {
              std::copy_n(s.pool_ids.begin() + begin, sz,
                          s.member_arena.begin() + s.grp_m_off[rr]);
              Count w = s.grp_b_off[rr];
              for (Count i = begin; i < begin + sz; ++i) {
                const Count id = s.pool_ids[static_cast<std::size_t>(i)];
                if (id >= n_benign) {
                  s.bot_arena[static_cast<std::size_t>(w++)] = id - n_benign;
                }
              }
            }
          }
        });
        Count saved_this_round = 0;
        Count next_pool_bots = 0;
        std::vector<bool> attacked_flags(replica_count, false);
        for (std::size_t r = 0; r < replica_count; ++r) {
          const Count sz = s.offsets[r + 1] - s.offsets[r];
          if (s.bucket_attacked[r] != 0) {
            attacked_flags[r] = true;
            ++metrics.attacked_replicas;
            next_pool_bots += s.bucket_bots[r];
          } else if (sz > 0) {
            s.groups.push_back({s.grp_m_off[r], sz, s.grp_b_off[r],
                                s.bucket_bots[r], true});
            if (s.bucket_bots[r] > 0) {
              s.armed.push_back(static_cast<Count>(s.groups.size()) - 1);
            }
            s.saved_benign += sz - s.bucket_bots[r];
            s.arena_live += sz;
            saved_this_round += sz;
          }
        }
        s.pool_bot_count = next_pool_bots;
        saved_counter.inc(static_cast<std::uint64_t>(saved_this_round));
        prev_obs =
            core::ShuffleObservation{decision.plan, std::move(attacked_flags)};

        // 5. Every pool bot witnessed a shuffle.  Strategies that react get
        //    their on_shuffled_one pass (sharded; per-bot streams make chunk
        //    order irrelevant); strategies that can depart additionally get
        //    the away-list partition.  For everything else on_shuffled_one is
        //    a stateless no-op that draws nothing, so the pass is skipped
        //    outright.
        if (reacts && next_n > 0) {
          const core::StrategyContext shuffled_ctx{round, current_replicas};
          s.away_buf.assign(static_cast<std::size_t>(next_n),
                            core::AttackerStrategy::kStays);
          sweep(workers, next_n, next_n, kGrain,
                [&](std::int64_t lo, std::int64_t hi) {
                  for (std::int64_t i = lo; i < hi; ++i) {
                    const auto ii = static_cast<std::size_t>(i);
                    const Count id = s.next_ids[ii];
                    if (id < n_benign) continue;
                    s.away_buf[ii] = strategy->on_shuffled_one(
                        shuffled_ctx,
                        s.bot_states[static_cast<std::size_t>(id - n_benign)]);
                  }
                });
          if (departs) {
            s.stay_ids.clear();
            s.stay_ids.reserve(static_cast<std::size_t>(next_n));
            for (std::int64_t i = 0; i < next_n; ++i) {
              const auto ii = static_cast<std::size_t>(i);
              if (s.away_buf[ii] >= 0) {
                const Count id = s.next_ids[ii];
                s.away.push_back({id, s.away_buf[ii]});
                s.bot_present[static_cast<std::size_t>(id - n_benign)] = 0;
                --s.pool_bot_count;
              } else {
                s.stay_ids.push_back(s.next_ids[ii]);
              }
            }
            s.pool_ids.swap(s.stay_ids);
          } else {
            s.pool_ids.swap(s.next_ids);
          }
        } else {
          s.pool_ids.swap(s.next_ids);
        }
      }
    }

    // 6. Benign safety is an O(1) read of the running totals (no rescan of
    //    the saved clients).
    metrics.benign_safe = s.saved_benign;
    metrics.saved_clients = s.arena_live;

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
