// perfbench_runner: runs one workload of the repo benchmark and prints one
// JSON object describing every repetition it ran.
//
//   perfbench_runner run   --workload W --seed N --seconds S [--trace 0|1]
//                          [--scale F] [--threads T] [--min-reps N]
//   perfbench_runner setup --workload W --seed N [--scale F] [--threads T]
//
// `run` repeats the workload's fixed-size batch job until S host seconds
// have passed (at least --min-reps times, default 3).  Every repetition uses
// the same generated inputs, so every repetition must produce the same
// digest of the simulated statistics.  With --trace 1 the repetitions alternate between
// traced and untraced, starting traced; a traced repetition records spans
// around each public call the benchmark makes and reads the counters and
// spans the library already records, and splits the repetition's wall time
// into per-layer self times.
//
// `setup` measures, in a fresh process, the time from configuration to the
// first simulated event: math-table warm-up, thread-pool spawn and the
// workload's own construction (Scenario, SweepRunner, ClientLevelSimulator).
//
// The runner only drives public APIs: cloudsim::Scenario,
// sim::SweepRunner over sim::ShuffleSimulator, and sim::ClientLevelSimulator.
// perfbench/run.py turns its output into the benchmark's metrics.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "cloudsim/scenario.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "sim/client_sim.h"
#include "sim/shuffle_sim.h"
#include "sim/sweep.h"
#include "util/math.h"
#include "util/random.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace shuffledef;
using core::Count;

namespace {

using Clock = std::chrono::steady_clock;
using Fields = std::map<std::string, double>;

/// A traced repetition whose layer self times leave more of its wall time
/// unattributed than this fails verification.
constexpr double kMinCoveredFrac = 0.95;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload sizes.  `scale` shrinks populations for the smoke test; 1.0 is
// the benchmark.  Every repetition lasts a fraction of a second, so one run
// holds dozens to hundreds of them and its best one is a steady estimate on
// a shared host (see perfbench/README.md, "Spread").

struct CloudSize {
  std::int64_t clients = 0;
  std::int32_t bots = 0;
  double horizon_s = 0.0;
};

CloudSize cloud_size(const std::string& workload, double scale) {
  const auto scaled = [&](double n, double floor) {
    return std::max(floor, std::round(n * scale));
  };
  if (workload == "cloud_steady") {
    return {static_cast<std::int64_t>(scaled(10'000, 2'000)), 4, 12.0};
  }
  return {static_cast<std::int64_t>(scaled(5'000, 2'000)),
          static_cast<std::int32_t>(scaled(20, 8)), 12.0};
}

struct CampaignSize {
  std::vector<Count> bots;
  std::vector<Count> benign;
  Count replicas = 1000;
  int reps = 0;
};

CampaignSize campaign_size(double scale) {
  CampaignSize s;
  for (Count b = 10'000; b <= 100'000; b += 10'000) s.bots.push_back(b);
  s.benign = {10'000, 50'000};
  s.reps = std::max(1, static_cast<int>(std::lround(3 * scale)));
  return s;
}

struct ClientSize {
  Count benign = 0;
  Count bots = 0;
  Count replicas = 0;
  Count rounds = 0;
};

ClientSize client_size(double scale) {
  const auto scaled = [&](double n, double floor) {
    return static_cast<Count>(std::max(floor, std::round(n * scale)));
  };
  return {scaled(100'000, 2'000), scaled(10'000, 200), scaled(1'000, 20), 40};
}

// ---------------------------------------------------------------------------
// Digest of simulated statistics: FNV-1a over a canonical field sequence.

class Digest {
 public:
  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void add(T v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(u >> (8 * i)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  /// The deterministic part of a snapshot: counters, gauges, histogram
  /// bucket counts and span counts.  Histogram sums are left out: they are
  /// floating-point adds whose order follows thread scheduling.
  void add(const obs::MetricsSnapshot& snap) {
    for (const auto& c : snap.counters) { add(c.name); add(c.value); }
    for (const auto& g : snap.gauges) { add(g.name); add(g.value); }
    for (const auto& h : snap.histograms) {
      add(h.name);
      add(h.count);
      for (const auto n : h.counts) add(n);
    }
    for (const auto& s : snap.spans) { add(s.path); add(s.count); }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------------------
// Layer accounting from the library's own spans.

/// Inclusive and self nanoseconds per span path of one snapshot.
struct SpanTimes {
  std::map<std::string, double> total_s;
  std::map<std::string, double> self_s;
  std::map<std::string, std::uint64_t> count;
};

SpanTimes span_times(const obs::MetricsSnapshot& snap) {
  SpanTimes t;
  for (const auto& s : snap.spans) {
    t.total_s[s.path] = static_cast<double>(s.total_ns) * 1e-9;
    t.self_s[s.path] += static_cast<double>(s.total_ns) * 1e-9;
    t.count[s.path] = s.count;
    const auto slash = s.path.rfind('/');
    if (slash != std::string::npos) {
      t.self_s[s.path.substr(0, slash)] -=
          static_cast<double>(s.total_ns) * 1e-9;
    }
  }
  return t;
}

std::string_view leaf(std::string_view path) {
  const auto slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

/// Self time of every library span, bucketed by layer.
struct LayerSelf {
  double engine = 0.0;    // sim.run / client_sim.run / round
  double coord = 0.0;     // coord.execute_round (cloudsim coordinator)
  double decide = 0.0;    // controller.decide
  double mle = 0.0;       // estimate + mle.estimate
  double planner = 0.0;   // plan
  double other = 0.0;     // any span not named above
  double roots = 0.0;     // inclusive time of top-level spans
  std::uint64_t decide_calls = 0, mle_calls = 0, plan_calls = 0;
  double decide_total = 0.0, mle_total = 0.0, plan_total = 0.0;
};

LayerSelf layer_self(const obs::MetricsSnapshot& snap) {
  const auto t = span_times(snap);
  LayerSelf l;
  for (const auto& [path, self] : t.self_s) {
    const auto name = leaf(path);
    if (name == "sim.run" || name == "client_sim.run" || name == "round") {
      l.engine += self;
    } else if (name == "coord.execute_round") {
      l.coord += self;
    } else if (name == "controller.decide") {
      l.decide += self;
      l.decide_calls += t.count.at(path);
      l.decide_total += t.total_s.at(path);
    } else if (name == "estimate" || name == "mle.estimate") {
      l.mle += self;
      if (name == "mle.estimate") {
        l.mle_calls += t.count.at(path);
        l.mle_total += t.total_s.at(path);
      }
    } else if (name == "plan") {
      l.planner += self;
      l.plan_calls += t.count.at(path);
      l.plan_total += t.total_s.at(path);
    } else {
      l.other += self;
    }
    if (path.find('/') == std::string::npos) l.roots += t.total_s.at(path);
  }
  return l;
}

double per_call_us(double total_s, std::uint64_t calls) {
  return calls == 0 ? 0.0 : total_s * 1e6 / static_cast<double>(calls);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Controller, estimator and planner figures, read the same way on every
/// workload.
Fields controller_layers(const LayerSelf& l, const obs::MetricsSnapshot& snap) {
  const auto hits =
      static_cast<double>(snap.counter("controller.planner_cache.hits"));
  const auto misses =
      static_cast<double>(snap.counter("controller.planner_cache.misses"));
  return {
      {"controller.decide_us", per_call_us(l.decide_total, l.decide_calls)},
      {"mle.estimate_us", per_call_us(l.mle_total, l.mle_calls)},
      {"planner.plan_us", per_call_us(l.plan_total, l.plan_calls)},
      {"controller.decisions", static_cast<double>(l.decide_calls)},
      {"controller.cache_hit_frac", ratio(hits, hits + misses)},
      {"mle.engine_restarts",
       static_cast<double>(snap.counter("mle.engine_restarts"))},
  };
}

/// Peak resident memory of this process so far, in KiB.
double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

/// CPUs this process may run on, in increasing order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Restricts the calling thread to one CPU.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

// ---------------------------------------------------------------------------
// One repetition.

struct Rep {
  bool traced = false;
  double run_s = 0.0;    // the timed simulation call(s): throughput base
  double items = 0.0;    // work items completed in run_s
  double peak_rss_mb = 0.0;  // process high-water mark after this repetition
  std::string digest;
  std::vector<std::string> problems;  // failed output checks
  Fields layers;         // traced repetitions only
  std::vector<Fields> windows;  // cloud traced repetitions: per sim second
};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;  // the generated configuration's seed
  double scale = 1.0;
  int threads = 1;
};

/// Per-workload configuration seed, derived from the benchmark seed so
/// different workloads never share a random stream.
std::uint64_t derive_seed(std::uint64_t bench_seed, std::string_view workload) {
  std::uint64_t state = bench_seed;
  for (const char c : workload) state = state * 131 + static_cast<unsigned char>(c);
  return util::splitmix64(state);
}

// --- cloud_steady / cloud_storm ---------------------------------------------

/// abl_cloudsim_scale's fault-injected world: fat pipes and small pages so
/// the population, not the NIC model, is the load.
cloudsim::ScenarioConfig cloud_config(const Context& ctx) {
  const auto size = cloud_size(ctx.workload, ctx.scale);
  cloudsim::ScenarioConfig cfg;
  cfg.seed = ctx.seed;
  cfg.domains = 2;
  cfg.initial_replicas = std::max<std::int32_t>(
      2, static_cast<std::int32_t>(size.clients / 2500));
  cfg.hot_spares = 1;
  cfg.clients = static_cast<std::int32_t>(size.clients);
  cfg.client_start_spread_s = 8.0;
  cfg.client_heartbeat_s = 2.0;
  cfg.persistent_bots = size.bots;
  cfg.bot_junk_rate_pps = 400.0;
  cfg.replica.page_bytes = 2 * 1024;
  cfg.replica.cpu_per_request_s = 50e-6;
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 100.0;
  cfg.replica_nic = {.egress_bps = 10e9, .ingress_bps = 10e9,
                     .base_latency_s = 0.002, .domain = 0};
  cfg.lb_nic = {.egress_bps = 40e9, .ingress_bps = 40e9,
                .base_latency_s = 0.002, .domain = 0};
  cfg.infra_nic = {.egress_bps = 40e9, .ingress_bps = 40e9,
                   .base_latency_s = 0.002, .domain = 0};
  cfg.coordinator.controller.replicas =
      std::max<std::int32_t>(4, cfg.initial_replicas);
  cfg.faults.data_loss_prob = 0.01;
  cfg.faults.ctrl_loss_prob = 0.02;
  cfg.faults.replica_crash_times_s = {6.0};
  cfg.client_engine = cloudsim::ClientEngine::kFlat;
  cfg.shard_threads = ctx.threads;
  return cfg;
}

Rep run_cloud(const Context& ctx, bool traced) {
  const auto size = cloud_size(ctx.workload, ctx.scale);
  Rep rep;
  rep.traced = traced;
  const double rss_before_kb = peak_rss_kb();
  const auto t_begin = Clock::now();
  auto scenario = std::make_unique<cloudsim::Scenario>(cloud_config(ctx));
  const auto t_built = Clock::now();

  bool budget_ok = true;
  double window_s = 0.0;
  if (!traced) {
    budget_ok = scenario->run_until(size.horizon_s);
    rep.run_s = seconds_between(t_built, Clock::now());
  } else {
    // One window per simulated second.  The snapshot read after each window
    // is the tracing cost: it sits inside run_s but outside every window.
    obs::MetricsSnapshot prev = scenario->metrics();
    for (double t = 1.0; t <= size.horizon_s + 1e-9 && budget_ok; t += 1.0) {
      const auto w0 = Clock::now();
      budget_ok = scenario->run_until(t);
      const double wall = seconds_between(w0, Clock::now());
      window_s += wall;
      const auto snap = scenario->metrics();
      const auto dc = [&](std::string_view name) {
        return static_cast<double>(snap.counter(name) - prev.counter(name));
      };
      const auto* coord_now = snap.span("coord.execute_round");
      const auto* coord_prev = prev.span("coord.execute_round");
      const double coord_s =
          ((coord_now ? coord_now->total_ns : 0) -
           (coord_prev ? coord_prev->total_ns : 0)) * 1e-9;
      rep.windows.push_back({{"sim_t", t},
                             {"wall_s", wall},
                             {"coord_s", coord_s},
                             {"events", dc("loop.events_dispatched")},
                             {"sends", dc("net.sends")},
                             {"delivered", dc("net.delivered")},
                             {"coord_rounds", dc("coord.rounds_executed")}});
      prev = snap;
    }
    rep.run_s = seconds_between(t_built, Clock::now());
  }

  const auto& net = scenario->world().network().stats();
  const auto& sw = scenario->swarm()->stats();
  const auto& co = scenario->coordinator()->stats();
  const auto& provider = scenario->provider();
  const auto faults = scenario->fault_stats();
  const auto snap = scenario->metrics();
  rep.items = static_cast<double>(net.delivered);

  Digest d;
  for (const auto v : {net.sends, net.delivered, net.dropped_egress,
                       net.dropped_ingress, net.dropped_detached,
                       net.dropped_faulted, net.duplicated, net.in_flight}) {
    d.add(v);
  }
  d.add(net.bytes_delivered);
  for (const auto v : {sw.page_loads, sw.timeouts, sw.rejoins,
                       sw.heartbeat_failures, sw.migrations_completed,
                       sw.junk_sent, sw.heavy_sent}) {
    d.add(v);
  }
  for (const auto v :
       {co.attack_reports, co.rounds_executed, co.clients_migrated,
        co.replicas_recycled, co.provision_retries, co.rounds_degraded,
        co.rounds_aborted, co.command_retries, co.replicas_presumed_crashed,
        co.late_spares_banked, co.shuffles_declined}) {
    d.add(v);
  }
  for (const auto v : {faults.drops_data, faults.drops_ctrl, faults.drops_flap,
                       faults.duplicated, faults.crashes_executed}) {
    d.add(v);
  }
  d.add(provider.provisioned());
  d.add(provider.recycled());
  d.add(scenario->clients_connected());
  d.add(snap);
  rep.digest = d.hex();

  if (!budget_ok) rep.problems.push_back("event budget exhausted");
  if (!net.conserved()) rep.problems.push_back("NetworkStats not conserved");
  if (net.delivered == 0) rep.problems.push_back("no message delivered");
  if (faults.crashes_executed != 1) {
    rep.problems.push_back("replica crash not executed");
  }
  if (scenario->clients_connected() < size.clients / 2) {
    rep.problems.push_back("fewer than half the clients connected");
  }

  if (traced) {
    const double rss_peak_kb = peak_rss_kb();
    const auto t_teardown = Clock::now();
    const auto l = layer_self(snap);
    const double events =
        static_cast<double>(snap.counter("loop.events_dispatched"));
    const double data_plane = window_s - l.roots;
    scenario.reset();
    const auto t_end = Clock::now();
    const double setup = seconds_between(t_begin, t_built);
    const double teardown = seconds_between(t_teardown, t_end);
    const double total = seconds_between(t_begin, t_end);
    rep.layers = controller_layers(l, snap);
    rep.layers.insert({
        {"self.setup_s", setup},
        {"self.engine_s", data_plane},
        {"self.control_s", l.coord + l.decide},
        {"self.mle_s", l.mle},
        {"self.planner_s", l.planner},
        {"self.other_s", l.other + teardown},
        {"trace.wall_s", total},
        {"trace.covered_frac", ratio(setup + window_s + teardown, total)},
        {"data_plane.self_s", data_plane},
        {"data_plane.ns_per_event", ratio(data_plane * 1e9, events)},
        {"engine.ns_per_item", ratio(data_plane * 1e9, rep.items)},
        {"loop.events", events},
        {"loop.events_per_msg", ratio(events, static_cast<double>(net.sends))},
        {"net.sends", static_cast<double>(net.sends)},
        {"net.delivered_frac",
         ratio(static_cast<double>(net.delivered), static_cast<double>(net.sends))},
        {"net.detached_drop_frac",
         ratio(static_cast<double>(net.dropped_detached),
               static_cast<double>(net.sends))},
        {"net.faulted_drops", static_cast<double>(net.dropped_faulted)},
        {"net.in_flight_end", static_cast<double>(net.in_flight)},
        {"swarm.page_loads", static_cast<double>(sw.page_loads)},
        {"swarm.timeouts", static_cast<double>(sw.timeouts)},
        {"swarm.rejoins", static_cast<double>(sw.rejoins)},
        {"swarm.migrations", static_cast<double>(sw.migrations_completed)},
        {"mem.rss_bytes_per_client",
         ratio((rss_peak_kb - rss_before_kb) * 1024.0,
               static_cast<double>(size.clients))},
        {"coord.rounds", static_cast<double>(co.rounds_executed)},
        {"coord.round_ms", ratio((l.coord + l.decide + l.mle + l.planner) * 1e3,
                                 static_cast<double>(co.rounds_executed))},
        {"coord.clients_migrated", static_cast<double>(co.clients_migrated)},
        {"coord.command_retries", static_cast<double>(co.command_retries)},
        {"provider.provisioned", static_cast<double>(provider.provisioned())},
        {"provider.recycled", static_cast<double>(provider.recycled())},
    });
  }
  return rep;
}

// --- fig8_campaign ------------------------------------------------------------

struct CampaignPoint {
  Count benign = 0;
  Count bots = 0;
};

sim::ShuffleSimConfig campaign_cell_config(const CampaignPoint& pt,
                                           Count replicas, std::uint64_t seed,
                                           obs::Registry* registry) {
  // Paper §VI-A: the benign population is online when the attack starts,
  // bots ramp in at 5000 per 3 shuffles, M is estimated by Gaussian MLE and
  // plans are greedy over a fixed replica budget.
  sim::ShuffleSimConfig cfg;
  cfg.benign = {.initial = pt.benign, .rate = 100.0 / 3.0,
                .total_cap = pt.benign};
  cfg.bots = {.initial = 0, .rate = 5000.0 / 3.0, .total_cap = pt.bots};
  cfg.controller.planner = "greedy";
  cfg.controller.replicas = replicas;
  cfg.controller.use_mle = true;
  cfg.controller.mle.engine = core::LikelihoodEngine::kGaussian;
  cfg.target_fraction = 0.95;
  cfg.max_rounds = 2000;
  cfg.seed = seed;
  cfg.registry = registry;
  return cfg;
}

struct Campaign {
  std::vector<CampaignPoint> points;
  Count replicas = 0;
  std::size_t reps = 0;
  sim::SweepPlan plan;
};

Campaign build_campaign(const Context& ctx) {
  const auto size = campaign_size(ctx.scale);
  Campaign c;
  c.replicas = size.replicas;
  c.reps = static_cast<std::size_t>(size.reps);
  for (const Count bots : size.bots) {
    for (const Count benign : size.benign) c.points.push_back({benign, bots});
  }
  c.plan.cell_count = c.points.size() * c.reps;
  for (const auto& pt : c.points) {
    std::uint64_t state = ctx.seed + static_cast<std::uint64_t>(pt.bots) +
                          static_cast<std::uint64_t>(pt.benign);
    for (std::size_t r = 0; r < c.reps; ++r) {
      c.plan.seeds.push_back(util::splitmix64(state));
      c.plan.cost_hints.push_back(static_cast<double>(pt.benign + pt.bots));
    }
  }
  return c;
}

Rep run_campaign(const Context& ctx, bool traced) {
  Rep rep;
  rep.traced = traced;
  const auto t_begin = Clock::now();
  const Campaign campaign = build_campaign(ctx);
  auto runner = std::make_unique<sim::SweepRunner>(
      sim::SweepConfig{.jobs = static_cast<std::size_t>(ctx.threads)});
  const auto t_built = Clock::now();
  const auto sweep = runner->run(campaign.plan, [&](const sim::SweepCell& cell) {
    const auto& pt = campaign.points[cell.index / campaign.reps];
    const auto result = sim::ShuffleSimulator(campaign_cell_config(
                            pt, campaign.replicas, cell.seed, cell.registry))
                            .run();
    std::array<Count, 2> shuffles{};
    shuffles[0] = result.shuffles_to_fraction(0.80).value_or(-1);
    shuffles[1] = result.shuffles_to_fraction(0.95).value_or(-1);
    return shuffles;
  });
  const auto t_ran = Clock::now();
  rep.run_s = seconds_between(t_built, t_ran);
  rep.items = static_cast<double>(campaign.plan.cell_count);

  Digest d;
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const auto& cell = sweep.cells[i];
    if (!cell.ok()) {
      rep.problems.push_back("cell " + std::to_string(i) + " failed: " +
                             cell.error);
      continue;
    }
    const auto& s = *cell.value;
    d.add(s[0]);
    d.add(s[1]);
    if (s[0] < 0 || s[1] < 0) {
      rep.problems.push_back("cell " + std::to_string(i) +
                             " never saved 95% of its benign clients");
    } else if (s[1] < s[0]) {
      rep.problems.push_back("cell " + std::to_string(i) +
                             " needs fewer shuffles for 95% than for 80%");
    }
  }
  d.add(sweep.metrics);
  rep.digest = d.hex();
  if (rep.problems.size() > 3) rep.problems.resize(3);

  if (traced) {
    const auto l = layer_self(sweep.metrics);
    const double jobs = static_cast<double>(runner->jobs());
    double cell_busy = 0.0;
    for (const auto& cell : sweep.cells) cell_busy += cell.wall_seconds;
    const double thread_s = jobs * rep.run_s;
    const auto t_teardown = Clock::now();
    runner.reset();
    const auto t_end = Clock::now();
    const double setup = seconds_between(t_begin, t_built);
    const double teardown = seconds_between(t_teardown, t_end);
    const double total = seconds_between(t_begin, t_end);
    // Cells run on `jobs` threads at once, so library spans add up to
    // thread-seconds; dividing by `jobs` turns them into shares of the
    // sweep's wall time.  Whatever the cells did not cover (idle workers,
    // the scheduler, per-cell set-up and snapshots) stays in "other".
    const auto share = [&](double thread_seconds) {
      return thread_seconds / jobs;
    };
    const double engine = share(l.engine);
    const double control = share(l.coord + l.decide);
    const double mle = share(l.mle);
    const double planner = share(l.planner);
    const double other =
        rep.run_s - engine - control - mle - planner + teardown;
    rep.layers = controller_layers(l, sweep.metrics);
    rep.layers.insert({
        {"self.setup_s", setup},
        {"self.engine_s", engine},
        {"self.control_s", control},
        {"self.mle_s", mle},
        {"self.planner_s", planner},
        {"self.other_s", other},
        {"trace.wall_s", total},
        {"trace.covered_frac", ratio(setup + rep.run_s + teardown, total)},
        {"engine.ns_per_item", ratio(engine * 1e9, rep.items)},
        {"sim.rounds", static_cast<double>(sweep.metrics.counter("sim.rounds"))},
        {"sim.round_self_us",
         per_call_us(l.engine, sweep.metrics.counter("sim.rounds"))},
        {"sweep.busy_frac", ratio(cell_busy, thread_s)},
        {"sweep.cells_stolen", static_cast<double>(sweep.cells_stolen)},
        {"sweep.cell_wall_p50_ms", sweep.cell_wall_p50_s * 1e3},
        {"sweep.cell_wall_p90_ms", sweep.cell_wall_p90_s * 1e3},
        {"sweep.setup_s", sweep.setup_seconds},
    });
  }
  return rep;
}

// --- client_100k ----------------------------------------------------------------

sim::ClientSimConfig client_config(const Context& ctx) {
  const auto size = client_size(ctx.scale);
  sim::ClientSimConfig cfg;
  cfg.benign = size.benign;
  cfg.bots = size.bots;
  cfg.strategy.strategy = "on-off";
  cfg.controller.planner = "greedy";
  cfg.controller.replicas = size.replicas;
  cfg.controller.use_mle = true;
  cfg.rounds = size.rounds;
  cfg.seed = ctx.seed;
  cfg.threads = ctx.threads;
  return cfg;
}

Rep run_client(const Context& ctx, bool traced) {
  const auto size = client_size(ctx.scale);
  Rep rep;
  rep.traced = traced;
  const double rss_before_kb = peak_rss_kb();
  const auto t_begin = Clock::now();
  auto simulator = std::make_unique<sim::ClientLevelSimulator>(client_config(ctx));
  const auto t_built = Clock::now();
  const auto result = simulator->run();
  const auto t_ran = Clock::now();
  rep.run_s = seconds_between(t_built, t_ran);
  rep.items = static_cast<double>(size.benign + size.bots) *
              static_cast<double>(result.rounds.size());

  Digest d;
  d.add(result.benign_total);
  for (const auto& r : result.rounds) {
    for (const auto v : {r.round, r.pool_clients, r.pool_bots,
                         r.active_attackers, r.benign_safe, r.repolluted_benign,
                         r.away_bots, r.attacked_replicas, r.saved_clients}) {
      d.add(v);
    }
    d.add(r.shuffle_declined);
  }
  d.add(result.metrics);
  rep.digest = d.hex();

  if (static_cast<Count>(result.rounds.size()) != size.rounds) {
    rep.problems.push_back("run stopped after " +
                           std::to_string(result.rounds.size()) + " rounds");
  }
  for (const auto& r : result.rounds) {
    if (r.benign_safe < 0 || r.benign_safe > result.benign_total ||
        r.pool_bots > size.bots) {
      rep.problems.push_back("round " + std::to_string(r.round) +
                             " violates population bounds");
      break;
    }
  }
  if (result.final_safe_fraction() <= 0.0) {
    rep.problems.push_back("no benign client saved");
  }

  if (traced) {
    const double rss_peak_kb = peak_rss_kb();
    const auto l = layer_self(result.metrics);
    const auto t_teardown = Clock::now();
    simulator.reset();
    const auto t_end = Clock::now();
    const double setup = seconds_between(t_begin, t_built);
    const double teardown = seconds_between(t_teardown, t_end);
    const double total = seconds_between(t_begin, t_end);
    const double rounds = static_cast<double>(result.rounds.size());
    rep.layers = controller_layers(l, result.metrics);
    rep.layers.insert({
        {"self.setup_s", setup},
        {"self.engine_s", l.engine},
        {"self.control_s", l.coord + l.decide},
        {"self.mle_s", l.mle},
        {"self.planner_s", l.planner},
        {"self.other_s",
         rep.run_s - l.roots + l.other + teardown},
        {"trace.wall_s", total},
        {"trace.covered_frac", ratio(setup + rep.run_s + teardown, total)},
        {"engine.ns_per_item", ratio(l.engine * 1e9, rep.items)},
        {"client_sim.rounds", rounds},
        {"client_sim.round_self_ms", ratio(l.engine * 1e3, rounds)},
        {"mem.rss_bytes_per_client",
         ratio((rss_peak_kb - rss_before_kb) * 1024.0,
               static_cast<double>(size.benign + size.bots))},
    });
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Set-up: configuration to first simulated event, in a fresh process.

double measure_setup(const Context& ctx) {
  const auto t0 = Clock::now();
  util::warm_math_tables();
  (void)util::ThreadPool::shared();
  if (ctx.workload == "fig8_campaign") {
    const Campaign campaign = build_campaign(ctx);
    const sim::SweepRunner runner(
        sim::SweepConfig{.jobs = static_cast<std::size_t>(ctx.threads)});
    return seconds_between(t0, Clock::now());
  }
  if (ctx.workload == "client_100k") {
    const sim::ClientLevelSimulator simulator(client_config(ctx));
    return seconds_between(t0, Clock::now());
  }
  const cloudsim::Scenario scenario(cloud_config(ctx));
  return seconds_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Output.

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_fields(const Fields& f) {
  std::string out = "{";
  for (const auto& [k, v] : f) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

Fields workload_sizes(const Context& ctx) {
  if (ctx.workload == "fig8_campaign") {
    const auto s = campaign_size(ctx.scale);
    return {{"bot_counts", static_cast<double>(s.bots.size())},
            {"bots_min", static_cast<double>(s.bots.front())},
            {"bots_max", static_cast<double>(s.bots.back())},
            {"benign_counts", static_cast<double>(s.benign.size())},
            {"replicas", static_cast<double>(s.replicas)},
            {"reps_per_point", static_cast<double>(s.reps)},
            {"cells", static_cast<double>(s.bots.size() * s.benign.size() *
                                          static_cast<std::size_t>(s.reps))},
            {"jobs", static_cast<double>(ctx.threads)}};
  }
  if (ctx.workload == "client_100k") {
    const auto s = client_size(ctx.scale);
    return {{"benign", static_cast<double>(s.benign)},
            {"bots", static_cast<double>(s.bots)},
            {"replicas", static_cast<double>(s.replicas)},
            {"rounds", static_cast<double>(s.rounds)},
            {"threads", static_cast<double>(ctx.threads)}};
  }
  const auto s = cloud_size(ctx.workload, ctx.scale);
  return {{"clients", static_cast<double>(s.clients)},
          {"persistent_bots", static_cast<double>(s.bots)},
          {"horizon_s", s.horizon_s},
          {"shard_threads", static_cast<double>(ctx.threads)}};
}

void print_result(const Context& ctx, std::uint64_t bench_seed,
                  const std::vector<Rep>& reps) {
  std::string out = "{\"workload\":" + json_string(ctx.workload);
  out += ",\"host\":{\"hardware_threads\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + json_string(__VERSION__) +
         ",\"seed\":" + std::to_string(bench_seed) +
         ",\"config_seed\":" + std::to_string(ctx.seed) +
         ",\"threads\":" + std::to_string(ctx.threads) +
         ",\"scale\":" + json_number(ctx.scale) +
         ",\"sizes\":" + json_fields(workload_sizes(ctx)) + "}";
  out += ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& r = reps[i];
    if (i > 0) out += ",";
    out += "{\"traced\":" + std::string(r.traced ? "true" : "false") +
           ",\"run_s\":" + json_number(r.run_s) +
           ",\"items\":" + json_number(r.items) +
           ",\"peak_rss_mb\":" + json_number(r.peak_rss_mb) +
           ",\"digest\":" + json_string(r.digest) + ",\"problems\":[";
    for (std::size_t p = 0; p < r.problems.size(); ++p) {
      if (p > 0) out += ",";
      out += json_string(r.problems[p]);
    }
    out += "],\"layers\":" + json_fields(r.layers) + ",\"windows\":[";
    for (std::size_t w = 0; w < r.windows.size(); ++w) {
      if (w > 0) out += ",";
      out += json_fields(r.windows[w]);
    }
    out += "]}";
  }
  std::cout << out << "]}" << std::endl;
}

// ---------------------------------------------------------------------------

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  int threads = 1;
  int min_reps = 3;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner run|setup --workload "
               "cloud_steady|cloud_storm|fig8_campaign|client_100k --seed N "
               "[--seconds S] [--trace 0|1] [--scale F] [--threads T] "
               "[--min-reps N]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options o;
  o.mode = argv[1];
  if (o.mode != "run" && o.mode != "setup") usage("unknown mode " + o.mode);
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (key == "--scale") {
        o.scale = std::stod(value);
      } else if (key == "--threads") {
        o.threads = std::stoi(value);
      } else if (key == "--min-reps") {
        o.min_reps = std::stoi(value);
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (o.workload != "cloud_steady" && o.workload != "cloud_storm" &&
      o.workload != "fig8_campaign" && o.workload != "client_100k") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.scale > 0.0 && o.scale <= 1.0)) usage("--scale must be in (0, 1]");
  if (o.threads < 1 || o.threads > 256) usage("--threads must be in [1, 256]");
  if (!(o.seconds >= 0.0)) usage("--seconds must be >= 0");
  if (o.min_reps < 1) usage("--min-reps must be >= 1");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Context ctx{opt.workload, derive_seed(opt.seed, opt.workload),
                    opt.scale, opt.threads};
  try {
    if (opt.mode == "setup") {
      std::cout << "{\"setup_s\":" << json_number(measure_setup(ctx)) << "}"
                << std::endl;
      return 0;
    }
    util::warm_math_tables();
    (void)util::ThreadPool::shared();
    const auto run_once = [&](bool traced) {
      if (ctx.workload == "fig8_campaign") return run_campaign(ctx, traced);
      if (ctx.workload == "client_100k") return run_client(ctx, traced);
      return run_cloud(ctx, traced);
    };
    // On a shared host one vCPU can run far slower than the others for a
    // whole run (co-tenant load on the physical core behind it), and the
    // scheduler keeps a busy thread where it is.  Repetitions therefore
    // rotate the calling thread over the allowed CPUs, so that the best
    // repetition is taken on an uncontended one.  The shared pool was
    // spawned above and keeps every CPU.  A client simulator with more than
    // one thread creates its own pool inside the repetition, whose workers
    // would inherit the pin, so it is left unpinned.
    const auto cpus = allowed_cpus();
    const bool rotate = cpus.size() > 1 &&
                        (ctx.workload != "client_100k" || ctx.threads == 1);
    std::vector<Rep> reps;
    const auto start = Clock::now();
    // Traced mode alternates traced and untraced repetitions (traced first,
    // so its memory reading starts from a fresh process) and runs at least
    // min_reps of each to compare their throughput.
    const int min_reps = opt.trace ? 2 * opt.min_reps : opt.min_reps;
    while (static_cast<int>(reps.size()) < min_reps ||
           seconds_between(start, Clock::now()) < opt.seconds) {
      const bool traced = opt.trace && reps.size() % 2 == 0;
      // A traced repetition and the untraced one after it share a CPU, so
      // their throughput ratio prices the tracing alone.
      const std::size_t slot = opt.trace ? reps.size() / 2 : reps.size();
      if (rotate) pin_to(cpus[slot % cpus.size()]);
      reps.push_back(run_once(traced));
      auto& rep = reps.back();
      rep.peak_rss_mb = peak_rss_kb() / 1024.0;
      if (traced && rep.layers["trace.covered_frac"] < kMinCoveredFrac) {
        rep.problems.push_back("layer self times cover less than 95% of the "
                               "traced wall time");
      }
    }
    print_result(ctx, opt.seed, reps);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
