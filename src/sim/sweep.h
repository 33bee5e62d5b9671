// SweepRunner: the batch execution engine behind every figure/ablation
// grid.  It fans an arbitrary number of cells — one (config, seed) point of
// an experiment grid — across the process-shared util::ThreadPool and
// collects the results in submission order regardless of completion order.
//
// Scheduling: cells are handed out through the pool's persistent task
// queue (ThreadPool::submit/wait — no per-sweep thread spawn, no wake/park
// barrier), capped at `jobs` concurrent cells.  An optional per-cell cost
// hint reorders *execution* so expensive cells start first and idle
// workers steal whatever remains; result slots, per-cell seeds and the
// metric merge order stay keyed by submission index, so scheduling can
// never change an output bit.
//
// Determinism contract:
//   * Per-cell seeds come from the same splitmix64 chain sim::repeat has
//     always used (state = base_seed; seed_i = splitmix64(state)), computed
//     serially up front — cell i sees the same seed at every jobs setting
//     (SweepPlan::seeds overrides the chain cell-for-cell when a grid needs
//     its own seed derivation).
//   * Results land in submission-indexed slots and per-cell metric
//     snapshots are combined by a pairwise tree merge over submission order
//     (MetricsSnapshot::merged — associative, fixed tree shape for a given
//     cell count), so SweepResult::cells and
//     SweepResult::metrics.deterministic_view() are bit-identical at any
//     jobs setting and under any cost-hint ordering (jobs = 1 reproduces
//     the historical serial loop exactly).
//   * wall_seconds / cells_per_second / per-cell walls / cells_stolen are
//     wall-clock or scheduling-dependent and excluded.
//
// One-time setup (the log-factorial table's first chunk, shared-pool
// construction) happens before the timed dispatch window and is reported
// separately as setup_seconds, so wall_seconds measures the fan-out alone.
// Cells grow the table past that chunk at first use.
//
// Failure isolation: a throwing cell records its error message in its slot
// instead of killing the sweep; SweepResult::value(i) rethrows on access.
//
// The cell body is invoked concurrently from multiple threads — it must be
// a pure function of the SweepCell it receives (the per-cell registry gives
// each invocation a private metrics sink).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/registry.h"
#include "obs/snapshot.h"

namespace shuffledef::sim {

struct SweepConfig {
  /// Concurrent cells: 1 = serial in the calling thread (no pool touched),
  /// 0 = hardware concurrency, k > 1 = at most k threads of the
  /// process-shared pool run cells at once (capped by the hardware size).
  std::size_t jobs = 0;
  /// Base seed of the deterministic per-cell seed chain.
  std::uint64_t base_seed = 0;
  /// Optional sweep-level sink, mirroring the deterministic counters
  /// sweep.cells / sweep.cells_failed (also present in
  /// SweepResult::metrics) plus scheduler/throughput stats that are
  /// wall-clock- or scheduling-derived and therefore outside the
  /// determinism contract (which is why they live only here and not in
  /// SweepResult::metrics): sweep.cells_stolen, sweep.jobs,
  /// sweep.cells_per_sec and the sweep.cell_wall_us_{p50,p90,max} gauges.
  obs::Registry* registry = nullptr;
};

/// A fully specified sweep: how many cells, optionally which seed each one
/// receives, and optionally how expensive each one is expected to be.
struct SweepPlan {
  std::size_t cell_count = 0;
  /// Per-cell seed override (empty = the base_seed splitmix64 chain).
  /// Size must equal cell_count when non-empty.
  std::vector<std::uint64_t> seeds;
  /// Relative expected cost per cell (empty = submission order).  Cells
  /// are *executed* in descending-hint order (ties keep submission order)
  /// so the big ones start first; outputs are unaffected by construction.
  /// Size must equal cell_count when non-empty.
  std::vector<double> cost_hints;
};

/// Context handed to the cell body.
struct SweepCell {
  std::size_t index = 0;             // submission index
  std::uint64_t seed = 0;            // splitmix64-derived per-cell seed
  obs::Registry* registry = nullptr; // private per-cell sink (never null)
};

template <typename T>
struct SweepCellResult {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::optional<T> value;  // empty iff the cell threw
  std::string error;       // what() of the captured exception
  double wall_seconds = 0.0;  // this cell's body wall: NOT deterministic
  [[nodiscard]] bool ok() const noexcept { return value.has_value(); }
};

template <typename T>
struct SweepResult {
  std::vector<SweepCellResult<T>> cells;  // submission order
  /// Per-cell snapshots tree-merged over submission order
  /// (deterministic_view() is bit-identical at every jobs setting).
  obs::MetricsSnapshot metrics;
  std::size_t failed = 0;
  // ---- wall-clock / scheduling stats: NOT deterministic -------------------
  double wall_seconds = 0.0;       // the dispatch window only
  double cells_per_second = 0.0;
  double setup_seconds = 0.0;      // warm-up + pool setup, OUTSIDE the window
  std::size_t cells_stolen = 0;    // cells run by pool workers (not the caller)
  double cell_wall_p50_s = 0.0;    // per-cell wall quantiles (nearest rank)
  double cell_wall_p90_s = 0.0;
  double cell_wall_max_s = 0.0;

  /// Value of cell i; rethrows the cell's captured error.
  [[nodiscard]] const T& value(std::size_t i) const {
    const auto& c = cells.at(i);
    if (!c.ok()) {
      throw std::runtime_error("sweep cell " + std::to_string(c.index) +
                               " failed: " + c.error);
    }
    return *c.value;
  }
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config = {});
  ~SweepRunner();
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Effective concurrency (jobs == 0 resolved to the hardware count).
  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

  /// The seed cell i of a `cell_count`-cell sweep receives — the same
  /// chain sim::repeat derives, exposed for callers that precompute cells.
  [[nodiscard]] std::vector<std::uint64_t> seeds(std::size_t cell_count) const;

  /// Run `body(cell)` for every cell of the plan and collect.  `body` must
  /// be safe to invoke concurrently and must return a value (its result
  /// type is the sweep's T).  Exceptions from a cell are captured per cell.
  template <typename Fn>
  auto run(const SweepPlan& plan, Fn&& body)
      -> SweepResult<std::decay_t<std::invoke_result_t<Fn&, const SweepCell&>>> {
    using T = std::decay_t<std::invoke_result_t<Fn&, const SweepCell&>>;
    static_assert(!std::is_void_v<T>,
                  "sweep cell bodies must return a value");
    const std::size_t cell_count = plan.cell_count;
    if (!plan.seeds.empty() && plan.seeds.size() != cell_count) {
      throw std::invalid_argument("SweepPlan: seeds size != cell_count");
    }
    SweepResult<T> result;
    result.cells.resize(cell_count);
    std::vector<obs::MetricsSnapshot> snapshots(cell_count);
    const auto seed_chain =
        plan.seeds.empty() ? seeds(cell_count) : plan.seeds;
    const auto stats = dispatch(
        cell_count, execution_order(plan), [&](std::size_t i) {
          auto& slot = result.cells[i];
          slot.index = i;
          slot.seed = seed_chain[i];
          // The per-cell registry is created on the executing thread so
          // registry setup parallelizes with the cells themselves.
          obs::Registry registry;
          const SweepCell ctx{i, seed_chain[i], &registry};
          const auto cell_start = std::chrono::steady_clock::now();
          try {
            slot.value.emplace(body(ctx));
          } catch (const std::exception& e) {
            slot.error = e.what();
          } catch (...) {
            slot.error = "unknown exception";
          }
          slot.wall_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - cell_start)
                                  .count();
          snapshots[i] = registry.snapshot();
        });
    result.wall_seconds = stats.wall_seconds;
    result.cells_per_second = stats.cells_per_second;
    result.setup_seconds = stats.setup_seconds;
    result.cells_stolen = stats.cells_stolen;
    result.metrics = obs::MetricsSnapshot::merged(std::move(snapshots));
    for (std::size_t i = 0; i < cell_count; ++i) {
      if (!result.cells[i].ok()) ++result.failed;
    }
    // sweep.cells / sweep.cells_failed are deterministic counts and belong
    // in the result snapshot; wall-clock scheduler stats go only to the
    // optional config registry (see record()).
    obs::Registry sweep_registry;
    sweep_registry.counter("sweep.cells").inc(cell_count);
    sweep_registry.counter("sweep.cells_failed").inc(result.failed);
    result.metrics.merge(sweep_registry.snapshot());
    fill_cell_wall_quantiles(result);
    record(cell_count, result.failed, stats, result.cell_wall_p50_s,
           result.cell_wall_p90_s, result.cell_wall_max_s);
    return result;
  }

  /// Chain-seeded, submission-ordered sweep (the common case).
  template <typename Fn>
  auto run(std::size_t cell_count, Fn&& body) {
    SweepPlan plan;
    plan.cell_count = cell_count;
    return run(plan, std::forward<Fn>(body));
  }

 private:
  struct DispatchStats {
    double wall_seconds = 0.0;
    double cells_per_second = 0.0;
    double setup_seconds = 0.0;
    std::size_t cells_stolen = 0;
  };
  /// Descending-cost execution order (submission order when no hints).
  static std::vector<std::size_t> execution_order(const SweepPlan& plan);
  DispatchStats dispatch(std::size_t cell_count,
                         const std::vector<std::size_t>& order,
                         const std::function<void(std::size_t)>& cell) const;
  void record(std::size_t cells, std::size_t failed,
              const DispatchStats& stats, double p50_s, double p90_s,
              double max_s) const;

  template <typename T>
  static void fill_cell_wall_quantiles(SweepResult<T>& result) {
    if (result.cells.empty()) return;
    std::vector<double> walls;
    walls.reserve(result.cells.size());
    for (const auto& c : result.cells) walls.push_back(c.wall_seconds);
    std::sort(walls.begin(), walls.end());
    const auto rank = [&](double q) {
      const auto n = walls.size();
      const auto i = static_cast<std::size_t>(q * static_cast<double>(n));
      return walls[std::min(i, n - 1)];
    };
    result.cell_wall_p50_s = rank(0.50);
    result.cell_wall_p90_s = rank(0.90);
    result.cell_wall_max_s = walls.back();
  }

  SweepConfig config_;
  std::size_t jobs_ = 1;
};

}  // namespace shuffledef::sim
