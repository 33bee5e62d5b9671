// Microbenchmarks (google-benchmark) for the hot paths: planners, the MLE,
// the hypergeometric sampler, one simulated shuffle round, and the event
// loop.  These are engineering-facing numbers, complementing the paper's
// Figures 5/6.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench_json.h"
#include "bench_main.h"
#include "core/algorithm_one.h"
#include "core/greedy_planner.h"
#include "core/mle_estimator.h"
#include "core/separable_dp.h"
#include "core/shuffle_controller.h"
#include "cloudsim/event_loop.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "sim/shuffle_sim.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace shuffledef;
using core::Count;

namespace {

void BM_GreedyPlan(benchmark::State& state) {
  const core::ShuffleProblem problem{state.range(0), state.range(0) / 10,
                                     std::max<Count>(2, state.range(0) / 100)};
  core::GreedyPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(problem));
  }
}
BENCHMARK(BM_GreedyPlan)->Arg(1000)->Arg(10000)->Arg(150000);

void BM_SeparableDpValue(benchmark::State& state) {
  const core::ShuffleProblem problem{state.range(0), state.range(0) / 2,
                                     state.range(0) / 5};
  core::SeparableDpPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.value(problem));
  }
}
BENCHMARK(BM_SeparableDpValue)->Arg(200)->Arg(500)->Arg(1000);

void BM_AlgorithmOneValue(benchmark::State& state) {
  // Second arg: thread count (1 = serial sweep, 0 = shared pool/hardware).
  // Third arg: 1 = record into an obs::Registry (the instrumented-overhead
  // comparison; 0 = null handles, the uninstrumented baseline).
  obs::Registry registry;
  core::AlgorithmOneOptions opts;
  opts.threads = state.range(1);
  opts.registry = state.range(2) != 0 ? &registry : nullptr;
  const core::ShuffleProblem problem{state.range(0), state.range(0) / 2,
                                     state.range(0) / 5};
  core::AlgorithmOnePlanner planner(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.value(problem));
  }
}
BENCHMARK(BM_AlgorithmOneValue)
    ->Args({30, 1, 0})
    ->Args({60, 1, 0})
    ->Args({90, 1, 0})
    ->Args({60, 0, 0})   // parallel, hardware threads
    ->Args({90, 0, 0})
    ->Args({60, 1, 1})   // instrumented vs {60, 1, 0}
    ->Args({90, 1, 1})
    ->Args({90, 0, 1});

void BM_AlgorithmOneSymmetry(benchmark::State& state) {
  // Second arg: 1 = exchangeability symmetry cut on, 0 = full candidate
  // sweep.  Exact-mode (tail_epsilon = 0) so the two variants answer the
  // same question and the ratio isolates the cut.
  core::AlgorithmOneOptions opts;
  opts.threads = 1;
  opts.tail_epsilon = 0.0;
  opts.symmetry_cut = state.range(1) != 0;
  const core::ShuffleProblem problem{state.range(0), state.range(0) / 2,
                                     state.range(0) / 5};
  core::AlgorithmOnePlanner planner(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.value(problem));
  }
}
BENCHMARK(BM_AlgorithmOneSymmetry)
    ->Args({60, 0})
    ->Args({60, 1})
    ->Args({90, 0})
    ->Args({90, 1});

void BM_ControllerDecide(benchmark::State& state) {
  // One controller decision per iteration over a recurring set of pool
  // sizes, as in a steady-state shuffle loop.  Arg: planner-cache capacity
  // (0 = caching disabled).  The hit_rate counter reports cache efficacy.
  core::ControllerConfig cfg;
  cfg.planner = "greedy";
  cfg.replicas = 200;
  cfg.use_mle = false;
  cfg.planner_cache_capacity = static_cast<std::size_t>(state.range(0));
  core::ShuffleController controller(cfg);
  controller.set_bot_estimate(2000);
  const Count pools[4] = {100000, 95000, 90000, 85000};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(pools[i++ % 4], std::nullopt));
  }
  if (const auto* cache = controller.planner_cache()) {
    state.counters["hit_rate"] = cache->hit_rate();
  }
}
BENCHMARK(BM_ControllerDecide)->Arg(0)->Arg(16);

void BM_MleEstimate(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const core::AssignmentPlan plan(std::vector<Count>(p, 100));
  util::Rng rng(1);
  // ~2 bots per replica on average: most replicas attacked, some clean, so
  // the estimator runs its full refinement search rather than the
  // all-attacked shortcut.
  const auto placed = rng.multivariate_hypergeometric(
      plan.counts(), static_cast<Count>(p) * 2);
  std::vector<bool> attacked;
  for (const auto b : placed) attacked.push_back(b > 0);
  const core::ShuffleObservation obs{plan, attacked};
  core::MleOptions opts;
  opts.engine = state.range(1) == 0 ? core::LikelihoodEngine::kExact
                                    : core::LikelihoodEngine::kGaussian;
  const core::MleEstimator mle(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mle.estimate(obs));
  }
}
BENCHMARK(BM_MleEstimate)
    ->Args({100, 0})   // exact engine, Figure-7 scale
    ->Args({100, 1})   // Gaussian engine, same scale
    ->Args({1000, 1}); // Gaussian engine, live-controller scale

void BM_HypergeometricSample(benchmark::State& state) {
  util::Rng rng(2);
  const Count draws = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.hypergeometric(150000, 100000, draws));
  }
}
BENCHMARK(BM_HypergeometricSample)
    ->Arg(150)  // a 150-client bucket: the walk
    ->Arg(1);   // a one-client bucket: the certified ratio decision

void BM_PlacementFig8Shape(benchmark::State& state) {
  // One Fig-8 placement: 100K bots over the greedy plan for 150K clients on
  // 1000 replicas (999 one-client buckets and a dump bucket).
  const auto plan = core::GreedyPlanner().plan({150000, 100000, 1000});
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rng.multivariate_hypergeometric(plan.counts(), 100000));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plan.counts().size()));
}
BENCHMARK(BM_PlacementFig8Shape);

void BM_ShuffleRound(benchmark::State& state) {
  // One full simulated shuffle round at Figure-8 scale.
  for (auto _ : state) {
    state.PauseTiming();
    sim::ShuffleSimConfig cfg;
    cfg.benign = {.initial = 50000, .rate = 0.0, .total_cap = 50000};
    cfg.bots = {.initial = 100000, .rate = 0.0, .total_cap = 100000};
    cfg.controller.planner = "greedy";
    cfg.controller.replicas = 1000;
    cfg.controller.use_mle = true;
    cfg.controller.mle.engine = core::LikelihoodEngine::kGaussian;
    cfg.max_rounds = 1;
    cfg.seed = 3;
    sim::ShuffleSimulator simulator(cfg);
    state.ResumeTiming();
    benchmark::DoNotOptimize(simulator.run());
  }
}
BENCHMARK(BM_ShuffleRound)->Unit(benchmark::kMillisecond);

void BM_ObsCounterInc(benchmark::State& state) {
  // Cost of one enabled counter increment (a relaxed atomic add).
  obs::Registry registry;
  const obs::Counter counter = registry.counter("bench.counter");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsNullCounterInc(benchmark::State& state) {
  // Cost of a disabled (null-handle) increment: one predictable branch.
  const obs::Counter counter;
  for (auto _ : state) {
    counter.inc();
  }
}
BENCHMARK(BM_ObsNullCounterInc);

void BM_ObsSpan(benchmark::State& state) {
  // Open + close one span: two clock reads plus the thread-local stack.
  obs::Registry registry;
  for (auto _ : state) {
    const obs::Span span(&registry, "bench.span");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpan);

void BM_EventLoopThroughput(benchmark::State& state) {
  for (auto _ : state) {
    cloudsim::EventLoop loop;
    for (int i = 0; i < 10000; ++i) {
      loop.schedule_at(static_cast<double>(i) * 1e-6, [] {});
    }
    if (!loop.run()) state.SkipWithError("event budget exhausted");
    benchmark::DoNotOptimize(loop.processed());
  }
}
BENCHMARK(BM_EventLoopThroughput)->Unit(benchmark::kMillisecond);

/// Times one Algorithm-1 solve with and without the symmetry cut and
/// records the pair (plus the relative value difference, which should sit
/// at rounding noise) into `out` under `prefix`.
void symmetry_pair(bench::BenchJson& out, const std::string& prefix,
                   const core::ShuffleProblem& problem, double tail_epsilon) {
  core::AlgorithmOneOptions opts;
  opts.threads = 1;
  opts.tail_epsilon = tail_epsilon;

  opts.symmetry_cut = false;
  core::AlgorithmOnePlanner uncut(opts);
  util::Timer uncut_timer;
  const double v_uncut = uncut.value(problem);
  const double uncut_ms = uncut_timer.elapsed_ms();

  opts.symmetry_cut = true;
  core::AlgorithmOnePlanner cut(opts);
  util::Timer cut_timer;
  const double v_cut = cut.value(problem);
  const double cut_ms = cut_timer.elapsed_ms();

  const double rel_diff =
      std::abs(v_cut - v_uncut) / std::max(std::abs(v_uncut), 1e-300);
  out.set(prefix + "_clients", static_cast<std::int64_t>(problem.clients));
  out.set(prefix + "_bots", static_cast<std::int64_t>(problem.bots));
  out.set(prefix + "_replicas", static_cast<std::int64_t>(problem.replicas));
  out.set(prefix + "_tail_epsilon", tail_epsilon);
  out.set(prefix + "_uncut_ms", uncut_ms);
  out.set(prefix + "_cut_ms", cut_ms);
  out.set(prefix + "_speedup", cut_ms > 0.0 ? uncut_ms / cut_ms : 0.0);
  out.set(prefix + "_rel_value_diff", rel_diff);
  std::cout << prefix << ": uncut " << uncut_ms << " ms, cut " << cut_ms
            << " ms, speedup "
            << (cut_ms > 0.0 ? uncut_ms / cut_ms : 0.0) << "x, rel diff "
            << rel_diff << "\n";
}

/// One cold Algorithm-1 solve at paper scale (N = 10^4, M = 10, P = 10,
/// tail_epsilon = 1e-12) on the shared pool; records the solve time, the
/// pool's thread count and the value.
void paper_scale_cold(bench::BenchJson& out) {
  core::AlgorithmOneOptions opts;
  opts.threads = 0;
  opts.tail_epsilon = 1e-12;
  const core::AlgorithmOnePlanner planner(opts);
  util::Timer timer;
  const double value = planner.value({10000, 10, 10});
  const double cold_ms = timer.elapsed_ms();
  const auto threads =
      static_cast<std::int64_t>(util::ThreadPool::shared().thread_count());
  out.set("paper_scale_cold_ms", cold_ms);
  out.set("paper_scale_threads", threads);
  out.set("paper_scale_cold_value", value);
  std::cout << "paper_scale cold solve: " << cold_ms << " ms on " << threads
            << " threads\n";
}

/// Perf-trajectory mode: the paper-scale cold solve, then the exact-mode
/// (tail_epsilon = 0) symmetry-cut pair, where the cut is the only
/// difference between the two solves.
int run_bench_json(const std::string& path) {
  bench::BenchJson out;
  out.set("bench", std::string("micro_algorithms"));
  paper_scale_cold(out);
  symmetry_pair(out, "exact_mode", {400, 40, 10}, 0.0);
  return out.write(path) ? 0 : 1;
}

int run_bench(int argc, char** argv) {
  // `--bench-json <path>` bypasses google-benchmark and runs the
  // paper-scale solve + symmetry-cut perf trajectory instead (see
  // EXPERIMENTS.md).  It takes no other flag, so one meant for another
  // mode fails loudly instead of being ignored.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0) {
      if (argc != 3) {
        throw std::invalid_argument("--bench-json <path> takes no other flags");
      }
      return run_bench_json(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main(argc, argv, run_bench);
}
