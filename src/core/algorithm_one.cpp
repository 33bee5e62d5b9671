#include "core/algorithm_one.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/span.h"
#include "util/math.h"
#include "util/thread_pool.h"

namespace shuffledef::core {
namespace {

// Sentinel in the assign_no table: "do not split — put everything on one
// replica" (used for n <= 1, m == 0, and padding).
constexpr std::uint16_t kNoSplit = 0;

// Rows per parallel_for chunk.  Boundaries are fixed (independent of the
// thread count), and small-n rows are nearly free, so a modest grain keeps
// the chunk-dispatch overhead negligible without hurting load balance.
constexpr std::int64_t kRowGrain = 16;

double base_case(Count n, Count m) {
  return m == 0 ? static_cast<double>(n) : 0.0;
}

}  // namespace

struct AlgorithmOnePlanner::Tables {
  Count clients = 0;
  Count bots = 0;
  double value = 0.0;
  // assign_no[p][n][m] flattened for layers p = 2..P (layer 1 never
  // splits, so it has no argmax); only filled when keep_argmax.
  std::vector<std::uint16_t> assign_no;

  [[nodiscard]] std::size_t idx(Count p, Count n, Count m) const {
    const auto stride_m = static_cast<std::size_t>(bots + 1);
    const auto stride_n = static_cast<std::size_t>(clients + 1) * stride_m;
    return static_cast<std::size_t>(p - 2) * stride_n +
           static_cast<std::size_t>(n) * stride_m + static_cast<std::size_t>(m);
  }
};

AlgorithmOnePlanner::AlgorithmOnePlanner(AlgorithmOneOptions options)
    : options_(options) {
  if (options_.threads < 0) {
    throw std::invalid_argument("AlgorithmOneOptions: threads must be >= 0");
  }
  if (options_.registry != nullptr) {
    solves_ = options_.registry->counter("planner.algorithm1.solves");
    layers_ = options_.registry->counter("planner.algorithm1.layers");
    cells_ = options_.registry->counter("planner.algorithm1.cells");
  }
}

AlgorithmOnePlanner::~AlgorithmOnePlanner() = default;

util::ThreadPool* AlgorithmOnePlanner::pool() const {
  if (options_.threads == 1) return nullptr;  // serial: never touch a pool
  if (options_.threads == 0) return &util::ThreadPool::shared();
  if (!private_pool_) {
    private_pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(options_.threads));
  }
  return private_pool_.get();
}

AlgorithmOnePlanner::Tables AlgorithmOnePlanner::solve(
    const ShuffleProblem& problem, bool keep_argmax) const {
  const obs::Span span(options_.registry, "planner.algorithm1.solve");
  solves_.inc();
  problem.validate();
  const Count N = problem.clients;
  const Count M = problem.bots;
  const Count P = problem.replicas;
  if (N > 60000) {
    throw std::invalid_argument(
        "AlgorithmOnePlanner: N too large for the tabular DP; "
        "use GreedyPlanner or SeparableDpPlanner at this scale");
  }

  const auto layer_size =
      static_cast<std::size_t>(N + 1) * static_cast<std::size_t>(M + 1);
  std::size_t need = 2 * layer_size * sizeof(double);
  if (keep_argmax) {
    need +=
        layer_size * static_cast<std::size_t>(P - 1) * sizeof(std::uint16_t);
  }
  if (need > options_.memory_limit_bytes) {
    throw std::invalid_argument(
        "AlgorithmOnePlanner: tables exceed memory_limit_bytes (" +
        std::to_string(need) + " bytes needed)");
  }

  Tables t;
  t.clients = N;
  t.bots = M;
  if (keep_argmax) {
    t.assign_no.assign(layer_size * static_cast<std::size_t>(P - 1), kNoSplit);
  }

  auto cell = [&](std::vector<double>& layer, Count n, Count m) -> double& {
    return layer[static_cast<std::size_t>(n) * static_cast<std::size_t>(M + 1) +
                 static_cast<std::size_t>(m)];
  };

  // Layer p = 1.
  std::vector<double> prev(layer_size, 0.0);
  std::vector<double> cur(layer_size, 0.0);
  for (Count n = 0; n <= N; ++n) {
    for (Count m = 0; m <= std::min(n, M); ++m) {
      cell(prev, n, m) = base_case(n, m);
    }
  }
  if (P == 1) {
    t.value = cell(prev, N, M);
    return t;
  }

  util::ThreadPool* workers = pool();
  // Instrumentation: every layer sweeps the same (n, m) cell set, so the
  // count is computed arithmetically once — the parallel hot loop stays
  // untouched and totals are identical at any thread count.
  std::uint64_t cells_per_layer = 0;
  if (cells_) {
    for (Count n = 0; n <= N; ++n) {
      cells_per_layer += static_cast<std::uint64_t>(std::min(n, M)) + 1;
    }
  }
  for (Count p = 2; p <= P; ++p) {
    // Every cell of this layer reads only `prev` and writes only its own
    // slot of `cur` (and its own assign_no entry), so rows are embarrassingly
    // parallel; each cell's KahanSum is private, keeping the result
    // bit-identical to the serial sweep at any thread count.
    const bool mirror_halves =
        options_.symmetry_cut && options_.a_cap == 0;
    const auto sweep_rows = [&](std::int64_t row_lo, std::int64_t row_hi) {
      // Scratch for mirror-candidate values (symmetry cut only): written
      // once per cell for every upper-half candidate, then scanned in
      // ascending order so the first-maximizer tie-break of the uncut loop
      // is preserved.  Local to the chunk call — chunks run concurrently.
      std::vector<double> upper;
      for (Count n = row_lo; n < row_hi; ++n) {
        for (Count m = 0; m <= std::min(n, M); ++m) {
          // Degenerate cases where splitting is impossible or pointless.
          if (n <= 1 || m == 0) {
            cell(cur, n, m) = base_case(n, m);
            if (keep_argmax) t.assign_no[t.idx(p, n, m)] = kNoSplit;
            continue;
          }
          // With the symmetry cut, lower candidates [1, half] are walked
          // directly and each walk also yields the mirror candidate n - a
          // (for a <= mirror_hi, i.e. mirrors covering [half + 1, n - 1]).
          const Count half = n / 2;
          const Count mirror_hi = mirror_halves ? n - 1 - half : 0;
          const Count a_hi = options_.a_cap > 0
                                 ? std::min(n - 1, options_.a_cap)
                                 : (mirror_halves ? half : n - 1);
          if (mirror_halves &&
              upper.size() < static_cast<std::size_t>(mirror_hi)) {
            upper.resize(static_cast<std::size_t>(mirror_hi));
          }
          double best = -1.0;
          Count best_a = 1;
          // Start-of-walk pmf for the symmetry-cut path: Pr(b = 0 | draws
          // = a) obeys P0(a+1) = P0(a) * (n-m-a)/(n-a), which replaces the
          // per-candidate log-factorial exponentiation whenever lo == 0
          // (always, at paper scale, where m << n).  The uncut loop keeps
          // the historical closed-form start bit-for-bit.
          double pmf0 = static_cast<double>(n - m) / static_cast<double>(n);
          for (Count a = 1; a <= a_hi; ++a) {
            // Hypergeometric expectation over b = bots landing on the bucket
            // of size a, with incremental pmf updates.
            const Count lo = std::max<Count>(0, a - (n - m));
            const Count hi = std::min(a, m);
            double pmf = (mirror_halves && lo == 0)
                             ? pmf0
                             : util::hypergeometric_pmf(n, m, a, lo);
            const auto mode = static_cast<Count>(
                (static_cast<double>(a) + 1.0) *
                (static_cast<double>(m) + 1.0) /
                (static_cast<double>(n) + 2.0));
            const bool eval_mirror = a <= mirror_hi;
            util::KahanSum acc;
            util::KahanSum acc_mirror;
            for (Count b = lo; b <= hi; ++b) {
              if (b == 0) acc.add(static_cast<double>(a) * pmf);  // S(a,0,1)=a
              acc.add(pmf * cell(prev, n - a, m - b));
              if (eval_mirror) {
                // Mirror candidate n - a: its single replica takes n - a
                // clients and its remainder is exactly this size-a bucket
                // with these b bots, so the same pmf weights apply.
                acc_mirror.add(pmf * cell(prev, a, b));
                // Clean-bucket term of the mirror: all m bots land in the
                // size-a remainder, and Pr(B_a = m) == Pr(no bots in n - a
                // draws) exactly (hypergeometric complement symmetry), so
                // the walk supplies it with no extra log-factorial work.
                // A tail-truncated walk that stops before b == m drops a
                // term bounded by n * tail_epsilon, inside the same epsilon
                // class as the truncation itself.
                if (b == m) {
                  acc_mirror.add(static_cast<double>(n - a) * pmf);
                }
              }
              if (options_.tail_epsilon > 0.0 && b > mode &&
                  pmf < options_.tail_epsilon) {
                break;
              }
              // pmf(b+1)/pmf(b) for Hypergeom(total=n, successes=m, draws=a).
              const double bd = static_cast<double>(b);
              pmf *= (static_cast<double>(m) - bd) *
                     (static_cast<double>(a) - bd) /
                     ((bd + 1.0) *
                      (static_cast<double>(n - m - a) + bd + 1.0));
            }
            if (eval_mirror) {
              upper[static_cast<std::size_t>(n - a - half - 1)] =
                  acc_mirror.value();
            }
            if (acc.value() > best) {
              best = acc.value();
              best_a = a;
            }
            if (mirror_halves && a + 1 <= n - m) {
              pmf0 *= static_cast<double>(n - m - a) /
                      static_cast<double>(n - a);
            }
          }
          for (Count ap = half + 1; mirror_halves && ap <= n - 1; ++ap) {
            const double v = upper[static_cast<std::size_t>(ap - half - 1)];
            if (v > best) {
              best = v;
              best_a = ap;
            }
          }
          cell(cur, n, m) = best;
          if (keep_argmax) {
            t.assign_no[t.idx(p, n, m)] = static_cast<std::uint16_t>(best_a);
          }
        }
      }
    };
    if (workers != nullptr) {
      workers->parallel_for(0, static_cast<std::int64_t>(N) + 1, sweep_rows,
                            kRowGrain);
    } else {
      sweep_rows(0, static_cast<std::int64_t>(N) + 1);
    }
    layers_.inc();
    cells_.inc(cells_per_layer);
    std::swap(prev, cur);
  }
  t.value = cell(prev, N, M);
  return t;
}

double AlgorithmOnePlanner::value(const ShuffleProblem& problem) const {
  return solve(problem, /*keep_argmax=*/false).value;
}

AssignmentPlan AlgorithmOnePlanner::plan(const ShuffleProblem& problem) const {
  const Tables t = solve(problem, /*keep_argmax=*/true);
  std::vector<Count> counts;
  counts.reserve(static_cast<std::size_t>(problem.replicas));

  Count n = problem.clients;
  Count m = problem.bots;
  for (Count p = problem.replicas; p >= 1; --p) {
    if (p == 1) {
      counts.push_back(n);
      n = 0;
      break;
    }
    const std::uint16_t a_raw = t.assign_no[t.idx(p, n, m)];
    if (a_raw == kNoSplit) {
      counts.push_back(n);
      n = 0;
      // Remaining replicas stay empty.
      for (Count q = p - 1; q >= 1; --q) counts.push_back(0);
      break;
    }
    const auto a = static_cast<Count>(a_raw);
    counts.push_back(a);
    // Bots are not observable: continue the walk with the expected number
    // of bots remaining after removing a uniformly chosen bucket of size a.
    const double expected_left =
        static_cast<double>(m) * static_cast<double>(n - a) /
        static_cast<double>(n);
    m = std::min<Count>(static_cast<Count>(std::llround(expected_left)), n - a);
    n -= a;
  }
  return AssignmentPlan(std::move(counts));
}

}  // namespace shuffledef::core
