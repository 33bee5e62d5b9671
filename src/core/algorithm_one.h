// Algorithm 1 from the paper: Optimal-Assign(N, M, P).
//
// The recurrence decomposes the shuffle over the "last" replica:
//
//   S(n, m, 1) = n if m == 0 else 0
//   S(n, m, p) = max_{1<=a<=n-1} sum_b Pr(b | a) * [S(a, b, 1) + S(n-a, m-b, p-1)]
//   Pr(b | a)  = C(m, b) * C(n-m, a-b) / C(n, a)          (hypergeometric)
//
// and is solved bottom-up, exactly as the paper's Algorithm 1 builds the
// save_no / assign_no lookup tables.  The paper quotes O(N^3 M^2 P) time and
// reports tens of hours in Matlab for N = 1000, which is why the defense
// plans with GreedyPlanner; this solver serves the Figure 3/5 benches and
// the tests.  It keeps two rolling (n, m) value layers plus, when a plan is
// extracted, one assign_no entry per (p, n, m) cell, and has four knobs on
// top of the plain recurrence:
//
//   * hypergeometric tail truncation past the mode (tail_epsilon; 0 = exact);
//   * the a_cap candidate cap (a genuine heuristic; tests bound the loss);
//   * the exchangeability symmetry cut (symmetry_cut, default on): uniform
//     placement gives Pr(b | draws=a) = Pr(m-b | draws=n-a), so the mirror
//     candidate's value V(n-a) shares the pmf walk of the lower candidate.
//     Exact in real arithmetic; upper-half values may differ from the uncut
//     loop in the last ulps (tests pin 1e-9 relative and exhaustively on
//     small grids);
//   * the per-layer (n, m) cell sweep runs on a chunked thread pool
//     (AlgorithmOneOptions::threads) with fixed chunk boundaries — cells of
//     one layer only read the previous layer, so the parallel sweep is
//     bit-identical to the serial one at any thread count.
//
// Its answers are pinned bit for bit by recorded digests in
// tests/core/planner_oracle_test.
//
// Note on semantics: because the recurrence re-optimizes the remaining
// replicas *conditioned on b* (the bots that landed in the bucket just
// cut), its value upper-bounds every fixed size-vector plan — and the bound
// is strict on many instances, by a few percent (see
// tests/core/algorithm_one_test).  No deployable plan is adaptive in this
// sense (all buckets are cut before the random assignment is realized), so
// the achievable optimum is the fixed-plan one computed by
// SeparableDpPlanner in O(P·N^2); the benches report both.
#pragma once

#include <cstddef>
#include <memory>

#include "core/planner.h"
#include "obs/registry.h"

namespace shuffledef::util {
class ThreadPool;
}

namespace shuffledef::core {

struct AlgorithmOneOptions {
  /// Truncate the hypergeometric expectation once pmf < epsilon beyond the
  /// mode.  0 keeps the full support (exact mode).
  double tail_epsilon = 0.0;
  /// Cap the per-level search over a (0 = search all of [1, n-1]).
  Count a_cap = 0;
  /// Evaluate split candidates a and n - a from one shared hypergeometric
  /// walk (see the header comment for the exchangeability identity this
  /// rests on).  Exact in real arithmetic; upper-half candidate values may
  /// differ from the uncut loop in the last ulps.  Ignored when a_cap > 0
  /// (a_cap already restricts the candidate set).  Default on; set false
  /// to recover the uncut loop bit-for-bit.
  bool symmetry_cut = true;
  /// Guard against accidental monster allocations (value + argmax tables).
  std::size_t memory_limit_bytes = std::size_t{2} << 30;
  /// Threads for the per-layer cell sweep: 1 = serial (no pool touched),
  /// 0 = the process-wide util::ThreadPool::shared(), k > 1 = a private
  /// pool of k threads.  Every cell of a layer depends only on the previous
  /// layer and carries private accumulators, and rows are handed out as
  /// fixed-boundary chunks, so the result is bit-identical at any setting.
  Count threads = 0;
  /// Observability sink (nullptr = uninstrumented).  Counters
  /// "planner.algorithm1.{solves,layers,cells}" and the span
  /// "planner.algorithm1.solve".  Counts are independent of the thread
  /// count, so snapshots stay deterministic.
  obs::Registry* registry = nullptr;
};

class AlgorithmOnePlanner final : public Planner {
 public:
  explicit AlgorithmOnePlanner(AlgorithmOneOptions options = {});
  ~AlgorithmOnePlanner() override;

  /// The optimal expected number of benign clients saved, S(N, M, P).
  [[nodiscard]] double value(const ShuffleProblem& problem) const;

  /// Extract a concrete plan by walking the assign_no table.  The walk needs
  /// a bot count for each reduced subproblem; bots are not observable, so
  /// the expected remainder round(m * (n-a) / n) is used (documented
  /// deviation: the paper does not specify the extraction rule).
  [[nodiscard]] AssignmentPlan plan(const ShuffleProblem& problem) const override;

  [[nodiscard]] std::string name() const override { return "algorithm1"; }

 private:
  struct Tables;
  [[nodiscard]] Tables solve(const ShuffleProblem& problem, bool keep_argmax) const;
  [[nodiscard]] util::ThreadPool* pool() const;

  AlgorithmOneOptions options_;
  // Lazily built private pool when options_.threads > 1 (solve() is const;
  // the pool is an execution resource, not logical state).  Solve calls on
  // one planner instance must not run concurrently; distinct instances are
  // independent.
  mutable std::unique_ptr<util::ThreadPool> private_pool_;
  // Null handles when options_.registry is null (all ops no-op).
  obs::Counter solves_;
  obs::Counter layers_;
  obs::Counter cells_;
};

}  // namespace shuffledef::core
