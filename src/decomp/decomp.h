#ifndef QJO_DECOMP_DECOMP_H_
#define QJO_DECOMP_DECOMP_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "jo/join_tree.h"
#include "jo/query.h"
#include "obs/obs.h"
#include "util/random.h"
#include "util/run_context.h"
#include "util/statusor.h"

namespace qjo {

/// Hybrid qbsolv-style decomposition for large join-ordering queries
/// (Nayak et al.: hybrid quantum-classical approaches for JO QUBOs).
///
/// Every backend below this layer solves one monolithic QUBO, which stops
/// producing valid join trees well before 20 relations. The decomposition
/// strand instead runs large-neighborhood search over the join order:
///
///  1. *Seed.* The classical greedy plan is the initial incumbent, so the
///     result can never be worse than greedy.
///  2. *Partition.* The incumbent order is cut into windows of
///     `window` consecutive positions. Windows within a round are
///     disjoint (their reorderings commute); successive rounds shift the
///     cut points by half a window, so every pair of adjacent positions
///     shares a window in one of any two consecutive rounds.
///  3. *Sub-solve.* Each window becomes a small subquery — the already-
///     joined prefix is folded into one pseudo-relation carrying its
///     cardinality and its combined selectivities towards every window
///     relation — encoded (one threshold, omega 1) through the shared
///     QUBO build cache and solved by one SolveAnnealRound
///     (sim/anneal_round.h), the round the portfolio's sa/tabu/sqa
///     strands run, rotating the kernel per window so the strand inherits
///     the race's solver diversity.
///  4. *Stitch + repair.* The best decodable sample yields a relative
///     order of the window's relations (the prefix pseudo-relation is
///     projected out — the repair that keeps every candidate a valid
///     permutation). When nothing decodes, the classical DP oracle on
///     the subquery supplies the relative order instead. A candidate is
///     accepted iff it lowers the *global* C_out cost.
///  5. *Iterate.* Rounds repeat — re-optimising the currently worst
///     windows first — until the round budget, a stop request, a
///     convergence stall (two phase-alternating rounds without
///     improvement) or an incumbent that reaches the caller's target cost
///     ends the search.
///
/// Determinism: window solves fork disjoint RNG streams
/// (`rng.Fork(round).Fork(window)`) and proposals are folded in fixed
/// window order, so a run that no stop cuts short is bit-identical at
/// every parallelism level. A stopped run is wall-clock-dependent,
/// exactly like the portfolio's deadline mode.
///
/// These options say only *what* to search; where the loop runs and
/// whether it was stopped come from the RunContext passed next to them.
/// The race contract: the portfolio's decomp strand passes the race's
/// context, whose stop token the race deadline stops, and in deadline
/// mode up to kMaxDpRelations it also passes the DP optimum's cost as the
/// target, so the loop returns as soon as its incumbent reaches it and
/// the strand can end the race at the optimum. Sweep-budget races pass no
/// target.
struct DecompOptions {
  /// Relations per window (the subqueries add one prefix pseudo-relation
  /// on top). Sized for the local-field kernels: sub-QUBOs stay in
  /// the few-hundred-variable range where SA/tabu sweeps are microseconds.
  int window = 9;
  /// LNS rounds; must be positive.
  int max_rounds = 8;
  /// Consecutive improvement-free rounds before giving up early; >= 2
  /// guarantees both partition phases were retried since the last
  /// improvement.
  int stall_rounds = 2;

  /// Sub-solver effort per window: reads/restarts x sweeps/iterations,
  /// spent by the rotating SA/tabu/SQA sub-solves.
  int subsolver_reads = 4;
  int subsolver_sweeps = 96;
};

/// One window of consecutive incumbent-order positions, [start, start+length).
struct DecompWindow {
  int start = 0;
  int length = 0;
};

/// Cuts positions 0..t-1 into disjoint windows of `window` positions.
/// `phase` shifts every cut point right (0 <= phase < window), producing
/// a leading partial window; a trailing partial window absorbs the
/// remainder. Windows shorter than 2 positions are dropped (reordering
/// them is a no-op). Deterministic and exposed for tests.
std::vector<DecompWindow> PartitionWindows(int t, int window, int phase);

/// The window subproblem: a standalone subquery plus the mapping back to
/// global relation ids. When the window does not start the join order,
/// subquery relation 0 is a pseudo-relation standing for the entire
/// already-joined prefix (cardinality = JoinCardinality(prefix), one
/// predicate per window relation carrying its combined selectivity
/// towards the prefix); window relations follow in incumbent order.
struct WindowSubproblem {
  Query subquery;
  /// Global relation id of subquery relation (i + has_prefix).
  std::vector<int> relations;
  bool has_prefix = false;
};

/// Builds the subproblem for `window` over `order` (the incumbent).
/// Exposed for tests; fails only on degenerate windows (< 2 relations).
StatusOr<WindowSubproblem> BuildWindowSubproblem(const Query& query,
                                                 const std::vector<int>& order,
                                                 const DecompWindow& window);

/// Everything one decomposition run learned, mirroring StrandOutcome's
/// counters so the strand's metrics stay comparable.
struct DecompReport {
  LeftDeepOrder order;  ///< always a valid permutation (greedy-seeded)
  double cost = 0.0;
  double greedy_cost = 0.0;  ///< the seed; cost <= greedy_cost always
  int rounds = 0;
  int windows_solved = 0;
  int improvements = 0;     ///< accepted window proposals
  int repairs = 0;          ///< windows stitched via the classical DP repair
};

/// Runs the decomposition loop on `query` under `run`: its pool carries
/// the per-round window fan-out (null = serial; results never depend on
/// it) when the call runs outside any ParallelFor. Inside a portfolio
/// race the loop is a strand body, so the fan-out is a nested ParallelFor
/// and runs serially on the strand's thread (util/thread_pool.h).
/// `run.stop` is checked before every window solve and reaches the
/// sub-solvers' sweeps. `max_rounds` bounds the loop, which reads no
/// clock: a wall-clock budget (`run.deadline_ms` included) has to arrive
/// as a stop request, the way the portfolio race arms one on the
/// process-wide DeadlineMonitor. The loop also ends at the start of the
/// first round, round 0 included, whose incumbent reaches `target_cost`
/// (ReachesCost); the default -infinity is no target, and a run that
/// never reaches its target is identical to one without. The window
/// sub-encodings go through `run.build_cache`: the loop hits it thousands of times per query
/// (windows repeat across rounds), exactly the workload the cache's
/// single-entry LRU eviction protects. Without one the call keeps a
/// private cache for its duration. Always returns a valid join tree with
/// cost <= the greedy baseline (the seed) when it returns at all; fails
/// only on < 2 relations, > 63 relations (bitmask-bounded cost model), or
/// non-positive round or sub-solver budgets.
StatusOr<DecompReport> OptimizeJoinOrderDecomposed(
    const Query& query, const DecompOptions& options, const RunContext& run,
    Rng& rng, double target_cost = -std::numeric_limits<double>::infinity());

}  // namespace qjo

#endif  // QJO_DECOMP_DECOMP_H_
