#ifndef QJO_DECOMP_DECOMP_H_
#define QJO_DECOMP_DECOMP_H_

#include <cstdint>
#include <vector>

#include "core/qubo_cache.h"
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
///     relation — encoded through the shared QUBO build cache and solved
///     with the fast incremental SA/tabu/SQA kernels (rotating per
///     window so the strand inherits the portfolio's solver diversity).
///  4. *Stitch + repair.* The best decodable sample yields a relative
///     order of the window's relations (the prefix pseudo-relation is
///     projected out — the repair that keeps every candidate a valid
///     permutation). When nothing decodes, the classical DP oracle on
///     the subquery supplies the relative order instead. A candidate is
///     accepted iff it lowers the *global* C_out cost.
///  5. *Iterate.* Rounds repeat — re-optimising the currently worst
///     windows first — until the round budget, the deadline, or a
///     convergence stall (two phase-alternating rounds without
///     improvement) ends the search.
///
/// Determinism: window solves fork disjoint RNG streams
/// (`rng.Fork(round).Fork(window)`) and proposals are folded in fixed
/// window order, so a rounds-bounded run is bit-identical at every
/// parallelism level. Deadline-bounded runs stop cooperatively between
/// window solves and are wall-clock-dependent, exactly like the
/// portfolio's deadline mode.
///
/// These options say only *what* to search; where the loop runs, until
/// when and whether it was cancelled come from the RunContext passed
/// next to them (the portfolio's decomp strand passes the race's).
struct DecompOptions {
  /// Relations per window (the subqueries add one prefix pseudo-relation
  /// on top). Sized for the fast incremental kernels: sub-QUBOs stay in
  /// the few-hundred-variable range where SA/tabu sweeps are microseconds.
  int window = 9;
  /// LNS rounds. <= 0 requires a positive deadline (run until it fires).
  int max_rounds = 8;
  /// Consecutive improvement-free rounds before giving up early; >= 2
  /// guarantees both partition phases were retried since the last
  /// improvement.
  int stall_rounds = 2;

  /// Sub-solver effort per window: reads/restarts x sweeps/iterations.
  /// The rotating SA/tabu/SQA sub-solves run their default kernels
  /// (kBatched; tabu's incremental one).
  int subsolver_reads = 4;
  int subsolver_sweeps = 96;

  /// Encoding options for the window subqueries (kept small: one
  /// threshold keeps sub-QUBOs lean; the acceptance test uses the exact
  /// C_out cost anyway, so encoding granularity only shapes proposals).
  int num_thresholds = 1;
  double omega = 1.0;

  /// Build cache for the window sub-encodings. The LNS loop hits it
  /// thousands of times per query (windows repeat across rounds), which
  /// is exactly the workload the cache's single-entry LRU eviction
  /// protects. Null = the call creates a private cache for its duration.
  QuboBuildCache* cache = nullptr;
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

/// Everything one decomposition run learned, mirroring PortfolioReport's
/// counters so the strand's metrics stay comparable.
struct DecompReport {
  LeftDeepOrder order;  ///< always a valid permutation (greedy-seeded)
  double cost = 0.0;
  double greedy_cost = 0.0;  ///< the seed; cost <= greedy_cost always
  int rounds = 0;
  int windows_solved = 0;
  int improvements = 0;     ///< accepted window proposals
  int repairs = 0;          ///< windows stitched via the classical DP repair
  bool deadline_expired = false;
  double elapsed_ms = 0.0;
};

/// Runs the decomposition loop on `query` under `run`: its pool carries
/// the per-round window fan-out (null = serial; results never depend on
/// it), `run.deadline_ms` <= 0 = no deadline (bounded by max_rounds),
/// and a positive deadline as well as `run.stop` are checked between
/// window solves. Always returns a valid join tree with cost <= the
/// greedy baseline (the seed) when it returns at all; fails only on < 2
/// relations, > 63 relations (bitmask-bounded cost model), or an
/// unbounded configuration.
StatusOr<DecompReport> OptimizeJoinOrderDecomposed(const Query& query,
                                                   const DecompOptions& options,
                                                   const RunContext& run,
                                                   Rng& rng);

}  // namespace qjo

#endif  // QJO_DECOMP_DECOMP_H_
