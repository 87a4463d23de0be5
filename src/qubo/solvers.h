#ifndef QJO_QUBO_SOLVERS_H_
#define QJO_QUBO_SOLVERS_H_

#include <atomic>
#include <vector>

#include "qubo/qubo.h"
#include "qubo/solver_control.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/statusor.h"

namespace qjo {

/// A candidate QUBO solution with its energy.
struct QuboSolution {
  std::vector<int> assignment;
  double energy = 0.0;
};

/// Inner-loop implementation of the stochastic solvers (SA, tabu, SQA).
/// Both kernels run on the shared CSR problem layout and walk the same
/// Metropolis/steepest-descent trajectory; they differ only in how the
/// flip deltas are obtained.
enum class SolverKernel {
  /// Persistent local fields h_i = linear_i + sum_j w_ij x_j kept in sync
  /// with the state: O(1) per proposal, O(degree) per *accepted* flip.
  kIncremental,
  /// O(degree) neighbourhood scan per proposal (the pre-refactor
  /// behaviour). Kept as the independent reference implementation for the
  /// kernel-parity tests and the speedup benchmarks.
  kReference,
  /// Multi-replica structure-of-arrays kernel (SA and SQA): groups of
  /// reads anneal together, with each variable's per-replica local fields
  /// in one contiguous plane so accepted flips update all replicas with
  /// SIMD lanes (util/simd.h). Per-replica Rng::Fork streams and an
  /// exponent-bound Metropolis filter (qubo/metropolis.h) keep every
  /// replica's trajectory bit-identical to the same read under
  /// kIncremental, at any parallelism. The default and the production hot
  /// path. Tabu has no batched variant and treats this as kIncremental.
  kBatched,
};

/// Lowercase kernel name for logs, reports, and the CLI ("incremental",
/// "reference", "batched").
const char* SolverKernelName(SolverKernel kernel);

/// Exact minimisation by Gray-code enumeration with incremental energy
/// updates: O(2^n * avg_degree). Fails beyond `max_variables` (default 28,
/// clamped to 63: the Gray-code walk indexes states with a uint64_t and
/// `1 << 64` is undefined behaviour).
StatusOr<QuboSolution> SolveQuboBruteForce(const Qubo& qubo,
                                           int max_variables = 28);

/// Options for the classical simulated-annealing QUBO solver. This serves
/// both as a classical baseline and as a building block for tests; the
/// *quantum* annealer model lives in src/sim (path-integral Monte Carlo).
struct SaOptions {
  int num_reads = 10;            ///< independent restarts
  int sweeps_per_read = 1000;    ///< full-variable Metropolis sweeps
  double initial_temperature = 0.0;  ///< 0 = auto (max |coefficient|)
  double final_temperature = 0.0;    ///< 0 = auto (1e-3 * initial)
  /// Runtime control shared with the other stochastic solvers: pool,
  /// cooperative stop, and the observability sinks
  /// (see SolverControl for the per-field contracts).
  SolverControl control;
  /// Inner-loop implementation; kBatched (the default) is bit-identical
  /// to kIncremental; kReference is for tests and benches.
  SolverKernel kernel = SolverKernel::kBatched;
};

/// The resolved geometric cooling schedule: sweep k of a read runs at
/// temperature t_initial * cooling^k, and the *final* sweep
/// (k = sweeps_per_read - 1) runs exactly at t_final. Exposed so tests
/// can pin the schedule endpoints.
struct SaSchedule {
  double t_initial = 0.0;
  double t_final = 0.0;
  double cooling = 1.0;  ///< factor applied after each sweep
};

/// Resolves the auto temperature defaults and the cooling factor for
/// `qubo`. With sweeps_per_read == 1 the single sweep runs at t_initial
/// and cooling degenerates to 1.
SaSchedule ResolveSaSchedule(const Qubo& qubo, const SaOptions& options);

/// Runs classical simulated annealing; returns all reads, best first.
/// Reads run on `options.control.pool` (serial when null); output is
/// independent of thread count and scheduling for a fixed `rng` state.
std::vector<QuboSolution> SolveQuboSimulatedAnnealing(const Qubo& qubo,
                                                      const SaOptions& options,
                                                      Rng& rng);

/// Options for the tabu-search QUBO solver (another classical baseline, in
/// the spirit of D-Wave's qbsolv post-processing).
struct TabuOptions {
  int num_restarts = 5;
  int iterations_per_restart = 2000;
  /// Tabu tenure; 0 = auto (~ sqrt(n) + 10).
  int tenure = 0;
  /// Shared runtime control (pool/stop/observability); the
  /// stop token is checked once per iteration and the incumbent found so
  /// far is returned.
  SolverControl control;
  /// Inner-loop implementation; kReference is for tests and benches.
  SolverKernel kernel = SolverKernel::kIncremental;
};

/// Tabu search: steepest-descent single-bit flips with a recency-based
/// tabu list and incumbent aspiration. Ties on the best move are broken
/// uniformly with a single RNG draw per iteration (tie counting), so the
/// number of draws never depends on candidate scan order. Returns one
/// solution per restart, best first.
std::vector<QuboSolution> SolveQuboTabuSearch(const Qubo& qubo,
                                              const TabuOptions& options,
                                              Rng& rng);

/// Best solution of a set; aborts on empty input.
const QuboSolution& BestSolution(const std::vector<QuboSolution>& solutions);

}  // namespace qjo

#endif  // QJO_QUBO_SOLVERS_H_
