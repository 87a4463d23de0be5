#ifndef QJO_QUBO_SOLVERS_H_
#define QJO_QUBO_SOLVERS_H_

#include <vector>

#include "qubo/qubo.h"
#include "util/random.h"
#include "util/run_context.h"
#include "util/thread_pool.h"
#include "util/statusor.h"

namespace qjo {

/// A candidate QUBO solution with its energy.
struct QuboSolution {
  std::vector<int> assignment;
  double energy = 0.0;
};

/// Exact minimisation by Gray-code enumeration with incremental energy
/// updates: O(2^n * avg_degree). Fails beyond `max_variables` (default 28,
/// clamped to 63: the Gray-code walk indexes states with a uint64_t and
/// `1 << 64` is undefined behaviour). Reads only `run.stop`, checked
/// before the walk and once every 2^16 steps: a stopped walk fails with
/// ResourceExhausted and returns no partial minimum. The default context
/// never stops, so the walk runs to completion.
StatusOr<QuboSolution> SolveQuboBruteForce(const Qubo& qubo,
                                           int max_variables = 28,
                                           const RunContext& run = {});

/// Options for the classical simulated-annealing QUBO solver. This serves
/// both as a classical baseline and as a building block for tests; the
/// *quantum* annealer model lives in src/sim (path-integral Monte Carlo).
struct SaOptions {
  int num_reads = 10;            ///< independent restarts
  int sweeps_per_read = 1000;    ///< full-variable Metropolis sweeps
  double initial_temperature = 0.0;  ///< 0 = auto (max |coefficient|)
  double final_temperature = 0.0;    ///< 0 = auto (1e-3 * initial)
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
/// Reads anneal in structure-of-arrays groups of 16: each variable's
/// per-replica local fields sit in one contiguous plane, so an accepted
/// flip updates every replica's neighbour fields with SIMD lanes
/// (util/simd.h). Per-read Rng::Fork streams and an exponent-bound
/// Metropolis filter (qubo/metropolis.h) keep each read bit-identical to
/// the scalar reference read (qubo/solvers_reference.h).
///
/// `run` is read the same way by SA, tabu and SQA (sim/sqa.h): groups of
/// reads/restarts run on `run.pool` (serial when null); `run.stop` is
/// checked between sweeps/iterations, and once a stop is requested every
/// read finishes its current unit and returns the state it reached (a
/// truncated but valid solution); `run.trace` records a span per call
/// and per read group, and `run.metrics` receives the solver's counters.
/// They ignore `run.deadline_ms` and `run.build_cache`. For a fixed `rng`
/// state the output is bit-identical at every pool size, with or without
/// sinks, and, while no stop is requested, with or without a token.
std::vector<QuboSolution> SolveQuboSimulatedAnnealing(const Qubo& qubo,
                                                      const SaOptions& options,
                                                      const RunContext& run,
                                                      Rng& rng);

/// Options for the tabu-search QUBO solver (another classical baseline, in
/// the spirit of D-Wave's qbsolv post-processing).
struct TabuOptions {
  int num_restarts = 5;
  int iterations_per_restart = 2000;
};

/// Tabu search: steepest-descent single-bit flips with a recency-based
/// tabu list (tenure floor(sqrt(n)) + 10) and incumbent aspiration. Flip
/// deltas come from persistent local fields, updated over the flipped
/// variable's neighbourhood only.
/// Ties on the best move are broken uniformly with a single RNG draw per
/// iteration (tie counting), so the number of draws never depends on
/// candidate scan order. `run.stop` is checked once per iteration and a
/// stopped restart returns its incumbent so far. Returns one solution per
/// restart, best first.
std::vector<QuboSolution> SolveQuboTabuSearch(const Qubo& qubo,
                                              const TabuOptions& options,
                                              const RunContext& run, Rng& rng);

/// Best solution of a set; aborts on empty input.
const QuboSolution& BestSolution(const std::vector<QuboSolution>& solutions);

}  // namespace qjo

#endif  // QJO_QUBO_SOLVERS_H_
