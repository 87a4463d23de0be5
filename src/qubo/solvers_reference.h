#ifndef QJO_QUBO_SOLVERS_REFERENCE_H_
#define QJO_QUBO_SOLVERS_REFERENCE_H_

#include <vector>

#include "qubo/solvers.h"
#include "util/random.h"

namespace qjo {

/// Test and benchmark oracles for the QUBO solvers of qubo/solvers.h: the
/// scalar loops production ran before it settled on one kernel per
/// solver, kept with their arithmetic unchanged. Only test binaries and
/// benchmarks link qjo_qubo_reference, so production code that includes
/// this header fails to link.
///
/// Every reference is serial and reads none of `options.control`: it
/// takes no pool, never stops early and records no trace or metrics. For
/// the same `rng` state it consumes the same draws and returns the same
/// solutions, in the same order, as its production counterpart (see each
/// function for the weight class on which that holds bit for bit).

/// How a reference loop obtains a single-flip energy delta.
enum class ReferenceDelta {
  /// Persistent local fields h_i = linear_i + sum_j w_ij x_j, kept in
  /// sync with the state: O(1) per proposal, O(degree) per accepted flip.
  kLocalFields,
  /// An O(degree) neighbourhood scan per proposal.
  kScan,
};

/// Simulated annealing one read at a time: read r runs on the stream
/// Rng(rng.Next()).Fork(r) under the ResolveSaSchedule schedule. With
/// kLocalFields the reads equal SolveQuboSimulatedAnnealing's bit for bit
/// on any weights; with kScan the deltas are summed in another order, so
/// bit-identity holds on dyadic weights (exactly representable sums).
std::vector<QuboSolution> SolveQuboSimulatedAnnealingReference(
    const Qubo& qubo, const SaOptions& options, Rng& rng,
    ReferenceDelta delta);

/// Tabu search recomputing all n deltas by O(degree) scans every
/// iteration. Equals SolveQuboTabuSearch bit for bit on dyadic weights.
std::vector<QuboSolution> SolveQuboTabuSearchReference(
    const Qubo& qubo, const TabuOptions& options, Rng& rng);

}  // namespace qjo

#endif  // QJO_QUBO_SOLVERS_REFERENCE_H_
