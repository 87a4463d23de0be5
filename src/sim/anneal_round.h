#ifndef QJO_SIM_ANNEAL_ROUND_H_
#define QJO_SIM_ANNEAL_ROUND_H_

#include <cstdint>
#include <vector>

#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "qubo/solvers.h"
#include "util/random.h"
#include "util/run_context.h"

namespace qjo {

/// The stochastic kernels that the portfolio race's sweep strands and the
/// decomposition loop's window sub-solves run in rounds.
enum class AnnealKind { kSa, kTabu, kSqa };

/// One solver round on `qubo`: `reads` SA reads of `sweeps` sweeps, tabu
/// restarts of `sweeps` iterations, or SQA reads of `sweeps` Monte-Carlo
/// sweeps (SqaOptions defaults otherwise; RunSqa anneals at least 8).
/// Returns one solution per read in read order with its QUBO energy
/// (offset included), so the kinds are comparable. For kSqa, `ising` is
/// QuboToIsing(qubo), built once by callers running many rounds, or null
/// to build it here; the other kinds ignore it. `run` is read as the
/// kernels read it (qubo/solvers.h): reads run on `run.pool`, `run.stop`
/// ends them between sweeps. A round advances `rng` by exactly one
/// Next(), the draw its reads fork from; the portfolio race relies on it
/// to hand a round claimed out of order the stream state a serial loop
/// would have used. Requires a non-empty `qubo` and positive `reads` and
/// `sweeps`.
std::vector<QuboSolution> SolveAnnealRound(AnnealKind kind, const Qubo& qubo,
                                           const IsingModel* ising, int reads,
                                           int sweeps, const RunContext& run,
                                           Rng& rng);

/// The sweeps one such round spends: reads x sweeps, with SQA's floor of
/// 8 sweeps per read.
int64_t AnnealRoundSweeps(AnnealKind kind, int reads, int sweeps);

}  // namespace qjo

#endif  // QJO_SIM_ANNEAL_ROUND_H_
