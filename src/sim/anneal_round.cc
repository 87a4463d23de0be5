#include "sim/anneal_round.h"

#include <algorithm>
#include <optional>

#include "sim/sqa.h"

namespace qjo {

std::vector<QuboSolution> SolveAnnealRound(AnnealKind kind, const Qubo& qubo,
                                           const IsingModel* ising, int reads,
                                           int sweeps, const RunContext& run,
                                           Rng& rng) {
  switch (kind) {
    case AnnealKind::kSa: {
      SaOptions sa;
      sa.num_reads = reads;
      sa.sweeps_per_read = sweeps;
      return SolveQuboSimulatedAnnealing(qubo, sa, run, rng);
    }
    case AnnealKind::kTabu: {
      TabuOptions tabu;
      tabu.num_restarts = reads;
      tabu.iterations_per_restart = sweeps;
      return SolveQuboTabuSearch(qubo, tabu, run, rng);
    }
    case AnnealKind::kSqa:
      break;
  }
  std::optional<IsingModel> built;
  if (ising == nullptr) ising = &built.emplace(QuboToIsing(qubo));
  SqaOptions sqa;
  sqa.num_reads = reads;
  sqa.annealing_time_us = sweeps;
  sqa.sweeps_per_us = 1.0;
  // Only an empty model or a non-positive budget fails, both excluded;
  // value() aborts on a broken precondition.
  const auto samples = RunSqa(*ising, sqa, run, rng);
  std::vector<QuboSolution> solutions;
  for (const SqaSample& sample : samples.value()) {
    // ising.Energy(z) == qubo.Energy(SpinsToBits(z)).
    solutions.push_back(QuboSolution{SpinsToBits(sample.spins), sample.energy});
  }
  return solutions;
}

int64_t AnnealRoundSweeps(AnnealKind kind, int reads, int sweeps) {
  return static_cast<int64_t>(reads) *
         (kind == AnnealKind::kSqa ? std::max(8, sweeps) : sweeps);
}

}  // namespace qjo
