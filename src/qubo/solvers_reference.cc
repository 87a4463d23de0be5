#include "qubo/solvers_reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "qubo/qubo_csr.h"
#include "util/check.h"

namespace qjo {
namespace {

void SortByEnergy(std::vector<QuboSolution>& solutions) {
  std::sort(solutions.begin(), solutions.end(),
            [](const QuboSolution& a, const QuboSolution& b) {
              return a.energy < b.energy;
            });
}

}  // namespace

std::vector<QuboSolution> SolveQuboSimulatedAnnealingReference(
    const Qubo& qubo, const SaOptions& options, Rng& rng,
    ReferenceDelta delta_mode) {
  QJO_CHECK_GT(qubo.num_variables(), 0);
  QJO_CHECK_GT(options.num_reads, 0);
  QJO_CHECK_GT(options.sweeps_per_read, 0);
  const QuboCsr& csr = qubo.Csr();
  const int n = qubo.num_variables();
  const SaSchedule schedule = ResolveSaSchedule(qubo, options);
  const bool local_fields = delta_mode == ReferenceDelta::kLocalFields;

  const Rng base(rng.Next());
  std::vector<QuboSolution> reads(options.num_reads);
  for (int read = 0; read < options.num_reads; ++read) {
    Rng read_rng = base.Fork(static_cast<uint64_t>(read));
    std::vector<int> x(n);
    for (int i = 0; i < n; ++i) x[i] = read_rng.Bernoulli(0.5) ? 1 : 0;
    double energy = csr.Energy(x);
    double temperature = schedule.t_initial;
    if (local_fields) {
      // Persistent local fields: delta_i = +-fields[i] per proposal,
      // neighbour updates only on accepted flips.
      std::vector<double> fields = csr.LocalFields(x);
      for (int sweep = 0; sweep < options.sweeps_per_read; ++sweep) {
        for (int i = 0; i < n; ++i) {
          const double delta = x[i] ? -fields[i] : fields[i];
          if (delta <= 0.0 ||
              read_rng.UniformDouble() < std::exp(-delta / temperature)) {
            csr.ApplyFlip(i, x, fields);
            energy += delta;
          }
        }
        temperature *= schedule.cooling;
      }
    } else {
      for (int sweep = 0; sweep < options.sweeps_per_read; ++sweep) {
        for (int i = 0; i < n; ++i) {
          const double delta = csr.FlipDelta(x, i);
          if (delta <= 0.0 ||
              read_rng.UniformDouble() < std::exp(-delta / temperature)) {
            x[i] ^= 1;
            energy += delta;
          }
        }
        temperature *= schedule.cooling;
      }
    }
    reads[read] = QuboSolution{std::move(x), energy};
  }
  SortByEnergy(reads);
  return reads;
}

std::vector<QuboSolution> SolveQuboTabuSearchReference(
    const Qubo& qubo, const TabuOptions& options, Rng& rng) {
  QJO_CHECK_GT(qubo.num_variables(), 0);
  QJO_CHECK_GT(options.num_restarts, 0);
  QJO_CHECK_GT(options.iterations_per_restart, 0);
  const int n = qubo.num_variables();
  const int tenure =
      options.tenure > 0
          ? options.tenure
          : static_cast<int>(std::sqrt(static_cast<double>(n))) + 10;
  const QuboCsr& csr = qubo.Csr();
  constexpr double kInfinity = std::numeric_limits<double>::infinity();

  const Rng base(rng.Next());
  std::vector<QuboSolution> restarts(options.num_restarts);
  for (int restart = 0; restart < options.num_restarts; ++restart) {
    Rng restart_rng = base.Fork(static_cast<uint64_t>(restart));
    std::vector<int> x(n);
    for (int i = 0; i < n; ++i) x[i] = restart_rng.Bernoulli(0.5) ? 1 : 0;
    double energy = csr.Energy(x);
    QuboSolution incumbent{x, energy};
    std::vector<int> tabu_until(n, -1);
    // All n deltas are recomputed by O(degree) scans every iteration.
    std::vector<double> deltas(n);
    for (int it = 0; it < options.iterations_per_restart; ++it) {
      double best_delta = kInfinity;
      int tie_count = 0;
      for (int i = 0; i < n; ++i) {
        deltas[i] = csr.FlipDelta(x, i);
        const bool tabu = tabu_until[i] > it;
        // Aspiration: a tabu move is allowed if it beats the incumbent.
        if (tabu && energy + deltas[i] >= incumbent.energy - 1e-12) {
          deltas[i] = kInfinity;  // mark ineligible for the pick scan
          continue;
        }
        if (deltas[i] < best_delta) {
          best_delta = deltas[i];
          tie_count = 1;
        } else if (deltas[i] == best_delta) {
          ++tie_count;
        }
      }
      if (tie_count == 0) break;  // everything tabu and non-aspiring
      int pick = tie_count > 1
                     ? static_cast<int>(restart_rng.UniformInt(
                           static_cast<uint64_t>(tie_count)))
                     : 0;
      int best_flip = -1;
      for (int i = 0; i < n; ++i) {
        if (deltas[i] == best_delta && pick-- == 0) {
          best_flip = i;
          break;
        }
      }
      QJO_CHECK_GE(best_flip, 0);
      x[best_flip] ^= 1;
      energy += best_delta;
      tabu_until[best_flip] = it + tenure;
      if (energy < incumbent.energy) incumbent = QuboSolution{x, energy};
    }
    restarts[restart] = std::move(incumbent);
  }
  SortByEnergy(restarts);
  return restarts;
}

}  // namespace qjo
