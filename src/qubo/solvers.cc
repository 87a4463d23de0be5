#include "qubo/solvers.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/obs.h"
#include "qubo/metropolis.h"
#include "qubo/qubo_csr.h"
#include "util/check.h"
#include "util/simd.h"

namespace qjo {
namespace {

/// Replicas per SoA group of the SA kernel: 16 doubles per plane
/// row is two AVX-512 (four AVX2) vectors, and a 128-variable problem's
/// field planes stay L1/L2-resident (16 KiB). Groups are carved from the
/// read index space in fixed chunks, so group membership — and therefore
/// every result — is independent of the parallelism level.
constexpr int kReplicaBatch = 16;

/// At or below this many accepted lanes the neighbour update walks the
/// accepted lanes' strided plane entries directly instead of streaming
/// whole vectors; at the cold end of the schedule acceptances are sparse
/// and the full-width update would mostly multiply by 0.
constexpr int kScalarUpdateLanes = 2;

/// True once a caller-supplied stop token has been set. The relaxed load
/// is enough: the token only gates how much work is done, never which
/// memory a read observes (each read owns its state and result slot).
bool StopRequested(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_relaxed);
}

void SortByEnergy(std::vector<QuboSolution>& solutions) {
  std::sort(solutions.begin(), solutions.end(),
            [](const QuboSolution& a, const QuboSolution& b) {
              return a.energy < b.energy;
            });
}

/// One SoA group of the SA kernel: `lanes` replicas (reads
/// first_read .. first_read+lanes-1) anneal in lock step. Each variable i
/// owns one plane of `lanes` consecutive doubles (fields) / bytes
/// (state), so an accepted flip of i updates every replica's neighbour
/// fields with vector lanes. Determinism: lane r replays scalar read
/// first_read+r exactly — same Fork stream, same draw sequence (the
/// Metropolis filter only skips exp calls, never draws), and the
/// dir[r]=0 lanes of the vector update add +-0.0, which can never change
/// a later delta comparison — so results are bit-identical to the scalar
/// local-field reads of SolveQuboSimulatedAnnealingReference
/// (qubo/solvers_reference.h) at any parallelism.
void RunSaBatchedGroup(const QuboCsr& csr, const SaOptions& options,
                       const SaSchedule& schedule, const Rng& base, int n,
                       int64_t first_read, int lanes,
                       std::vector<QuboSolution>& reads) {
  const SolverControl& control = options.control;
  const SimdOps& simd = Simd();
  const int64_t L = lanes;

  std::vector<Rng> rngs;
  rngs.reserve(static_cast<size_t>(lanes));
  for (int r = 0; r < lanes; ++r) {
    rngs.push_back(base.Fork(static_cast<uint64_t>(first_read + r)));
  }

  std::vector<uint8_t> x(static_cast<size_t>(n) * L);
  std::vector<double> fields(static_cast<size_t>(n) * L);
  std::vector<double> energy(static_cast<size_t>(lanes));
  {
    // Per-lane init replays the scalar read's draw order exactly, then
    // scatters state and fields into the planes.
    std::vector<int> lane_x(n);
    for (int r = 0; r < lanes; ++r) {
      for (int i = 0; i < n; ++i) lane_x[i] = rngs[r].Bernoulli(0.5) ? 1 : 0;
      energy[r] = csr.Energy(lane_x);
      const std::vector<double> lane_fields = csr.LocalFields(lane_x);
      for (int i = 0; i < n; ++i) {
        x[static_cast<size_t>(i) * L + r] = static_cast<uint8_t>(lane_x[i]);
        fields[static_cast<size_t>(i) * L + r] = lane_fields[i];
      }
    }
  }

  std::vector<double> dir(static_cast<size_t>(lanes));
  std::vector<int> accepted_lane(static_cast<size_t>(lanes));
  uint64_t accepts = 0;
  double temperature = schedule.t_initial;
  MetropolisBands bands;
  int sweeps_run = 0;
  for (int sweep = 0; sweep < options.sweeps_per_read; ++sweep) {
    if (StopRequested(control.stop)) break;
    ++sweeps_run;
    bands.Prepare(temperature);
    for (int i = 0; i < n; ++i) {
      double* frow = &fields[static_cast<size_t>(i) * L];
      uint8_t* xrow = &x[static_cast<size_t>(i) * L];
      int num_accepted = 0;
      for (int r = 0; r < lanes; ++r) {
        const double delta = xrow[r] ? -frow[r] : frow[r];
        // Same accept rule (and same draw count) as a scalar read: one
        // uniform draw per uphill proposal.
        const bool accept =
            delta <= 0.0 || bands.UnderExp(rngs[r].UniformDouble(), -delta);
        if (accept) {
          xrow[r] ^= 1;
          energy[r] += delta;
          ++accepts;
          accepted_lane[num_accepted++] = r;
        }
      }
      if (num_accepted == 0) continue;
      const int32_t row_begin = csr.offsets[i];
      const int count = csr.offsets[i + 1] - row_begin;
      if (count == 0) continue;
      if (num_accepted <= kScalarUpdateLanes) {
        for (int a = 0; a < num_accepted; ++a) {
          const int r = accepted_lane[a];
          const double d = xrow[r] ? 1.0 : -1.0;  // exact d * w products
          for (int32_t k = row_begin; k < row_begin + count; ++k) {
            fields[static_cast<size_t>(csr.columns[k]) * L + r] +=
                d * csr.weights[k];
          }
        }
      } else {
        // dir is only materialised on the vector path, so rejected lanes
        // cost no stores at the cold end of the schedule.
        std::fill(dir.begin(), dir.begin() + lanes, 0.0);
        for (int a = 0; a < num_accepted; ++a) {
          const int r = accepted_lane[a];
          dir[static_cast<size_t>(r)] = xrow[r] ? 1.0 : -1.0;
        }
        simd.sa_row_update(fields.data(), csr.columns.data() + row_begin,
                           csr.weights.data() + row_begin, count, L,
                           dir.data());
      }
    }
    temperature *= schedule.cooling;
  }

  for (int r = 0; r < lanes; ++r) {
    std::vector<int> out(n);
    for (int i = 0; i < n; ++i) {
      out[i] = x[static_cast<size_t>(i) * L + r];
    }
    reads[static_cast<size_t>(first_read) + r] =
        QuboSolution{std::move(out), energy[r]};
  }
  if (control.metrics != nullptr) {
    // Totals match what `lanes` scalar reads would have recorded.
    control.metrics->Count("sa.reads", static_cast<uint64_t>(lanes));
    control.metrics->Count("sa.sweeps", static_cast<uint64_t>(lanes) *
                                            static_cast<uint64_t>(sweeps_run));
    control.metrics->Count("sa.proposals",
                           static_cast<uint64_t>(lanes) *
                               static_cast<uint64_t>(sweeps_run) *
                               static_cast<uint64_t>(n));
    control.metrics->Count("sa.accepts", accepts);
  }
}

}  // namespace

StatusOr<QuboSolution> SolveQuboBruteForce(const Qubo& qubo,
                                           int max_variables) {
  const int n = qubo.num_variables();
  if (n == 0) return Status::InvalidArgument("empty QUBO");
  // The Gray-code walk enumerates 2^n states in a uint64_t; n == 64 would
  // shift by the full word width (undefined behaviour), so the cap is
  // clamped to 63 regardless of what the caller asks for.
  const int effective_max = std::min(max_variables, 63);
  if (n > effective_max) {
    return Status::ResourceExhausted("too many variables for brute force");
  }
  const QuboCsr& csr = qubo.Csr();
  std::vector<int> x(n, 0);
  double energy = csr.offset;
  QuboSolution best{x, energy};
  // Gray-code walk: state k differs from k-1 in bit ctz(k). Every step
  // flips one bit, so the O(degree) reference scan is already optimal
  // here — persistent fields would pay the same O(degree) per step.
  const uint64_t total = uint64_t{1} << n;
  for (uint64_t k = 1; k < total; ++k) {
    const int bit = static_cast<int>(__builtin_ctzll(k));
    energy += csr.FlipDelta(x, bit);
    x[bit] ^= 1;
    if (energy < best.energy) {
      best.assignment = x;
      best.energy = energy;
    }
  }
  return best;
}

SaSchedule ResolveSaSchedule(const Qubo& qubo, const SaOptions& options) {
  QJO_CHECK_GT(options.sweeps_per_read, 0);
  SaSchedule schedule;
  schedule.t_initial = options.initial_temperature > 0.0
                           ? options.initial_temperature
                           : std::max(qubo.MaxAbsCoefficient(), 1.0);
  schedule.t_final = options.final_temperature > 0.0
                         ? options.final_temperature
                         : 1e-3 * schedule.t_initial;
  // Geometric schedule over sweeps 0..s-1 ending exactly at t_final:
  // cooling^(s-1) = t_final / t_initial. A single sweep runs at t_initial
  // (there is no interval to cool over).
  schedule.cooling =
      options.sweeps_per_read > 1
          ? std::pow(schedule.t_final / schedule.t_initial,
                     1.0 / static_cast<double>(options.sweeps_per_read - 1))
          : 1.0;
  return schedule;
}

std::vector<QuboSolution> SolveQuboSimulatedAnnealing(const Qubo& qubo,
                                                      const SaOptions& options,
                                                      Rng& rng) {
  QJO_CHECK_GT(qubo.num_variables(), 0);
  QJO_CHECK_GT(options.num_reads, 0);
  QJO_CHECK_GT(options.sweeps_per_read, 0);
  // Materialise the CSR on the calling thread; the parallel reads below
  // only ever read it.
  const QuboCsr& csr = qubo.Csr();
  const int n = qubo.num_variables();
  const SaSchedule schedule = ResolveSaSchedule(qubo, options);
  // One draw from the shared generator keeps successive solver calls on
  // the same Rng independent; every read then forks stream `read` off the
  // resulting snapshot, so the set of reads is bit-identical for every
  // parallelism level and thread interleaving.
  const SolverControl& control = options.control;
  StageSpan solve_span(control.trace, "sa.solve");
  const Rng base(rng.Next());
  std::vector<QuboSolution> reads(options.num_reads);
  // SoA replica groups: each task anneals up to kReplicaBatch reads in
  // lock step. Group boundaries depend only on the read index, so the
  // result set is bit-identical at any parallelism.
  const int64_t groups =
      (options.num_reads + kReplicaBatch - 1) / kReplicaBatch;
  const auto run_group = [&](int64_t group) {
    StageSpan group_span(control.trace, "sa.read_batch");
    const int64_t first_read = group * kReplicaBatch;
    const int lanes = static_cast<int>(std::min<int64_t>(
        kReplicaBatch, options.num_reads - first_read));
    RunSaBatchedGroup(csr, options, schedule, base, n, first_read, lanes,
                      reads);
  };
  ParallelFor(control.pool, 0, groups, run_group);
  SortByEnergy(reads);
  return reads;
}

std::vector<QuboSolution> SolveQuboTabuSearch(const Qubo& qubo,
                                              const TabuOptions& options,
                                              Rng& rng) {
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

  const SolverControl& control = options.control;
  StageSpan solve_span(control.trace, "tabu.solve");
  const Rng base(rng.Next());
  std::vector<QuboSolution> restarts(options.num_restarts);
  const auto run_restart = [&](int64_t restart) {
    StageSpan restart_span(control.trace, "tabu.restart");
    Rng restart_rng = base.Fork(static_cast<uint64_t>(restart));
    std::vector<int> x(n);
    for (int i = 0; i < n; ++i) x[i] = restart_rng.Bernoulli(0.5) ? 1 : 0;
    double energy = csr.Energy(x);
    QuboSolution incumbent{x, energy};
    int iterations_run = 0;
    uint64_t moves = 0;
    uint64_t evictions = 0;
    std::vector<int> tabu_until(n, -1);
    // The delta cache is carried across iterations as persistent local
    // fields, and only the flipped variable's neighbourhood is touched
    // per move.
    std::vector<double> fields = csr.LocalFields(x);
    std::vector<double> deltas(n);
    for (int it = 0; it < options.iterations_per_restart; ++it) {
      if (StopRequested(control.stop)) break;
      ++iterations_run;
      double best_delta = kInfinity;
      int tie_count = 0;
      for (int i = 0; i < n; ++i) {
        deltas[i] = x[i] ? -fields[i] : fields[i];
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
      // Uniform tie-break with at most one draw per iteration: the draw
      // count depends only on the multiset of deltas, never on the order
      // candidates were scanned in — a precondition for reproducible
      // forked-RNG runs.
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
      csr.ApplyFlip(best_flip, x, fields);
      energy += best_delta;
      ++moves;
      // Re-tagging a variable whose previous tenure is still active
      // evicts that tenure (the aspiration path lands here too).
      if (tabu_until[best_flip] > it) ++evictions;
      tabu_until[best_flip] = it + tenure;
      if (energy < incumbent.energy) incumbent = QuboSolution{x, energy};
    }
    if (control.metrics != nullptr) {
      control.metrics->Count("tabu.restarts");
      control.metrics->Count("tabu.iterations",
                             static_cast<uint64_t>(iterations_run));
      control.metrics->Count("tabu.moves", moves);
      control.metrics->Count("tabu.evictions", evictions);
    }
    restarts[restart] = std::move(incumbent);
  };
  ParallelFor(control.pool, 0, options.num_restarts, run_restart);
  SortByEnergy(restarts);
  return restarts;
}

const QuboSolution& BestSolution(const std::vector<QuboSolution>& solutions) {
  QJO_CHECK(!solutions.empty());
  const QuboSolution* best = &solutions[0];
  for (const QuboSolution& s : solutions) {
    if (s.energy < best->energy) best = &s;
  }
  return *best;
}

}  // namespace qjo
