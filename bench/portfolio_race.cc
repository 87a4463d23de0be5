// Portfolio race benchmark: the deadline-aware orchestrator against each
// solver running solo on a dense 128-variable QUBO suite. Baseline: every
// solver runs solo with the full sweep budget; the "best single solver" is
// the one with the lowest energy, ties (within 1e-9 relative) broken
// toward the *fastest* — the strongest defensible baseline, since an
// oracle would pick exactly that run. The portfolio then races with that
// baseline's wall time as its deadline, not knowing which strand is best.
// Headline metrics: the portfolio's time-to-best-incumbent (the moment
// the winning strand last improved) is within the best solo time, and the
// incumbent's energy matches the best solo energy.
//
// Writes BENCH_portfolio.json (override with QJO_BENCH_PORTFOLIO_JSON).
// QJO_PORTFOLIO_BENCH_FAST=1 shrinks the suite to one instance with a
// small budget for the ctest smoke entry; QJO_BENCH_PARALLELISM overrides
// the thread count.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/portfolio.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "qubo/solvers.h"
#include "sim/anneal_round.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

Qubo MakeDenseQubo(int n, uint64_t seed) {
  Rng rng(seed);
  Qubo q(n);
  for (int i = 0; i < n; ++i) {
    q.AddLinear(i, rng.UniformDouble(-2, 2));
    for (int j = i + 1; j < n; ++j) {
      q.AddQuadratic(i, j, rng.UniformDouble(-2, 2));
    }
  }
  return q;
}

using bench::Metric;
using bench::WriteJson;

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SoloResult {
  double seconds = 0.0;
  double best_energy = 0.0;
};

int RunSuite() {
  const bool fast = std::getenv("QJO_PORTFOLIO_BENCH_FAST") != nullptr;
  int parallelism = static_cast<int>(std::thread::hardware_concurrency());
  if (const char* p = std::getenv("QJO_BENCH_PARALLELISM")) {
    parallelism = std::atoi(p);
  }
  parallelism = std::max(parallelism, 2);

  const int n = 128;
  const int instances = fast ? 1 : 3;
  const int64_t sweep_budget = fast ? 512 : 4096;
  const int reads_per_round = 4;
  const int sweeps_per_round = 64;
  // Solo runs spend the identical budget in one solver call.
  const int solo_reads =
      static_cast<int>(sweep_budget / sweeps_per_round);

  ThreadPool pool(parallelism);
  std::vector<Metric> metrics;
  metrics.push_back(
      {"simd_isa", static_cast<double>(static_cast<int>(Simd().isa))});
  metrics.push_back({"n", static_cast<double>(n)});
  metrics.push_back({"instances", static_cast<double>(instances)});
  metrics.push_back({"sweep_budget", static_cast<double>(sweep_budget)});
  metrics.push_back({"parallelism", static_cast<double>(parallelism)});
  metrics.push_back({"fast_mode", fast ? 1.0 : 0.0});

  bool all_within_best_solo = true;
  for (int inst = 0; inst < instances; ++inst) {
    const std::string prefix =
        std::string("i").append(std::to_string(inst)).append("_");
    const Qubo qubo = MakeDenseQubo(n, 71 + inst);
    qubo.Csr();

    // --- Solo baselines, each spending the full budget. ---
    RunContext solo_run;
    solo_run.pool = &pool;
    bench::ObsSession::Get().Apply(solo_run);
    // The race's sa, tabu and sqa rounds, each as one call of the full
    // budget; the SQA Ising model is built outside the timed span, as
    // the SQA strand builds it once before its rounds.
    const IsingModel ising = QuboToIsing(qubo);
    const auto solo = [&](AnnealKind kind, uint64_t seed) {
      Rng rng(seed);
      const auto t0 = std::chrono::steady_clock::now();
      const auto reads = SolveAnnealRound(kind, qubo, &ising, solo_reads,
                                          sweeps_per_round, solo_run, rng);
      const double seconds = Seconds(t0);
      return SoloResult{seconds, BestSolution(reads).energy};
    };
    const SoloResult solo_sa = solo(AnnealKind::kSa, 301 + inst);
    const SoloResult solo_tabu = solo(AnnealKind::kTabu, 401 + inst);
    const SoloResult solo_sqa = solo(AnnealKind::kSqa, 501 + inst);

    // The solo baseline to beat: lowest energy; among quality ties
    // (dense random QUBOs saturate easily) the fastest run — what an
    // oracle that knew the best solver would have paid.
    const SoloResult* best_solo = &solo_sa;
    for (const SoloResult* candidate : {&solo_tabu, &solo_sqa}) {
      const double tol =
          1e-9 * std::max(1.0, std::abs(best_solo->best_energy));
      if (candidate->best_energy < best_solo->best_energy - tol ||
          (std::abs(candidate->best_energy - best_solo->best_energy) <= tol &&
           candidate->seconds < best_solo->seconds)) {
        best_solo = candidate;
      }
    }

    // --- The portfolio, blind to which strand is best, racing within
    // exactly the oracle baseline's wall-clock budget. ---
    PortfolioOptions options;
    options.sweep_budget = 0;  // the deadline is the only bound
    options.reads_per_round = reads_per_round;
    options.sweeps_per_round = sweeps_per_round;
    RunContext run;
    run.deadline_ms = best_solo->seconds * 1e3;
    run.pool = &pool;
    bench::ObsSession::Get().Apply(run);
    Rng rng(601 + inst);
    // A bare QUBO race: no domain scorer (score = energy) and no
    // query-level decomp strand.
    const auto race = RaceQuboPortfolio(qubo, options, RaceHooks{}, run, rng);
    if (!race.ok()) {
      std::cerr << "portfolio race failed: " << race.status().ToString()
                << "\n";
      return 1;
    }
    if (race->winner < 0) {
      std::cerr << "portfolio race produced no incumbent\n";
      return 1;
    }
    const StrandOutcome& winner = race->strands[race->winner];
    const double tti_seconds = winner.time_to_incumbent_ms / 1e3;
    const bool within = tti_seconds <= best_solo->seconds;
    all_within_best_solo = all_within_best_solo && within;
    const double energy_gap = race->best_energy - best_solo->best_energy;

    metrics.push_back({prefix + "solo_sa_seconds", solo_sa.seconds});
    metrics.push_back({prefix + "solo_sa_best_energy", solo_sa.best_energy});
    metrics.push_back({prefix + "solo_tabu_seconds", solo_tabu.seconds});
    metrics.push_back(
        {prefix + "solo_tabu_best_energy", solo_tabu.best_energy});
    metrics.push_back({prefix + "solo_sqa_seconds", solo_sqa.seconds});
    metrics.push_back({prefix + "solo_sqa_best_energy", solo_sqa.best_energy});
    metrics.push_back({prefix + "best_solo_seconds", best_solo->seconds});
    metrics.push_back(
        {prefix + "best_solo_best_energy", best_solo->best_energy});
    metrics.push_back({prefix + "portfolio_elapsed_seconds",
                       race->elapsed_ms / 1e3});
    metrics.push_back(
        {prefix + "portfolio_winner_strand",
         static_cast<double>(race->winner)});
    metrics.push_back({prefix + "portfolio_best_energy", race->best_energy});
    metrics.push_back(
        {prefix + "portfolio_time_to_incumbent_seconds", tti_seconds});
    metrics.push_back(
        {prefix + "portfolio_tti_le_best_solo", within ? 1.0 : 0.0});
    metrics.push_back({prefix + "portfolio_energy_gap", energy_gap});

    std::cout << "instance " << inst << ": winner "
              << winner.name << ", incumbent at "
              << tti_seconds << " s vs best solo " << best_solo->seconds
              << " s (" << (within ? "within" : "SLOWER")
              << "), energy gap " << energy_gap << "\n";
  }
  metrics.push_back(
      {"all_tti_le_best_solo", all_within_best_solo ? 1.0 : 0.0});

  const char* json_path = std::getenv("QJO_BENCH_PORTFOLIO_JSON");
  const std::string path =
      json_path != nullptr ? json_path : "BENCH_portfolio.json";
  WriteJson(path, metrics);
  return 0;
}

}  // namespace
}  // namespace qjo

int main() { return qjo::RunSuite(); }
