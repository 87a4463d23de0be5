#include "core/portfolio.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stop_token>
#include <utility>

#include "core/postprocess.h"
#include "jo/classical.h"
#include "qubo/deadline_monitor.h"
#include "qubo/ising.h"
#include "sim/anneal_round.h"
#include "sim/qaoa_analytic.h"
#include "sim/qaoa_simulator.h"
#include "util/strings.h"

namespace qjo {

namespace {

using Clock = std::chrono::steady_clock;

/// The QAOA strand's fixed budget: it joins races of at most
/// kMaxQaoaVariables variables (2^n amplitudes plus the spectrum), searches
/// angles for kQaoaIterations iterations and draws kQaoaShots samples.
constexpr int kMaxQaoaVariables = 20;
constexpr int kQaoaIterations = 10;
constexpr int kQaoaShots = 128;

constexpr double kNoBound = -std::numeric_limits<double>::infinity();

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The strands, in index order. A strand's index is its RNG stream id and
/// its winner tie-break rank, so this order is part of the
/// reproducibility contract: every sweep-budget answer depends on it.
enum Strand : int { kExact, kSa, kTabu, kSqa, kQaoa, kDecomp };
constexpr int kNumStrands = kDecomp + 1;

/// Launch order of the serial fan-out: decomp first. With threads to spare
/// the order is irrelevant; in a *serial* deadline race it is what keeps
/// the one strand that guarantees a valid large-query plan from being
/// starved by the sweep loops ahead of it. Winner selection tie-breaks by
/// strand index, so this never affects sweep-budget results.
constexpr Strand kRunOrder[kNumStrands] = {kDecomp, kExact, kSa,
                                           kTabu,   kSqa,   kQaoa};

/// Whether `strand` joins this race; ineligible strands report zero rounds
/// and never win.
bool Eligible(Strand strand, const Qubo& qubo, const PortfolioOptions& options,
              const RaceHooks& hooks) {
  switch (strand) {
    case kExact:
      return options.enable_exact &&
             qubo.num_variables() <= std::min(options.max_exact_variables, 63);
    case kSa:
      return options.enable_sa;
    case kTabu:
      return options.enable_tabu;
    case kSqa:
      return options.enable_sqa;
    case kQaoa:
      return options.enable_qaoa && qubo.num_variables() <= kMaxQaoaVariables;
    case kDecomp:
      // Query-level strand: only runnable through the hook the JO layer
      // installs (the race itself has no Query to decompose).
      return options.enable_decomp && hooks.decomp_run != nullptr;
  }
  return false;
}

/// Mutable race state of one strand: the published outcome plus the
/// feasible incumbent's assignment. Owned exclusively by the strand's
/// body until the ParallelFor join barrier.
struct StrandState {
  StrandOutcome outcome;
  std::vector<int> best_feasible_assignment;
};

/// Folds one sample into the strand's incumbents. `energy` must be the
/// sample's QUBO energy (offset included) so strands stay comparable.
void AbsorbSample(const RaceHooks& hooks, Clock::time_point start,
                  const std::vector<int>& assignment, double energy,
                  StrandState& state) {
  state.outcome.best_energy = std::min(state.outcome.best_energy, energy);
  double score = energy;
  if (hooks.score) {
    score = hooks.score(assignment);
    if (std::isnan(score)) return;  // domain-infeasible sample
  }
  if (!state.outcome.feasible || score < state.outcome.best_score) {
    // The timestamp tracks *material* improvements only: float-level
    // wiggles (common when strands saturate to the same optimum) would
    // otherwise push time-to-incumbent into the wind-down after a
    // deadline expires.
    const bool material =
        !state.outcome.feasible ||
        score < state.outcome.best_score -
                    1e-9 * std::max(1.0, std::abs(score));
    state.outcome.feasible = true;
    state.outcome.best_score = score;
    state.best_feasible_assignment = assignment;
    if (material) {
      state.outcome.time_to_incumbent_ms = MsSince(start);
      // Round-granular (sweeps completed before the current round), and
      // therefore deterministic in sweep-budget mode — unlike the
      // wall-clock twin above.
      state.outcome.sweeps_to_incumbent = state.outcome.sweeps_completed;
    }
  }
}

/// Everything a strand body sees during a race. Bodies run concurrently;
/// each touches only its own `state`, and checks `run.stop` between units
/// of work.
struct StrandEnv {
  const Qubo& qubo;
  const PortfolioOptions& options;
  const RaceHooks& hooks;
  /// The race's context: the caller's pool and sinks and the race's own
  /// stop token, which the race deadline stops.
  const RunContext& run;
  Clock::time_point start;
  /// Requests the race-wide early exit: the exact strand's proven optimum,
  /// or any strand's feasible incumbent reaching `score_bound`. Null
  /// outside deadline mode: cancelling sweep-budget races on a wall-clock
  /// event would break bit-reproducibility.
  std::stop_source* early_exit;
  /// `hooks.score_bound` in deadline mode, -infinity (no bound) otherwise.
  double score_bound;
  StrandState& state;

  void Absorb(const std::vector<int>& assignment, double energy) const {
    AbsorbSample(hooks, start, assignment, energy, state);
    StopAtBound();
  }

  /// The strand holds a proven optimum: flag it and end a deadline race.
  void HitLowerBound() const {
    state.outcome.hit_lower_bound = true;
    if (early_exit != nullptr) early_exit->request_stop();
  }

  /// Ends the race once the feasible incumbent reaches the score bound.
  void StopAtBound() const {
    const StrandOutcome& outcome = state.outcome;
    if (outcome.feasible && !outcome.hit_lower_bound &&
        ReachesCost(outcome.best_score, score_bound)) {
      HitLowerBound();
    }
  }
};

// --- Strand bodies. Each keeps rounds_completed/sweeps_completed
// current; incumbents go through env.Absorb. ---

void RunExactStrand(const StrandEnv& env, Rng& rng) {
  (void)rng;  // deterministic enumeration; the stream stays untouched
  // A stopped walk fails: it publishes no incumbent and proves no bound.
  auto best =
      SolveQuboBruteForce(env.qubo, env.options.max_exact_variables, env.run);
  if (!best.ok()) return;
  env.Absorb(best->assignment, best->energy);
  StrandOutcome& outcome = env.state.outcome;
  outcome.rounds_completed = 1;
  outcome.sweeps_completed = int64_t{1} << env.qubo.num_variables();
  // The exact minimum *is* a proven lower bound: nothing can beat it on
  // energy, so in deadline mode the race ends here.
  env.HitLowerBound();
}

/// The sa, tabu and sqa strands: rounds of the race-wide round size on
/// one kernel until the sweep budget or the stop token ends them. The SQA
/// strand builds its Ising model once for all rounds.
template <AnnealKind kKind>
void RunAnnealStrand(const StrandEnv& env, Rng& rng) {
  const PortfolioOptions& options = env.options;
  StrandOutcome& outcome = env.state.outcome;
  std::optional<IsingModel> ising;
  if constexpr (kKind == AnnealKind::kSqa) ising = QuboToIsing(env.qubo);
  const int64_t round_sweeps = AnnealRoundSweeps(
      kKind, options.reads_per_round, options.sweeps_per_round);
  while (!env.run.stop.stop_requested() &&
         (options.sweep_budget <= 0 ||
          outcome.sweeps_completed < options.sweep_budget)) {
    for (const QuboSolution& read : SolveAnnealRound(
             kKind, env.qubo, ising ? &*ising : nullptr,
             options.reads_per_round, options.sweeps_per_round, env.run,
             rng)) {
      env.Absorb(read.assignment, read.energy);
    }
    ++outcome.rounds_completed;
    outcome.sweeps_completed += round_sweeps;
  }
}

void RunQaoaStrand(const StrandEnv& env, Rng& rng) {
  if (env.run.stop.stop_requested()) return;
  const Qubo& qubo = env.qubo;
  const int n = qubo.num_variables();
  const IsingModel ising = QuboToIsing(qubo);
  auto sim = QaoaSimulator::Create(ising);
  if (!sim.ok()) return;
  sim->set_pool(env.run.pool);
  const QaoaAngles angles =
      OptimizeQaoaAngles(ising, kQaoaIterations, rng);
  QaoaParameters params;
  params.gammas = {angles.gamma};
  params.betas = {angles.beta};
  sim->Run(params);
  const std::vector<uint64_t> raw =
      sim->Sample(kQaoaShots, /*fidelity=*/1.0, rng);
  std::vector<int> bits(n);
  for (uint64_t basis : raw) {
    for (int i = 0; i < n; ++i) {
      bits[i] = static_cast<int>((basis >> i) & 1);
    }
    env.Absorb(bits, qubo.Energy(bits));
  }
  env.state.outcome.rounds_completed = 1;
  env.state.outcome.sweeps_completed = kQaoaShots;
}

void RunDecompStrand(const StrandEnv& env, Rng& rng) {
  if (env.run.stop.stop_requested()) return;
  // The loop returns at the start of the first round whose incumbent
  // reaches the bound, and StopAtBound below then ends the race.
  auto decomp = env.hooks.decomp_run(env.run, env.score_bound, rng);
  if (!decomp.ok()) return;
  // The strand's incumbent is the join order itself; its C_out cost is
  // directly comparable with the other strands' decoded scores. The
  // QUBO energy stays +inf (there is no monolithic sample), so winner
  // selection rests purely on the domain score.
  StrandOutcome& outcome = env.state.outcome;
  outcome.feasible = true;
  outcome.best_score = decomp->cost;
  outcome.time_to_incumbent_ms = MsSince(env.start);
  outcome.rounds_completed = decomp->rounds;
  outcome.sweeps_completed = decomp->windows_solved;
  outcome.sweeps_to_incumbent = outcome.sweeps_completed;
  env.state.best_feasible_assignment = decomp->order.order();
  env.StopAtBound();
}

/// The strand table, indexed by Strand. The name is also the metrics
/// prefix ("portfolio.<name>.*"), the trace span suffix ("strand.<name>")
/// and StrandOutcome::name.
constexpr struct {
  const char* name;
  void (*run)(const StrandEnv& env, Rng& rng);
} kStrands[kNumStrands] = {
    {"exact", RunExactStrand},
    {"sa", RunAnnealStrand<AnnealKind::kSa>},
    {"tabu", RunAnnealStrand<AnnealKind::kTabu>},
    {"sqa", RunAnnealStrand<AnnealKind::kSqa>},
    {"qaoa", RunQaoaStrand},
    {"decomp", RunDecompStrand},
};

}  // namespace

Status ValidatePortfolioOptions(const PortfolioOptions& options,
                                const RunContext& run) {
  QJO_RETURN_IF_ERROR(ValidateRunContext(run));
  // The one budget error path: a race must be bounded by wall clock or
  // by sweeps. (deadline_ms == 0 is the documented "skip the race"
  // fast-path, not an unbounded run.)
  if (run.deadline_ms < 0.0 && options.sweep_budget <= 0) {
    return Status::InvalidArgument(
        "unbounded portfolio: need a deadline or a sweep budget");
  }
  if (options.reads_per_round <= 0 || options.sweeps_per_round <= 0) {
    return Status::InvalidArgument("portfolio round sizes must be positive");
  }
  if (options.enable_decomp && options.decomp.max_rounds <= 0) {
    return Status::InvalidArgument("decomp round budget must be positive");
  }
  return Status::Ok();
}

StatusOr<QuboRaceResult> RaceQuboPortfolio(const Qubo& qubo,
                                           const PortfolioOptions& options,
                                           const RaceHooks& hooks,
                                           const RunContext& run, Rng& rng) {
  const int n = qubo.num_variables();
  if (n == 0) return Status::InvalidArgument("empty QUBO");
  QJO_RETURN_IF_ERROR(ValidatePortfolioOptions(options, run));

  // Materialise the shared CSR before any fan-out (see Qubo::Csr()).
  qubo.Csr();

  StageSpan race_span(run.trace, "portfolio.race");
  QuboRaceResult result;
  const Clock::time_point start = Clock::now();

  std::vector<StrandState> states(kNumStrands);
  for (int s = 0; s < kNumStrands; ++s) {
    StrandOutcome& outcome = states[s].outcome;
    outcome.name = kStrands[s].name;
    outcome.index = s;
    outcome.eligible = Eligible(Strand(s), qubo, options, hooks);
  }

  if (run.deadline_ms == 0.0) {
    // Zero budget: answer immediately with an empty race. The JO layer
    // degrades to the classical plan.
    result.deadline_expired = true;
    for (StrandState& state : states) {
      result.strands.push_back(state.outcome);
    }
    return result;
  }

  // The race's own stop source; every strand runs under its token. Three
  // things stop it: the caller's token (relayed in any budget mode — a
  // caller's stop is an unconditional cancel), the race deadline, armed
  // on the process-wide DeadlineMonitor from race entry, and the early
  // exit of a strand that holds a proven optimum: the exact strand's
  // QUBO minimum, or any strand's feasible incumbent reaching
  // `hooks.score_bound` (the DP optimum, in a join-order race). The early
  // exit cancels the race in deadline mode only: cancellation truncates
  // other strands at a wall-clock-dependent point, which would break the
  // bit-reproducibility contract of pure sweep-budget runs.
  std::stop_source stop;
  const std::stop_callback relay(run.stop, [&stop] { stop.request_stop(); });
  const bool deadline_mode = run.deadline_ms > 0.0;
  const uint64_t deadline_id =
      deadline_mode ? DeadlineMonitor::Shared().Arm(
                          stop, DeadlineAfterMs(start, run.deadline_ms))
                    : 0;

  // The context every strand runs under: the caller's, with the race's
  // token in place of the caller's. No strand reads its deadline: the
  // race deadline reaches them only as a stop of that token.
  RunContext strand_run = run;
  strand_run.stop = stop.get_token();

  const Rng base(rng.Next());

  const auto run_strand = [&](Strand s) {
    StrandState& state = states[s];
    StrandOutcome& outcome = state.outcome;
    if (!outcome.eligible) return;
    const std::string span_name = std::string("strand.") + kStrands[s].name;
    StageSpan strand_span(run.trace, span_name.c_str());
    const Clock::time_point strand_start = Clock::now();
    Rng strand_rng = base.Fork(s);
    const StrandEnv env{qubo,
                        options,
                        hooks,
                        strand_run,
                        start,
                        deadline_mode ? &stop : nullptr,
                        deadline_mode ? hooks.score_bound : kNoBound,
                        state};
    kStrands[s].run(env, strand_rng);
    outcome.total_ms = MsSince(strand_start);
    if (run.metrics != nullptr) {
      // Mirrors StrandOutcome so exported metrics can be checked against
      // PortfolioReport; counter sums are deterministic in sweep-budget
      // mode at every parallelism level.
      const std::string prefix = std::string("portfolio.") + kStrands[s].name;
      run.metrics->Count(
          prefix + ".rounds", static_cast<uint64_t>(outcome.rounds_completed));
      run.metrics->Count(
          prefix + ".sweeps", static_cast<uint64_t>(outcome.sweeps_completed));
      run.metrics->Observe("portfolio.strand_ms", outcome.total_ms);
    }
  };

  ParallelFor(run.pool, 0, kNumStrands,
              [&](int64_t i) { run_strand(kRunOrder[i]); });

  // An entry the monitor already took off its list is a deadline that
  // passed before the race finished.
  result.deadline_expired =
      deadline_mode && !DeadlineMonitor::Shared().Disarm(deadline_id);

  // Winner: best (lowest) domain score among feasible strands; strand
  // order breaks ties, so the pick is deterministic.
  for (size_t s = 0; s < states.size(); ++s) {
    const StrandOutcome& outcome = states[s].outcome;
    if (!outcome.feasible) continue;
    if (result.winner < 0 || outcome.best_score < result.best_score) {
      result.winner = static_cast<int>(s);
      result.best_score = outcome.best_score;
      result.best_energy = outcome.best_energy;
      result.best_assignment = states[s].best_feasible_assignment;
    }
  }
  if (result.winner >= 0) {
    states[result.winner].outcome.won = true;
    result.reached_score_bound =
        deadline_mode && ReachesCost(result.best_score, hooks.score_bound);
  }
  for (StrandState& state : states) {
    result.strands.push_back(std::move(state.outcome));
  }
  result.elapsed_ms = MsSince(start);
  return result;
}

StatusOr<JoResult> RunJoPortfolio(const Query& query,
                                  const JoQuboEncoding& encoding,
                                  const JoResult& classical_plan,
                                  const PortfolioOptions& options,
                                  const RunContext& run, Rng& rng,
                                  PortfolioReport* report) {
  RaceHooks hooks;
  hooks.score = [&encoding, &query](const std::vector<int>& bits) -> double {
    const auto order = DecodeSample(encoding.milp, bits);
    if (!order.ok()) return std::numeric_limits<double>::quiet_NaN();
    return Cost(query, *order);
  };
  // Up to the DP cap the classical plan is the exact optimum, so no
  // strand can beat its cost and a deadline race may stop on reaching it.
  // Past the cap it is greedy, which bounds nothing.
  if (query.num_relations() <= kMaxDpRelations) {
    hooks.score_bound = Cost(query, classical_plan.order);
  }
  // Give the QUBO-level race its query-level strand: past the gate size
  // the decomposition loop is the only strand with a realistic shot at a
  // valid plan (monolithic samples stop decoding), and below it the
  // strand only burns threads the QUBO strands use better. The race's
  // stop token, which its deadline stops, is the loop's only wall-clock
  // bound.
  if (options.enable_decomp &&
      query.num_relations() >= options.min_decomp_relations) {
    hooks.decomp_run = [&query, &options](const RunContext& strand_run,
                                          double target_cost,
                                          Rng& strand_rng) {
      return OptimizeJoinOrderDecomposed(query, options.decomp, strand_run,
                                         strand_rng, target_cost);
    };
  }
  QJO_ASSIGN_OR_RETURN(
      report->race,
      RaceQuboPortfolio(encoding.encoding.qubo, options, hooks, run, rng));

  const QuboRaceResult& race = report->race;
  if (race.winner >= 0) {
    const StrandOutcome& winner = race.strands[race.winner];
    // The decomp strand hands back the join order itself; the QUBO strands
    // publish a bit assignment that decodes through the MILP metadata.
    auto order = winner.index == kDecomp
                     ? LeftDeepOrder::Create(race.best_assignment, query)
                     : DecodeSample(encoding.milp, race.best_assignment);
    if (order.ok()) {
      report->winner = winner.name;
      return JoResult{*std::move(order), race.best_score};
    }
  }
  // Graceful degradation: the caller's classical plan is a valid join
  // tree regardless of what the race produced.
  report->used_classical_fallback = true;
  report->winner = "classical_fallback";
  return classical_plan;
}

std::string PortfolioReport::Summary() const {
  std::ostringstream os;
  os << "portfolio winner: " << winner
     << (used_classical_fallback ? " (fallback)" : "") << ", race "
     << FormatDouble(race.elapsed_ms, 2) << " ms";
  if (race.reached_score_bound) os << ", stopped at the DP optimum";
  if (race.deadline_expired) os << ", deadline expired";
  os << "\n";
  for (const StrandOutcome& s : race.strands) {
    os << "  " << s.name << ": ";
    if (!s.eligible) {
      os << "not eligible\n";
      continue;
    }
    os << s.rounds_completed << " rounds, " << s.sweeps_completed
       << " sweeps, best energy " << s.best_energy;
    if (s.feasible) {
      os << ", cost " << s.best_score << ", incumbent at "
         << FormatDouble(s.time_to_incumbent_ms, 2) << " ms";
    } else {
      os << ", no valid plan";
    }
    os << ", total " << FormatDouble(s.total_ms, 2) << " ms";
    if (s.hit_lower_bound) os << ", hit lower bound";
    if (s.won) os << " [winner]";
    os << "\n";
  }
  return os.str();
}

}  // namespace qjo
