#include "core/portfolio.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
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

/// Mutable race state of one strand: the published outcome, the feasible
/// incumbent's assignment and the strand's RNG stream. The exact, qaoa
/// and decomp strands run whole on the thread that takes them, which owns
/// their state until the ParallelFor join barrier. A sweep strand's rounds
/// may run on several threads (RunRounds), so everything of its state
/// that they share is guarded by `mutex`.
struct StrandState {
  StrandOutcome outcome;
  std::vector<int> best_feasible_assignment;
  /// `base.Fork(index)`. A sweep strand hands round k the stream's k-th
  /// state and advances it by one Next(); that is the state the k-th round
  /// of a serial loop draws from, since a round draws exactly one Next()
  /// (SolveAnnealRound).
  Rng rng;
  /// "strand.<name>": the trace span of the strand's thread, or of each
  /// stretch of rounds one thread claims.
  std::string span_name;

  // --- Round claims and the in-order commit of a sweep strand. ---
  std::mutex mutex;
  int64_t rounds_claimed = 0;
  Clock::time_point first_claim;
  /// The SQA strand's Ising model, built when its first round is claimed.
  std::optional<IsingModel> ising;
  /// Reads of finished rounds that wait for an earlier round to commit.
  std::map<int64_t, std::vector<QuboSolution>> finished;
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
/// each touches only its own `state` (a sweep strand's under its mutex),
/// and checks `run.stop` between units of work.
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

void RunExactStrand(const StrandEnv& env) {
  // Deterministic enumeration: the strand's stream stays untouched. A
  // stopped walk fails: it publishes no incumbent and proves no bound.
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

/// One claimed round of a sweep strand.
struct RoundClaim {
  int64_t round;
  Rng rng;  ///< the strand stream's `round`-th state
  const IsingModel* ising;  ///< the SQA strand's model; null otherwise
};

/// Claims the sweep strand's next round, or nothing once the race is
/// stopped or the claimed rounds cover the sweep budget: the checks a
/// serial loop makes before each round. The SQA strand's first claim
/// builds the Ising model, so a strand that starts after the race stopped
/// converts no QUBO.
template <AnnealKind kKind>
std::optional<RoundClaim> ClaimRound(const StrandEnv& env,
                                     int64_t round_sweeps) {
  StrandState& state = env.state;
  const std::lock_guard<std::mutex> lock(state.mutex);
  const int64_t budget = env.options.sweep_budget;
  if (env.run.stop.stop_requested() ||
      (budget > 0 && state.rounds_claimed * round_sweeps >= budget)) {
    return std::nullopt;
  }
  if (state.rounds_claimed == 0) {
    state.first_claim = Clock::now();
    if constexpr (kKind == AnnealKind::kSqa) {
      state.ising = QuboToIsing(env.qubo);
    }
  }
  RoundClaim claim{state.rounds_claimed++, state.rng,
                   state.ising ? &*state.ising : nullptr};
  state.rng.Next();
  return claim;
}

/// Commits a finished round. Rounds are absorbed in round order whichever
/// thread ran them: a round that finishes early waits in
/// `state.finished` for the rounds before it. So every outcome field but
/// the wall-clock ones is what a serial loop computes, at every pool size.
void CommitRound(const StrandEnv& env, int64_t round,
                 std::vector<QuboSolution> reads, int64_t round_sweeps) {
  StrandState& state = env.state;
  StrandOutcome& outcome = state.outcome;
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.finished.emplace(round, std::move(reads));
  for (auto next = state.finished.begin();
       next != state.finished.end() && next->first == outcome.rounds_completed;
       next = state.finished.erase(next)) {
    for (const QuboSolution& read : next->second) {
      env.Absorb(read.assignment, read.energy);
    }
    ++outcome.rounds_completed;
    outcome.sweeps_completed += round_sweeps;
  }
  outcome.total_ms = MsSince(state.first_claim);
}

/// The sa, tabu and sqa strands: rounds of the race-wide round size on one
/// kernel until the sweep budget or the stop token ends them. This is the
/// body of the thread that takes the strand and of every thread that
/// joins it; each claims rounds until none is left. Each stretch of claims
/// records one strand span.
template <AnnealKind kKind>
void RunRounds(const StrandEnv& env) {
  const PortfolioOptions& options = env.options;
  const int64_t round_sweeps = AnnealRoundSweeps(
      kKind, options.reads_per_round, options.sweeps_per_round);
  std::optional<StageSpan> stretch;
  while (std::optional<RoundClaim> claim =
             ClaimRound<kKind>(env, round_sweeps)) {
    if (!stretch) stretch.emplace(env.run.trace, env.state.span_name.c_str());
    CommitRound(env, claim->round,
                SolveAnnealRound(kKind, env.qubo, claim->ising,
                                 options.reads_per_round,
                                 options.sweeps_per_round, env.run, claim->rng),
                round_sweeps);
  }
}

void RunQaoaStrand(const StrandEnv& env) {
  if (env.run.stop.stop_requested()) return;
  Rng& rng = env.state.rng;
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

void RunDecompStrand(const StrandEnv& env) {
  if (env.run.stop.stop_requested()) return;
  // The loop returns at the start of the first round whose incumbent
  // reaches the bound, and StopAtBound below then ends the race.
  auto decomp =
      env.hooks.decomp_run(env.run, env.score_bound, env.state.rng);
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
  void (*run)(const StrandEnv& env);
} kStrands[kNumStrands] = {
    {"exact", RunExactStrand},
    {"sa", RunRounds<AnnealKind::kSa>},
    {"tabu", RunRounds<AnnealKind::kTabu>},
    {"sqa", RunRounds<AnnealKind::kSqa>},
    {"qaoa", RunQaoaStrand},
    {"decomp", RunDecompStrand},
};

/// The sweep strands, whose rounds any thread may claim, in the order a
/// thread that finds no untaken strand joins them: costliest round first.
/// One SQA sweep updates every Trotter slice (~12x an SA sweep), and an
/// SA round outlasts a tabu round.
constexpr Strand kJoinOrder[] = {kSqa, kSa, kTabu};

bool IsSweepStrand(Strand strand) {
  return std::find(std::begin(kJoinOrder), std::end(kJoinOrder), strand) !=
         std::end(kJoinOrder);
}

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
    states[s].span_name = std::string("strand.") + kStrands[s].name;
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
  for (int s = 0; s < kNumStrands; ++s) states[s].rng = base.Fork(s);

  const auto env_of = [&](Strand s) {
    return StrandEnv{qubo,
                     options,
                     hooks,
                     strand_run,
                     start,
                     deadline_mode ? &stop : nullptr,
                     deadline_mode ? hooks.score_bound : kNoBound,
                     states[s]};
  };

  // Keep, then join. Each participating thread takes the untaken strands
  // in launch order and keeps a strand until it has no work left (no
  // round left to claim, for a sweep strand). Only a thread that finds no
  // untaken strand joins the unfinished sweep strands and claims their
  // rounds. With no more threads than eligible strands, every strand
  // therefore starts where and when it would run whole; a serial race
  // (no pool, or inside another ParallelFor) runs each strand whole.
  std::atomic<int> next_strand{0};
  const auto participate = [&](int64_t) {
    const auto take = [&] {
      return next_strand.fetch_add(1, std::memory_order_relaxed);
    };
    for (int i = take(); i < kNumStrands; i = take()) {
      const Strand s = kRunOrder[i];
      if (!states[s].outcome.eligible) continue;
      if (IsSweepStrand(s)) {
        kStrands[s].run(env_of(s));  // records a span per stretch itself
        continue;
      }
      StageSpan strand_span(run.trace, states[s].span_name.c_str());
      const Clock::time_point strand_start = Clock::now();
      kStrands[s].run(env_of(s));
      states[s].outcome.total_ms = MsSince(strand_start);
    }
    for (const Strand s : kJoinOrder) {
      if (states[s].outcome.eligible) kStrands[s].run(env_of(s));
    }
  };
  ParallelFor(run.pool, 0, run.pool != nullptr ? run.pool->parallelism() : 1,
              participate);

  if (run.metrics != nullptr) {
    // Mirrors StrandOutcome so exported metrics can be checked against
    // PortfolioReport; counter sums are deterministic in sweep-budget
    // mode at every parallelism level.
    for (int s = 0; s < kNumStrands; ++s) {
      const StrandOutcome& outcome = states[s].outcome;
      if (!outcome.eligible) continue;
      const std::string prefix = std::string("portfolio.") + kStrands[s].name;
      run.metrics->Count(
          prefix + ".rounds", static_cast<uint64_t>(outcome.rounds_completed));
      run.metrics->Count(
          prefix + ".sweeps", static_cast<uint64_t>(outcome.sweeps_completed));
      run.metrics->Observe("portfolio.strand_ms", outcome.total_ms);
    }
  }

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
