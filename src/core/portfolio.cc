#include "core/portfolio.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/postprocess.h"
#include "core/strand_select.h"
#include "jo/classical.h"
#include "qubo/ising.h"
#include "sim/qaoa_analytic.h"
#include "sim/qaoa_simulator.h"
#include "util/strings.h"

namespace qjo {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Mutable race state of one strand: the published outcome plus the
/// feasible incumbent's assignment. Owned exclusively by the strand's
/// loop body until the ParallelFor join barrier.
struct StrandState {
  StrandOutcome outcome;
  std::vector<int> best_feasible_assignment;
};

/// Tolerance for "incumbent matches the known lower bound".
bool MatchesBound(double energy, double bound) {
  if (std::isnan(bound)) return false;
  return energy <= bound + 1e-9 * std::max(1.0, std::abs(bound));
}

/// Folds one sample into the strand's incumbents. `energy` must be the
/// sample's QUBO energy (offset included) so strands stay comparable.
void AbsorbSample(const PortfolioOptions& options, Clock::time_point start,
                  const std::vector<int>& assignment, double energy,
                  StrandState& state) {
  state.outcome.best_energy = std::min(state.outcome.best_energy, energy);
  double score = energy;
  if (options.score) {
    score = options.score(assignment);
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

/// Shared SolverControl wiring of the sweep-strand bodies.
SolverControl StrandControl(const StrandRunEnv& env) {
  SolverControl control;
  control.pool = env.run.pool;
  control.stop = env.run.stop;
  control.trace = env.run.trace;
  control.metrics = env.run.metrics;
  return control;
}

bool BudgetLeft(const StrandRunEnv& env) {
  return env.budget.sweep_budget <= 0 ||
         env.outcome->sweeps_completed < env.budget.sweep_budget;
}

// --- Built-in strand bodies. Each consumes its StrandBudget allocation
// and keeps rounds_completed/sweeps_completed current; incumbents go
// through env.absorb. ---

void RunExactStrand(const StrandRunEnv& env, Rng& rng) {
  (void)rng;  // deterministic enumeration; the stream stays untouched
  if (env.stop_requested()) return;
  auto best =
      SolveQuboBruteForce(*env.qubo, env.options->max_exact_variables);
  if (!best.ok()) return;
  env.absorb(best->assignment, best->energy);
  env.outcome->rounds_completed = 1;
  env.outcome->sweeps_completed = int64_t{1} << env.qubo->num_variables();
  // The exact minimum *is* a proven lower bound: nothing can beat it on
  // energy, so in deadline mode the race ends here.
  env.outcome->hit_lower_bound = true;
  env.request_stop();
}

void RunSaStrand(const StrandRunEnv& env, Rng& rng) {
  SaOptions sa;
  sa.num_reads = env.budget.reads_per_round;
  sa.sweeps_per_read = env.budget.sweeps_per_round;
  sa.control = StrandControl(env);
  const int64_t round_sweeps =
      static_cast<int64_t>(env.budget.reads_per_round) *
      env.budget.sweeps_per_round;
  while (!env.stop_requested() && BudgetLeft(env)) {
    const auto reads = SolveQuboSimulatedAnnealing(*env.qubo, sa, rng);
    for (const QuboSolution& read : reads) {
      env.absorb(read.assignment, read.energy);
    }
    ++env.outcome->rounds_completed;
    env.outcome->sweeps_completed += round_sweeps;
  }
}

void RunTabuStrand(const StrandRunEnv& env, Rng& rng) {
  TabuOptions tabu;
  tabu.num_restarts = env.budget.reads_per_round;
  tabu.iterations_per_restart = env.budget.sweeps_per_round;
  tabu.control = StrandControl(env);
  const int64_t round_sweeps =
      static_cast<int64_t>(env.budget.reads_per_round) *
      env.budget.sweeps_per_round;
  while (!env.stop_requested() && BudgetLeft(env)) {
    const auto restarts = SolveQuboTabuSearch(*env.qubo, tabu, rng);
    for (const QuboSolution& restart : restarts) {
      env.absorb(restart.assignment, restart.energy);
    }
    ++env.outcome->rounds_completed;
    env.outcome->sweeps_completed += round_sweeps;
  }
}

void RunSqaStrand(const StrandRunEnv& env, Rng& rng) {
  const IsingModel ising = QuboToIsing(*env.qubo);
  SqaOptions sqa = env.options->sqa;
  sqa.num_reads = env.budget.reads_per_round;
  // One Monte-Carlo sweep per "microsecond" maps the round budget
  // directly onto SQA sweeps (RunSqa clamps to at least 8).
  sqa.annealing_time_us = env.budget.sweeps_per_round;
  sqa.sweeps_per_us = 1.0;
  sqa.kernel = SolverKernel::kBatched;
  sqa.control = StrandControl(env);
  const int64_t sqa_round_sweeps =
      static_cast<int64_t>(env.budget.reads_per_round) *
      std::max(8, env.budget.sweeps_per_round);
  while (!env.stop_requested() && BudgetLeft(env)) {
    auto samples = RunSqa(ising, sqa, rng);
    if (!samples.ok()) break;
    for (const SqaSample& sample : *samples) {
      // ising.Energy(z) == qubo.Energy(SpinsToBits(z)): directly
      // comparable with the other strands.
      env.absorb(SpinsToBits(sample.spins), sample.energy);
    }
    ++env.outcome->rounds_completed;
    env.outcome->sweeps_completed += sqa_round_sweeps;
  }
}

void RunQaoaStrand(const StrandRunEnv& env, Rng& rng) {
  if (env.stop_requested()) return;
  const Qubo& qubo = *env.qubo;
  const int n = qubo.num_variables();
  const IsingModel ising = QuboToIsing(qubo);
  auto sim = QaoaSimulator::Create(ising);
  if (!sim.ok()) return;
  sim->set_pool(env.run.pool);
  const QaoaAngles angles =
      OptimizeQaoaAngles(ising, env.options->qaoa_iterations, rng);
  QaoaParameters params;
  params.gammas = {angles.gamma};
  params.betas = {angles.beta};
  sim->Run(params);
  const std::vector<uint64_t> raw =
      sim->Sample(env.options->qaoa_shots, /*fidelity=*/1.0, rng);
  std::vector<int> bits(n);
  for (uint64_t basis : raw) {
    for (int i = 0; i < n; ++i) {
      bits[i] = static_cast<int>((basis >> i) & 1);
    }
    env.absorb(bits, qubo.Energy(bits));
  }
  env.outcome->rounds_completed = 1;
  env.outcome->sweeps_completed = env.options->qaoa_shots;
}

void RunDecompStrand(const StrandRunEnv& env, Rng& rng) {
  if (env.stop_requested()) return;
  auto decomp = env.options->decomp_run(env.run, rng);
  if (!decomp.ok()) return;
  // The strand's incumbent is the join order itself; its C_out cost is
  // directly comparable with the other strands' decoded scores. The
  // QUBO energy stays +inf (there is no monolithic sample), so winner
  // selection rests purely on the domain score.
  StrandOutcome& outcome = *env.outcome;
  outcome.feasible = true;
  outcome.best_score = decomp->cost;
  outcome.time_to_incumbent_ms = env.elapsed_ms();
  outcome.rounds_completed = decomp->rounds;
  outcome.sweeps_completed = decomp->windows_solved;
  outcome.sweeps_to_incumbent = outcome.sweeps_completed;
  env.publish_assignment(decomp->order.order());
}

}  // namespace

Status StrandRegistry::Register(StrandDesc desc) {
  if (desc.name.empty()) {
    return Status::InvalidArgument("strand name must not be empty");
  }
  if (desc.name.find_first_of(" \t\n") != std::string::npos) {
    return Status::InvalidArgument(
        "strand name must not contain whitespace: " + desc.name);
  }
  if (IndexOf(desc.name) >= 0) {
    return Status::InvalidArgument("duplicate strand name: " + desc.name);
  }
  if (!desc.run) {
    return Status::InvalidArgument("strand has no run hook: " + desc.name);
  }
  desc.rng_stream = strands_.size();
  strands_.push_back(std::move(desc));
  return Status::Ok();
}

int StrandRegistry::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < strands_.size(); ++i) {
    if (strands_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string> StrandRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(strands_.size());
  for (const StrandDesc& desc : strands_) names.push_back(desc.name);
  return names;
}

const StrandRegistry& StrandRegistry::Default() {
  static const StrandRegistry* kDefault = [] {
    auto* registry = new StrandRegistry();
    const auto must_register = [registry](StrandDesc desc) {
      const Status status = registry->Register(std::move(desc));
      (void)status;  // built-in names are unique by construction
    };

    StrandDesc exact;
    exact.name = "exact";
    exact.eligible = [](const Qubo& qubo, const PortfolioOptions& options) {
      return options.enable_exact &&
             qubo.num_variables() <= std::min(options.max_exact_variables, 63);
    };
    exact.run = RunExactStrand;
    must_register(std::move(exact));

    StrandDesc sa;
    sa.name = "sa";
    sa.throttleable = true;
    sa.eligible = [](const Qubo&, const PortfolioOptions& options) {
      return options.enable_sa;
    };
    sa.run = RunSaStrand;
    must_register(std::move(sa));

    StrandDesc tabu;
    tabu.name = "tabu";
    tabu.throttleable = true;
    tabu.eligible = [](const Qubo&, const PortfolioOptions& options) {
      return options.enable_tabu;
    };
    tabu.run = RunTabuStrand;
    must_register(std::move(tabu));

    StrandDesc sqa;
    sqa.name = "sqa";
    sqa.throttleable = true;
    sqa.eligible = [](const Qubo&, const PortfolioOptions& options) {
      return options.enable_sqa;
    };
    sqa.run = RunSqaStrand;
    must_register(std::move(sqa));

    StrandDesc qaoa;
    qaoa.name = "qaoa";
    qaoa.eligible = [](const Qubo& qubo, const PortfolioOptions& options) {
      // The simulator itself refuses above 27 qubits.
      return options.enable_qaoa &&
             qubo.num_variables() <= std::min(options.max_qaoa_variables, 27);
    };
    qaoa.run = RunQaoaStrand;
    must_register(std::move(qaoa));

    StrandDesc decomp;
    decomp.name = "decomp";
    // Query-level strand: only runnable through the hook the JO layer
    // installs (the race itself has no Query to decompose). Runs first
    // so a serial deadline race cannot starve the one strand that
    // guarantees a valid large-query plan.
    decomp.run_first = true;
    decomp.publishes_order = true;
    decomp.eligible = [](const Qubo&, const PortfolioOptions& options) {
      return options.enable_decomp && options.decomp_run != nullptr;
    };
    decomp.run = RunDecompStrand;
    must_register(std::move(decomp));

    return registry;
  }();
  return *kDefault;
}

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
  if (options.adaptive.throttle_divisor < 1) {
    return Status::InvalidArgument(
        "adaptive throttle_divisor must be >= 1");
  }
  if (options.registry != nullptr && options.registry->size() == 0) {
    return Status::InvalidArgument("portfolio strand registry is empty");
  }
  return Status::Ok();
}

StatusOr<QuboRaceResult> RaceQuboPortfolio(const Qubo& qubo,
                                           const PortfolioOptions& options,
                                           const RunContext& run, Rng& rng) {
  const int n = qubo.num_variables();
  if (n == 0) return Status::InvalidArgument("empty QUBO");
  QJO_RETURN_IF_ERROR(ValidatePortfolioOptions(options, run));

  const StrandRegistry& registry =
      options.registry != nullptr ? *options.registry
                                  : StrandRegistry::Default();

  // Materialise the shared CSR before any fan-out (see Qubo::Csr()).
  qubo.Csr();

  StageSpan race_span(run.trace, "portfolio.race");
  QuboRaceResult result;
  const Clock::time_point start = Clock::now();

  // Adaptive budget allocation, fixed before the fan-out: a pure
  // function of (records snapshot, feature bucket), never of the live
  // race, so strands stay independent and sweep-budget races keep the
  // bit-reproducibility contract.
  const bool records_attached = options.adaptive.records != nullptr;
  std::string bucket;
  if (records_attached || options.adaptive.enabled) {
    bucket = options.feature_bucket.empty() ? FallbackBucketKey(n)
                                            : options.feature_bucket;
    result.feature_bucket = bucket;
  }
  const StrandSelector selector(options.adaptive.records, bucket,
                                registry.Names(), options.adaptive);
  result.adaptive_applied = !selector.cold_start();

  std::vector<StrandState> states(registry.size());
  for (int s = 0; s < registry.size(); ++s) {
    const StrandDesc& desc = registry.strands()[s];
    StrandOutcome& outcome = states[s].outcome;
    outcome.name = desc.name;
    outcome.index = s;
    outcome.eligible = !desc.eligible || desc.eligible(qubo, options);
    outcome.allocation = selector.Allocate(
        s, /*round=*/0, desc.throttleable, options.reads_per_round,
        options.sweeps_per_round, options.sweep_budget);
  }

  if (run.metrics != nullptr && result.adaptive_applied) {
    run.metrics->Count("portfolio.adaptive.races");
    for (const StrandState& state : states) {
      if (state.outcome.allocation.throttled) {
        run.metrics->Count("portfolio.adaptive.throttled");
      }
    }
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

  std::atomic<bool> stop{false};
  // Early exit (lower-bound hit, exact strand finished) only cancels the
  // race in deadline mode: cancellation truncates other strands at a
  // wall-clock-dependent point, which would break the bit-reproducibility
  // contract of pure sweep-budget runs.
  const bool deadline_mode = run.deadline_ms > 0.0;
  const auto request_stop = [&] {
    if (deadline_mode) stop.store(true, std::memory_order_relaxed);
  };
  // External cancel token (serving-layer deadline, caller shutdown):
  // relayed onto the internal token in any budget mode — a fired token
  // is an unconditional cancel, unlike the opportunistic early exits.
  const std::atomic<bool>* external = run.stop;

  // Deadline watchdog: flips the internal stop token when the wall-clock
  // budget expires or the external cancel token fires, and exits silently
  // when the race finishes first. The external token is polled at 1 ms
  // granularity — the solvers themselves only check between sweeps, so
  // millisecond relay latency is below their own reaction time.
  std::mutex watchdog_mutex;
  std::condition_variable watchdog_cv;
  bool race_done = false;
  bool deadline_expired = false;
  std::optional<std::jthread> watchdog;
  if (deadline_mode || external != nullptr) {
    watchdog.emplace([&] {
      const Clock::time_point hard_deadline =
          deadline_mode ? DeadlineAfterMs(Clock::now(), run.deadline_ms)
                        : Clock::time_point::max();
      std::unique_lock<std::mutex> lock(watchdog_mutex);
      for (;;) {
        Clock::time_point wake = hard_deadline;
        if (external != nullptr) {
          wake = std::min(wake, Clock::now() + std::chrono::milliseconds(1));
        }
        if (watchdog_cv.wait_until(lock, wake, [&] { return race_done; })) {
          return;  // race finished first
        }
        if (external != nullptr &&
            external->load(std::memory_order_relaxed)) {
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        if (Clock::now() >= hard_deadline) {
          deadline_expired = true;
          stop.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  // The context every strand runs under: the caller's, with the internal
  // token in place of the caller's (the watchdog and `stop_requested`
  // relay that one). Its deadline is the race deadline in deadline mode
  // and "none" otherwise (zero budgets returned above).
  RunContext strand_run = run;
  strand_run.stop = &stop;

  const Rng base(rng.Next());
  const auto stop_requested = [&] {
    return stop.load(std::memory_order_relaxed) ||
           (external != nullptr &&
            external->load(std::memory_order_relaxed));
  };

  const auto run_strand = [&](int64_t s) {
    StrandState& state = states[s];
    StrandOutcome& outcome = state.outcome;
    if (!outcome.eligible) return;
    const StrandDesc& desc = registry.strands()[s];
    const std::string span_name = "strand." + desc.name;
    StageSpan strand_span(run.trace, span_name.c_str());
    const Clock::time_point strand_start = Clock::now();
    Rng strand_rng = base.Fork(desc.rng_stream);

    StrandRunEnv env;
    env.qubo = &qubo;
    env.options = &options;
    env.run = strand_run;
    env.stop_requested = stop_requested;
    env.request_stop = request_stop;
    env.elapsed_ms = [&start] { return MsSince(start); };
    env.budget = outcome.allocation;
    env.outcome = &outcome;
    env.absorb = [&](const std::vector<int>& assignment, double energy) {
      AbsorbSample(options, start, assignment, energy, state);
      if (MatchesBound(outcome.best_energy, options.lower_bound)) {
        outcome.hit_lower_bound = true;
        request_stop();
      }
    };
    env.publish_assignment = [&state](const std::vector<int>& assignment) {
      state.best_feasible_assignment = assignment;
    };

    desc.run(env, strand_rng);
    outcome.total_ms = MsSince(strand_start);
    if (run.metrics != nullptr) {
      // Mirrors StrandOutcome so exported metrics can be checked against
      // PortfolioReport; counter sums are deterministic in sweep-budget
      // mode at every parallelism level.
      const std::string prefix = "portfolio." + desc.name;
      run.metrics->Count(
          prefix + ".rounds", static_cast<uint64_t>(outcome.rounds_completed));
      run.metrics->Count(
          prefix + ".sweeps", static_cast<uint64_t>(outcome.sweeps_completed));
      run.metrics->Observe("portfolio.strand_ms", outcome.total_ms);
    }
  };

  // Execution order: run_first strands (decomp) ahead of the QUBO sweep
  // strands. With threads to spare the order is irrelevant; in a
  // *serial* deadline run it is what keeps the one strand that
  // guarantees a valid large-query plan from being starved by the sweep
  // loops ahead of it. Winner selection below still tie-breaks in
  // registration order, so this never affects results of
  // sweep-budget-bounded races.
  std::vector<int64_t> run_order;
  run_order.reserve(states.size());
  for (int s = 0; s < registry.size(); ++s) {
    if (registry.strands()[s].run_first) run_order.push_back(s);
  }
  for (int s = 0; s < registry.size(); ++s) {
    if (!registry.strands()[s].run_first) run_order.push_back(s);
  }
  ParallelFor(run.pool, 0, static_cast<int64_t>(run_order.size()),
              [&](int64_t i) { run_strand(run_order[i]); });

  // Retire the watchdog before reading its verdict.
  if (watchdog.has_value()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mutex);
      race_done = true;
    }
    watchdog_cv.notify_all();
    watchdog.reset();  // joins
  }
  result.deadline_expired = deadline_expired;

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
  }
  for (StrandState& state : states) {
    result.strands.push_back(std::move(state.outcome));
  }
  // Race epilogue: fold this race's outcomes into the learned records.
  // Recording never influences *this* race (the selector snapshot was
  // taken at entry), so determinism within a race is unaffected.
  if (records_attached && options.adaptive.record) {
    options.adaptive.records->Record(bucket, result.strands);
    if (run.metrics != nullptr) {
      run.metrics->GaugeMax(
          "portfolio.adaptive.bucket_trials",
          static_cast<double>(
              options.adaptive.records->BucketTrials(bucket)));
    }
  }
  result.elapsed_ms = MsSince(start);
  return result;
}

StatusOr<PortfolioReport> RunJoPortfolio(const Query& query,
                                         const JoQuboEncoding& encoding,
                                         const PortfolioOptions& options,
                                         const RunContext& run, Rng& rng) {
  const Clock::time_point start = Clock::now();
  PortfolioReport report;

  PortfolioOptions race_options = options;
  race_options.score =
      [&encoding, &query](const std::vector<int>& bits) -> double {
    const auto order = DecodeSample(encoding.milp, bits);
    if (!order.ok()) return std::numeric_limits<double>::quiet_NaN();
    return Cost(query, *order);
  };
  // The selector and the record store key on the query's feature bucket;
  // computed here because only the JO layer sees the query graph.
  if (race_options.feature_bucket.empty() &&
      (options.adaptive.records != nullptr || options.adaptive.enabled)) {
    race_options.feature_bucket = FeatureBucketKey(ExtractQueryFeatures(
        query, encoding.encoding.qubo.num_variables()));
  }
  // Give the QUBO-level race its query-level strand: past the gate size
  // the decomposition loop is the only strand with a realistic shot at a
  // valid plan (monolithic samples stop decoding), and below it the
  // strand only burns threads the QUBO strands use better.
  if (options.enable_decomp &&
      query.num_relations() >= options.min_decomp_relations) {
    // In deadline mode the race context carries the race budget, which
    // caps the loop directly (the internal check reacts between window
    // solves, faster than the watchdog's stop token).
    race_options.decomp_run = [&query, &options](const RunContext& strand_run,
                                                 Rng& strand_rng) {
      return OptimizeJoinOrderDecomposed(query, options.decomp, strand_run,
                                         strand_rng);
    };
  }
  QJO_ASSIGN_OR_RETURN(
      report.race,
      RaceQuboPortfolio(encoding.encoding.qubo, race_options, run, rng));

  if (report.race.winner >= 0) {
    const StrandRegistry& registry = options.registry != nullptr
                                         ? *options.registry
                                         : StrandRegistry::Default();
    const StrandOutcome& winner = report.race.strands[report.race.winner];
    const bool publishes_order =
        winner.index >= 0 && winner.index < registry.size() &&
        registry.strands()[winner.index].publishes_order;
    // Order-publishing strands (decomp) hand back the join order itself;
    // QUBO strands publish a bit assignment that decodes through the
    // MILP metadata.
    auto order = publishes_order
                     ? LeftDeepOrder::Create(report.race.best_assignment, query)
                     : DecodeSample(encoding.milp, report.race.best_assignment);
    if (order.ok()) {
      report.found_valid = true;
      report.best_order = *order;
      report.best_cost = report.race.best_score;
      report.winner = winner.name;
    }
  }

  if (!report.found_valid) {
    // Graceful degradation: the DP oracle (exact up to kMaxDpRelations),
    // then the greedy heuristic beyond — a valid join tree regardless of
    // what the race produced.
    auto plan = OptimizeDp(query);
    if (!plan.ok()) plan = OptimizeGreedy(query);
    QJO_RETURN_IF_ERROR(plan.status());
    report.found_valid = true;
    report.best_order = plan->order;
    report.best_cost = plan->cost;
    report.used_classical_fallback = true;
    report.winner = "classical_fallback";
  }
  report.elapsed_ms = MsSince(start);
  return report;
}

std::string PortfolioReport::Summary() const {
  std::ostringstream os;
  os << "portfolio winner: " << winner
     << (used_classical_fallback ? " (fallback)" : "") << ", cost "
     << best_cost << ", " << FormatDouble(elapsed_ms, 2) << " ms";
  if (race.deadline_expired) os << ", deadline expired";
  if (race.adaptive_applied) {
    os << ", adaptive (" << race.feature_bucket << ")";
  }
  if (cache_hits + cache_misses > 0) {
    os << ", cache hit rate " << FormatPercent(cache_hit_rate);
  }
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
    if (s.allocation.throttled) os << ", throttled";
    if (s.hit_lower_bound) os << ", hit lower bound";
    if (s.won) os << " [winner]";
    os << "\n";
  }
  return os.str();
}

}  // namespace qjo
