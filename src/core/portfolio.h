#ifndef QJO_CORE_PORTFOLIO_H_
#define QJO_CORE_PORTFOLIO_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/qubo_cache.h"
#include "decomp/decomp.h"
#include "jo/join_tree.h"
#include "jo/query.h"
#include "obs/obs.h"
#include "qubo/qubo.h"
#include "qubo/solvers.h"
#include "util/random.h"
#include "util/run_context.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace qjo {

/// Configuration of a portfolio race. Where the race runs, until when and
/// whether it was cancelled come from the caller's RunContext, passed
/// next to these options. Two budget dimensions compose:
///
///  * `run.deadline_ms` — wall-clock budget from race entry: > 0
///    deadline, 0 = skip the race entirely (the JO layer answers with the
///    classical fallback), < 0 = no deadline (`sweep_budget` must then be
///    positive). The race arms its own stop source on the process-wide
///    DeadlineMonitor, which stops it on expiry; every strand winds down
///    cooperatively (the strands' `run.stop`) and the best incumbent
///    wins. A race that already holds a proven optimum ends earlier: the
///    exact strand's QUBO minimum, or a strand reaching
///    RaceHooks::score_bound. No layer below the race reads the deadline
///    itself: it reaches the strands, the decomposition loop included,
///    only as that stop.
///    The race itself starts no thread. Wall-clock cut-offs are
///    inherently scheduling-dependent, so deadline-bounded runs are *not*
///    bit-reproducible.
///  * `sweep_budget` — total sweeps per strand (SA sweeps summed over
///    reads, tabu iterations summed over restarts, SQA Monte-Carlo sweeps
///    summed over reads). A run bounded only by sweeps (deadline_ms < 0)
///    is bit-identical at every parallelism level: strands fork disjoint
///    RNG streams and never communicate except through the stop token,
///    which is never stopped.
///
/// An unbounded configuration — `sweep_budget == 0` (or negative) with
/// `run.deadline_ms < 0` — is rejected with InvalidArgument by the one
/// entry validation (ValidatePortfolioOptions); no strand ever performs
/// its own ad-hoc budget checks. Every field changes the answer, so the
/// plan key names them all (serve/config_fields.h).
struct PortfolioOptions {
  /// Total sweeps each strand may spend; 0 = unlimited (requires a
  /// positive deadline). A strand starts no round once it has spent the
  /// budget, so the last round may run to completion past it.
  int64_t sweep_budget = 4096;

  /// Work per round: the sa, tabu and sqa strands run SolveAnnealRound
  /// rounds (sim/anneal_round.h) of `reads_per_round` reads x
  /// `sweeps_per_round` sweeps and absorb each round's reads. Must be
  /// positive (ValidatePortfolioOptions).
  int reads_per_round = 4;
  int sweeps_per_round = 64;

  // --- Strand selection. ---
  bool enable_exact = true;
  bool enable_sa = true;
  bool enable_tabu = true;
  bool enable_sqa = true;
  bool enable_qaoa = true;
  /// The exact (Gray-code brute force) strand only joins the race for
  /// instances of at most this many variables. The QAOA-simulator strand
  /// has a fixed gate of 20 variables (2^n amplitudes + spectrum), 128
  /// shots and 10 angle-search iterations; the SQA strand anneals with
  /// SqaOptions defaults at the race's round size.
  int max_exact_variables = 20;

  /// The decomposition strand (large-neighborhood search over the join
  /// order, src/decomp) is the only strand that does not attack the
  /// monolithic QUBO, so it is the one that still returns valid plans
  /// for 30-50 relation queries. RunJoPortfolio enables it for queries
  /// of at least `min_decomp_relations` relations; RaceQuboPortfolio
  /// alone cannot run it (it only sees the QUBO) and treats the strand
  /// as ineligible unless RaceHooks::decomp_run is set.
  bool enable_decomp = true;
  int min_decomp_relations = 10;
  /// Template for the strand's decomposition loop. It runs under the
  /// race's context, which carries the caller's `run.build_cache` to the
  /// window sub-encodings unchanged; the race's stop token is its only
  /// wall-clock bound, so with the strand enabled `decomp.max_rounds`
  /// must be positive (ValidatePortfolioOptions).
  DecompOptions decomp;
};

/// The query-level half of a race, which the QUBO alone does not carry.
/// RunJoPortfolio fills them (the decomp body from min_decomp_relations
/// relations, the bound up to kMaxDpRelations); a bare QUBO race passes
/// `{}`.
struct RaceHooks {
  /// Domain scorer, called on every sample a strand produces: returns the
  /// domain objective (lower is better — the C_out cost of the decoded
  /// join order) or NaN when the sample is infeasible in the domain.
  /// Null = every sample is feasible with score = QUBO energy. Must be
  /// thread-safe: strands call it concurrently.
  std::function<double(const std::vector<int>&)> score;
  /// The decomposition strand's body. Receives the race's context (whose
  /// stop token the race deadline stops), the target cost at which its
  /// loop may return (`score_bound` in deadline mode, -infinity
  /// otherwise) and the strand's forked RNG stream. Null = the strand is
  /// ineligible.
  std::function<StatusOr<DecompReport>(const RunContext&, double target_cost,
                                       Rng&)>
      decomp_run;
  /// A proven lower bound on the score: RunJoPortfolio passes the DP
  /// optimum's C_out, computed through the same Cost as `score`. In
  /// deadline mode a strand whose feasible incumbent reaches it
  /// (ReachesCost, relative 1e-12) sets its `hit_lower_bound` and stops
  /// the race through the same early exit as the exact strand's proven
  /// optimum. Sweep-budget races never read it. -infinity = no bound.
  double score_bound = -std::numeric_limits<double>::infinity();
};

/// The single entry validation of a race configuration: RunContext
/// invariants, positive round sizes (which also make the SQA strand's
/// per-round options valid), a positive `decomp.max_rounds` when the
/// decomp strand is enabled, and the budget rule (`sweep_budget <= 0`
/// together with `run.deadline_ms < 0` is an unbounded race and is
/// rejected here — not ad-hoc per strand).
/// RaceQuboPortfolio calls this first; exposed so callers can validate a
/// config early.
Status ValidatePortfolioOptions(const PortfolioOptions& options,
                                const RunContext& run);

/// Per-strand outcome statistics of one race.
struct StrandOutcome {
  /// Strand name ("exact", "sa", "tabu", "sqa", "qaoa" or "decomp") and
  /// its index in that fixed order (= RNG stream id and winner tie-break
  /// rank).
  std::string name;
  int index = -1;
  /// False when the strand was disabled or the instance exceeded its size
  /// gate; such strands report zero rounds and never win.
  bool eligible = false;
  int rounds_completed = 0;
  int64_t sweeps_completed = 0;
  /// Best QUBO energy over every sample the strand produced.
  double best_energy = std::numeric_limits<double>::infinity();
  /// True once the strand produced a domain-feasible sample.
  bool feasible = false;
  /// Domain score of the feasible incumbent (NaN while infeasible).
  double best_score = std::numeric_limits<double>::quiet_NaN();
  /// Wall time from race start to the last *material* improvement of the
  /// feasible incumbent (relative 1e-9; float-level wiggles don't reset
  /// the clock).
  double time_to_incumbent_ms = 0.0;
  /// Sweeps the strand had completed when that incumbent landed
  /// (round-granular, hence deterministic in sweep-budget mode — the
  /// wall-clock twin above is not).
  int64_t sweeps_to_incumbent = 0;
  double total_ms = 0.0;
  /// The strand holds a proven optimum and triggered the early exit, which
  /// stops the race in deadline mode only: the exact strand proved the
  /// QUBO minimum (in any mode), or, in deadline mode, the strand's
  /// feasible incumbent reached RaceHooks::score_bound.
  bool hit_lower_bound = false;
  bool won = false;
};

/// Result of a QUBO-level portfolio race.
struct QuboRaceResult {
  /// Feasible incumbent of the winning strand; empty when no strand
  /// produced a feasible sample (the JO layer then degrades to the
  /// classical plan). For the QUBO strands this is a bit assignment;
  /// when the decomp strand wins it is the join-order permutation itself.
  std::vector<int> best_assignment;
  double best_energy = std::numeric_limits<double>::infinity();
  double best_score = std::numeric_limits<double>::quiet_NaN();
  int winner = -1;  ///< index into `strands`; -1 = no feasible strand
  std::vector<StrandOutcome> strands;
  double elapsed_ms = 0.0;
  /// The race deadline passed before every strand had returned.
  bool deadline_expired = false;
  /// A deadline race whose winning score reached RaceHooks::score_bound:
  /// the race stopped at the bound instead of running to its deadline.
  bool reached_score_bound = false;
};

/// Races the six strands (exact, sa, tabu, sqa, qaoa, decomp) on one QUBO
/// over the shared pool. Each strand runs on its own forked RNG stream
/// (stream id = its index in that order) with the race-wide budgets, so a
/// sweep-budget-bounded race is bit-identical at every parallelism level.
/// The winner is the strand with the best (lowest) domain score
/// (`hooks.score`, or the QUBO energy without one), ties broken by strand
/// order. A deadline race ends early once the exact strand proves the
/// optimum or any strand's feasible incumbent reaches `hooks.score_bound`.
/// The decomp strand races only when `hooks.decomp_run` is set. Fails on
/// an empty QUBO or an invalid configuration (ValidatePortfolioOptions).
StatusOr<QuboRaceResult> RaceQuboPortfolio(const Qubo& qubo,
                                           const PortfolioOptions& options,
                                           const RaceHooks& hooks,
                                           const RunContext& run, Rng& rng);

/// What the JO layer learned from one portfolio run besides its plan,
/// which RunJoPortfolio returns.
struct PortfolioReport {
  /// The plan came from the classical DP/greedy baseline, not a strand.
  bool used_classical_fallback = false;
  /// Name of the winning strand, or "classical_fallback".
  std::string winner;
  QuboRaceResult race;

  std::string Summary() const;
};

/// Runs a deadline-aware portfolio race for one join-ordering query on
/// its prebuilt encoding and returns the plan: strands race on the QUBO,
/// samples are decoded through the MILP metadata, the winner is the valid
/// join order with the lowest C_out cost, and when the race yields no
/// valid plan (or run.deadline_ms == 0) `classical_plan` is returned —
/// a valid join tree is always returned. The caller solves that plan once
/// and it must be OptimizeClassical's answer for `query` (the pipeline
/// passes its oracle): up to kMaxDpRelations it is the DP optimum, whose
/// cost bounds the race (RaceHooks::score_bound), so a deadline race ends
/// as soon as a strand reaches it. Past the cap it is greedy and bounds
/// nothing. Queries of at least `min_decomp_relations` relations also
/// race the decomp strand. `report` receives the race.
StatusOr<JoResult> RunJoPortfolio(const Query& query,
                                  const JoQuboEncoding& encoding,
                                  const JoResult& classical_plan,
                                  const PortfolioOptions& options,
                                  const RunContext& run, Rng& rng,
                                  PortfolioReport* report);

}  // namespace qjo

#endif  // QJO_CORE_PORTFOLIO_H_
