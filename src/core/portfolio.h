#ifndef QJO_CORE_PORTFOLIO_H_
#define QJO_CORE_PORTFOLIO_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/qubo_cache.h"
#include "decomp/decomp.h"
#include "jo/join_tree.h"
#include "jo/query.h"
#include "obs/obs.h"
#include "qubo/qubo.h"
#include "qubo/solvers.h"
#include "sim/sqa.h"
#include "util/random.h"
#include "util/run_context.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace qjo {

class RunRecordStore;  // core/strand_select.h
struct PortfolioOptions;
struct StrandOutcome;

/// Budget granted to one strand for one race. In a fixed (non-adaptive
/// or cold-start) race every strand receives the race-wide base budgets;
/// in an adaptive race the selector throttles deprioritised round-based
/// strands by dividing their restarts and total sweep budget — strands
/// are throttled, never removed, so the classical-fallback guarantee and
/// every eligibility rule are untouched.
struct StrandBudget {
  int reads_per_round = 0;
  int sweeps_per_round = 0;
  /// Total sweeps the strand may spend; 0 = unlimited (deadline-bounded).
  int64_t sweep_budget = 0;
  /// The selector deprioritised this strand (budgets above are divided).
  bool throttled = false;
};

/// Adaptive strand selection (see core/strand_select.h). The selector is
/// a per-feature-bucket UCB1 bandit over the registered strands, fed by
/// a persistent RunRecordStore of per-strand win/time-to-incumbent
/// events. Decisions are a pure function of (records snapshot, feature
/// bucket, round index) — never wall clock — so adaptive sweep-budget
/// races keep the bit-reproducibility contract at any parallelism.
struct AdaptiveOptions {
  /// Master switch for budget shaping. Off (default): every strand runs
  /// at full budget — byte-for-byte today's fixed race.
  bool enabled = false;
  /// Learned per-bucket run records the selector consults and (when
  /// `record` is set) updates at race epilogue. Externally owned,
  /// thread-safe. Null = permanent cold start: full budgets everywhere,
  /// nothing recorded.
  RunRecordStore* records = nullptr;
  /// Record this race's strand outcomes into `records` at epilogue.
  /// Learning can stay on while `enabled` is off, to warm a records
  /// store from fixed races.
  bool record = true;
  /// Cold-start prior: a bucket needs at least this many recorded races
  /// before the selector shapes budgets; below the threshold the race is
  /// bit-identical to the fixed-order race.
  uint64_t min_bucket_trials = 8;
  /// Divisor applied to a deprioritised strand's reads_per_round and
  /// total sweep budget (clamped so at least one round always runs).
  int throttle_divisor = 4;
};

/// Everything a strand's run hook sees during a race. Hooks run
/// concurrently with each other; a hook may only touch its own
/// `outcome`, must report every sample through `absorb`, and should
/// check `stop_requested` between units of work.
struct StrandRunEnv {
  const Qubo* qubo = nullptr;
  const PortfolioOptions* options = nullptr;
  /// The race's context: the caller's pool (null = serial) and sinks, the
  /// race's internal stop token (armed by the deadline watchdog, the
  /// caller's token and the early-exit paths; wire it into
  /// SolverControl::stop) and, in deadline mode, the race deadline.
  RunContext run;
  /// True once the strand should wind down (the internal token or the
  /// caller's external cancel token fired).
  std::function<bool()> stop_requested;
  /// Requests the race-wide early exit (a proven optimum / lower-bound
  /// hit). Honoured in deadline mode only: cancelling sweep-budget races
  /// on a wall-clock event would break bit-reproducibility.
  std::function<void()> request_stop;
  /// Milliseconds since race start (for one-shot strands that stamp
  /// their own time_to_incumbent; `absorb` stamps it for the others).
  std::function<double()> elapsed_ms;
  /// Folds one sample into the strand's incumbents; `energy` must be the
  /// sample's QUBO energy (offset included) so strands stay comparable.
  /// Call only from the hook's own thread.
  std::function<void(const std::vector<int>& assignment, double energy)>
      absorb;
  /// Publishes the strand's incumbent verbatim, bypassing the domain
  /// scorer — for `publishes_order` strands whose incumbent is a join
  /// order, not a QUBO sample (the hook must set the outcome's
  /// feasible/best_score fields itself).
  std::function<void(const std::vector<int>& assignment)> publish_assignment;
  /// The budget granted to this strand (full budgets in a fixed race).
  StrandBudget budget;
  /// The outcome slot the hook must keep current
  /// (rounds_completed/sweeps_completed); `absorb` maintains the
  /// incumbent fields.
  StrandOutcome* outcome = nullptr;
};

/// One registered solver strand. The registration index doubles as the
/// strand's RNG stream id and the deterministic winner tie-break, so
/// registration order is part of the reproducibility contract.
struct StrandDesc {
  /// Unique lowercase identifier; also the metrics prefix
  /// ("portfolio.<name>.*"), the trace span suffix ("strand.<name>")
  /// and the records-store key.
  std::string name;
  /// RNG stream forked off the race seed; assigned by
  /// StrandRegistry::Register as the registration index — the built-in
  /// strands keep the stream ids of the pre-registry enum (exact=0,
  /// sa=1, tabu=2, sqa=3, qaoa=4, decomp=5).
  uint64_t rng_stream = 0;
  /// Round-based strands accept selector throttling; one-shot strands
  /// (exact, qaoa, decomp) always run at full budget.
  bool throttleable = false;
  /// Runs before the other strands in the serial fan-out. Set for the
  /// decomp strand: in a serial deadline race it is what keeps the one
  /// strand that guarantees a valid large-query plan from being starved
  /// by the sweep loops ahead of it. Never affects sweep-budget results.
  bool run_first = false;
  /// The strand publishes a join-order permutation instead of a QUBO bit
  /// assignment (the decomp strand); RunJoPortfolio decodes accordingly.
  bool publishes_order = false;
  /// Eligibility for one race; ineligible strands report zero rounds and
  /// never win. Null = always eligible.
  std::function<bool(const Qubo& qubo, const PortfolioOptions& options)>
      eligible;
  /// The strand body. `rng` is the strand's private forked stream.
  std::function<void(const StrandRunEnv& env, Rng& rng)> run;
};

/// The strand universe of a race. Replaces the hard-coded PortfolioStrand
/// enum fan-out: built-in and external strands (the decomp strand, future
/// backends) register into one table that fixes names, RNG streams, the
/// execution order and the winner tie-break.
class StrandRegistry {
 public:
  /// The built-in strand set in canonical order: exact, sa, tabu, sqa,
  /// qaoa, decomp. Indices — and hence RNG streams, tie-breaks and every
  /// sweep-budget race result — are identical to the pre-registry enum.
  static const StrandRegistry& Default();

  StrandRegistry() = default;

  /// Appends a strand. `desc.rng_stream` is overwritten with the
  /// registration index so streams stay disjoint and stable. Fails on an
  /// empty, duplicate, or whitespace-bearing name.
  Status Register(StrandDesc desc);

  const std::vector<StrandDesc>& strands() const { return strands_; }
  int size() const { return static_cast<int>(strands_.size()); }
  /// Index of `name`; -1 when absent.
  int IndexOf(std::string_view name) const;
  /// Names in registration order (the selector's arm universe).
  std::vector<std::string> Names() const;

 private:
  std::vector<StrandDesc> strands_;
};

/// Configuration of a portfolio race. Where the race runs, until when and
/// whether it was cancelled come from the caller's RunContext, passed
/// next to these options. Two budget dimensions compose:
///
///  * `run.deadline_ms` — wall-clock budget: > 0 deadline, 0 = skip the
///    race entirely (the JO layer answers with the classical fallback),
///    < 0 = no deadline (`sweep_budget` must then be positive). A
///    watchdog flips a shared stop token on expiry; every strand winds
///    down cooperatively (the solvers' `stop` hooks) and the best
///    incumbent wins. Wall-clock cut-offs are inherently
///    scheduling-dependent, so deadline-bounded runs are *not*
///    bit-reproducible.
///  * `sweep_budget` — total sweeps per strand (SA sweeps summed over
///    reads, tabu iterations summed over restarts, SQA Monte-Carlo sweeps
///    summed over reads). A run bounded only by sweeps (deadline_ms < 0)
///    is bit-identical at every parallelism level: strands fork disjoint
///    RNG streams and never communicate except through the stop token,
///    which stays unset.
///
/// An unbounded configuration — `sweep_budget == 0` (or negative) with
/// `run.deadline_ms < 0` — is rejected with InvalidArgument by the one
/// entry validation (ValidatePortfolioOptions); no strand ever performs
/// its own ad-hoc budget checks.
struct PortfolioOptions {
  /// Total sweeps each strand may spend; 0 = unlimited (requires a
  /// positive deadline). The budget is checked between rounds, so the
  /// last round may run to completion past it.
  int64_t sweep_budget = 4096;

  /// Work per round: every stochastic strand alternates solver rounds of
  /// `reads_per_round` restarts x `sweeps_per_round` sweeps with
  /// incumbent/budget/stop checks. Smaller rounds react faster to the
  /// deadline; larger rounds amortise dispatch overhead. Must be
  /// positive (ValidatePortfolioOptions).
  int reads_per_round = 4;
  int sweeps_per_round = 64;

  /// The strand universe; null = StrandRegistry::Default(). Externally
  /// owned and immutable for the duration of the race.
  const StrandRegistry* registry = nullptr;

  /// Adaptive budget shaping (off by default) and the feature-bucket key
  /// the selector learns under. RunJoPortfolio fills `feature_bucket`
  /// from the query graph (core/strand_select.h); direct
  /// RaceQuboPortfolio callers may set it themselves — when left empty a
  /// QUBO-size-only fallback bucket is used.
  AdaptiveOptions adaptive;
  std::string feature_bucket;

  // --- Strand selection. ---
  bool enable_exact = true;
  bool enable_sa = true;
  bool enable_tabu = true;
  bool enable_sqa = true;
  bool enable_qaoa = true;
  /// The exact (Gray-code brute force) strand only joins the race for
  /// instances of at most this many variables.
  int max_exact_variables = 20;
  /// Likewise for the QAOA-simulator strand (2^n amplitudes + spectrum).
  int max_qaoa_variables = 20;
  int qaoa_shots = 128;
  int qaoa_iterations = 10;
  /// Template for the SQA strand (trotter slices, temperatures, ICE
  /// noise). num_reads, the sweep schedule, the kernel (always
  /// kBatched) and `control` are overridden per round.
  SqaOptions sqa;

  /// The decomposition strand (large-neighborhood search over the join
  /// order, src/decomp) is the only strand that does not attack the
  /// monolithic QUBO, so it is the one that still returns valid plans
  /// for 30-50 relation queries. RunJoPortfolio enables it for queries
  /// of at least `min_decomp_relations` relations; RaceQuboPortfolio
  /// alone cannot run it (it only sees the QUBO) and treats the strand
  /// as ineligible unless `decomp_run` is installed.
  bool enable_decomp = true;
  int min_decomp_relations = 10;
  /// Template for the strand's decomposition loop; it runs under the
  /// race's context. `cache` should point at the pipeline's shared build
  /// cache.
  DecompOptions decomp;
  /// Internal: installed by RunJoPortfolio to give the QUBO-level race a
  /// query-level strand. Receives the race's context (StrandRunEnv::run)
  /// and the strand's forked RNG stream. Null = strand ineligible.
  std::function<StatusOr<DecompReport>(const RunContext&, Rng&)> decomp_run;

  /// Known lower bound on the QUBO energy (e.g. from a previous exact
  /// solve of the same fingerprint). In deadline mode a strand whose
  /// incumbent reaches it stops the whole race; in pure sweep-budget mode
  /// it is only recorded (stopping on a wall-clock event would break
  /// bit-reproducibility). NaN = unknown.
  double lower_bound = std::numeric_limits<double>::quiet_NaN();

  /// Optional domain scorer, called on every sample a strand produces:
  /// returns the domain objective (lower is better — e.g. the C_out cost
  /// of the decoded join order) or NaN when the sample is infeasible in
  /// the domain. Null = every sample is feasible with score = QUBO
  /// energy. Must be thread-safe: strands call it concurrently.
  std::function<double(const std::vector<int>&)> score;
};

/// The single entry validation of a race configuration: RunContext
/// invariants, positive round sizes, and the budget rule (`sweep_budget
/// <= 0` together with `run.deadline_ms < 0` is an unbounded race and is
/// rejected here — not ad-hoc per strand). RaceQuboPortfolio calls this
/// first; exposed so config builders can validate early.
Status ValidatePortfolioOptions(const PortfolioOptions& options,
                                const RunContext& run);

/// Per-strand outcome statistics of one race.
struct StrandOutcome {
  /// Registry name ("exact", "sa", "tabu", "sqa", "qaoa", "decomp", or a
  /// custom strand's name) and registration index (= RNG stream id and
  /// winner tie-break rank).
  std::string name;
  int index = -1;
  /// False when the strand was disabled or the instance exceeded its size
  /// gate; such strands report zero rounds and never win.
  bool eligible = false;
  /// The budget the selector granted this strand (full budgets whenever
  /// adaptive shaping was off or cold).
  StrandBudget allocation;
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
  /// The strand matched the known lower bound (or, for the exact strand,
  /// proved the optimum) and triggered the early exit.
  bool hit_lower_bound = false;
  bool won = false;
};

/// Result of a QUBO-level portfolio race.
struct QuboRaceResult {
  /// Feasible incumbent of the winning strand; empty when no strand
  /// produced a feasible sample (the JO layer then degrades to the
  /// classical plan). For the QUBO strands this is a bit assignment;
  /// when a `publishes_order` strand (decomp) wins it is the join-order
  /// permutation itself.
  std::vector<int> best_assignment;
  double best_energy = std::numeric_limits<double>::infinity();
  double best_score = std::numeric_limits<double>::quiet_NaN();
  int winner = -1;  ///< index into `strands`; -1 = no feasible strand
  std::vector<StrandOutcome> strands;
  /// The feature bucket the race keyed its records under (empty when no
  /// adaptive records were attached).
  std::string feature_bucket;
  /// The selector shaped budgets this race (false on cold start or when
  /// adaptive mode was off).
  bool adaptive_applied = false;
  double elapsed_ms = 0.0;
  bool deadline_expired = false;
};

/// Races the registered strands on one QUBO over the shared pool. Each
/// strand runs on its own forked RNG stream (stream id = registration
/// index), so a sweep-budget-bounded race is bit-identical at every
/// parallelism level — with adaptive shaping on as well, since budget
/// allocations are a pure function of the records snapshot taken at
/// entry. The winner is the strand with the best (lowest) domain score,
/// ties broken by registration order. Fails on an empty QUBO or an
/// invalid configuration (ValidatePortfolioOptions).
StatusOr<QuboRaceResult> RaceQuboPortfolio(const Qubo& qubo,
                                           const PortfolioOptions& options,
                                           const RunContext& run, Rng& rng);

/// Everything the JO layer learned from one portfolio run.
struct PortfolioReport {
  /// Always true on a successful run: when no strand produced a valid
  /// join tree (or the budget was zero), the classical fallback plan is
  /// returned instead.
  bool found_valid = false;
  LeftDeepOrder best_order;
  double best_cost = 0.0;
  /// The plan came from the classical DP/greedy baseline, not a strand.
  bool used_classical_fallback = false;
  /// Name of the winning strand, or "classical_fallback".
  std::string winner;
  QuboRaceResult race;
  /// QUBO-build cache counters (filled by the pipeline owner when a cache
  /// is attached; zero otherwise).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  double elapsed_ms = 0.0;

  std::string Summary() const;
};

/// Runs a deadline-aware portfolio race for one join-ordering query on
/// its prebuilt encoding: strands race on the QUBO, samples are decoded
/// through the MILP metadata, the winner is the valid join order with the
/// lowest C_out cost, and when the race yields no valid plan (or
/// run.deadline_ms == 0) the classical DP baseline (greedy beyond the DP size
/// limit) supplies one — a valid join tree is always returned. When
/// adaptive records are attached, the query's feature bucket is computed
/// here and the race outcomes are recorded at epilogue.
StatusOr<PortfolioReport> RunJoPortfolio(const Query& query,
                                         const JoQuboEncoding& encoding,
                                         const PortfolioOptions& options,
                                         const RunContext& run, Rng& rng);

}  // namespace qjo

#endif  // QJO_CORE_PORTFOLIO_H_
