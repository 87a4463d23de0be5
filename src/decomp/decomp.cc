#include "decomp/decomp.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "core/postprocess.h"
#include "jo/classical.h"
#include "qubo/ising.h"
#include "qubo/solvers.h"
#include "sim/sqa.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Pseudo-relation cardinalities must stay positive and finite for the
/// log-domain encoder: huge prefixes (products of up to 62 cardinalities)
/// are clamped instead of overflowing to inf, tiny ones instead of
/// underflowing below the paper's Card >= 1 requirement.
double ClampCardinality(double card) {
  if (!(card >= 1.0)) return 1.0;  // also catches NaN
  return std::min(card, 1e150);
}

/// Selectivity products towards a large prefix can underflow; keep them
/// inside the (0, 1] domain AddPredicate enforces.
double ClampSelectivity(double sel) {
  if (!(sel > 0.0)) return 1e-150;  // also catches NaN
  return std::min(sel, 1.0);
}

/// Sub-solver rotation: each (round, window) slot runs one of the three
/// stochastic kernels, so the strand inherits the portfolio's solver
/// diversity without racing all of them per window.
enum class SubSolver { kSa, kTabu, kSqa };

SubSolver PickSubSolver(int round, int window_index) {
  switch ((round + window_index) % 3) {
    case 0:
      return SubSolver::kSa;
    case 1:
      return SubSolver::kTabu;
    default:
      return SubSolver::kSqa;
  }
}

/// A window proposal: the window's relations (global ids) in their
/// proposed relative order. Empty = window was skipped (stop/deadline or
/// an unexpected failure); the stitch step then leaves it unchanged.
struct WindowProposal {
  std::vector<int> relative_order;
  bool repaired = false;
  bool solved = false;
};

/// Projects a subquery join order back onto global relation ids, dropping
/// the prefix pseudo-relation wherever the sample placed it. This *is*
/// the repair step: whatever the sub-solver produced, the projection is a
/// permutation of exactly the window's relations.
std::vector<int> ProjectSubOrder(const WindowSubproblem& sub,
                                 const LeftDeepOrder& sub_order) {
  std::vector<int> relative;
  relative.reserve(sub.relations.size());
  const int offset = sub.has_prefix ? 1 : 0;
  for (int i = 0; i < sub_order.size(); ++i) {
    const int s = sub_order[i];
    if (sub.has_prefix && s == 0) continue;  // the prefix pseudo-relation
    relative.push_back(sub.relations[s - offset]);
  }
  return relative;
}

/// Replaces the window's positions of `order` with `relative` (a
/// permutation of the same relation set).
std::vector<int> ApplyProposal(const std::vector<int>& order,
                               const DecompWindow& window,
                               const std::vector<int>& relative) {
  QJO_CHECK_EQ(static_cast<int>(relative.size()), window.length);
  std::vector<int> candidate = order;
  std::copy(relative.begin(), relative.end(),
            candidate.begin() + window.start);
  return candidate;
}

}  // namespace

std::vector<DecompWindow> PartitionWindows(int t, int window, int phase) {
  QJO_CHECK_GT(window, 0);
  QJO_CHECK_GE(phase, 0);
  std::vector<DecompWindow> windows;
  int start = 0;
  while (start < t) {
    const int end = start == 0 && phase > 0 ? std::min(phase, t)
                                            : std::min(start + window, t);
    const int length = end - start;
    if (length >= 2) windows.push_back(DecompWindow{start, length});
    start = end;
  }
  return windows;
}

StatusOr<WindowSubproblem> BuildWindowSubproblem(const Query& query,
                                                 const std::vector<int>& order,
                                                 const DecompWindow& window) {
  if (window.length < 2) {
    return Status::InvalidArgument("window needs at least 2 relations");
  }
  WindowSubproblem sub;
  sub.has_prefix = window.start > 0;

  uint64_t prefix_mask = 0;
  for (int p = 0; p < window.start; ++p) {
    prefix_mask |= uint64_t{1} << order[p];
  }
  if (sub.has_prefix) {
    sub.subquery.AddRelation("prefix",
                             ClampCardinality(query.JoinCardinality(prefix_mask)));
  }
  const int offset = sub.has_prefix ? 1 : 0;
  sub.relations.reserve(window.length);
  for (int p = window.start; p < window.start + window.length; ++p) {
    const int r = order[p];
    sub.relations.push_back(r);
    sub.subquery.AddRelation(query.relation(r).name,
                             ClampCardinality(query.relation(r).cardinality));
  }
  // Window-internal predicates carry over verbatim; predicates towards
  // the prefix fold into one pseudo-predicate per window relation with
  // the combined selectivity (relations *after* the window never
  // influence the window's intermediate results, so they drop out).
  for (int i = 0; i < window.length; ++i) {
    const int global_i = sub.relations[i];
    if (sub.has_prefix) {
      const double sel = query.SelectivityBetween(prefix_mask, global_i);
      if (sel < 1.0) {
        QJO_RETURN_IF_ERROR(
            sub.subquery.AddPredicate(0, i + offset, ClampSelectivity(sel)));
      }
    }
    for (int j = i + 1; j < window.length; ++j) {
      const int global_j = sub.relations[j];
      const double sel = query.SelectivityBetween(uint64_t{1} << global_i,
                                                  global_j);
      if (sel < 1.0) {
        QJO_RETURN_IF_ERROR(sub.subquery.AddPredicate(
            i + offset, j + offset, ClampSelectivity(sel)));
      }
    }
  }
  return sub;
}

StatusOr<DecompReport> OptimizeJoinOrderDecomposed(const Query& query,
                                                   const DecompOptions& options,
                                                   const RunContext& run,
                                                   Rng& rng) {
  const int t = query.num_relations();
  if (t < 2) return Status::InvalidArgument("need at least 2 relations");
  if (t > 63) {
    return Status::ResourceExhausted(
        "decomposition cost model indexes relations through uint64_t masks "
        "(at most 63 relations)");
  }
  QJO_RETURN_IF_ERROR(ValidateRunContext(run));
  if (options.max_rounds <= 0 && run.deadline_ms <= 0.0) {
    return Status::InvalidArgument(
        "unbounded decomposition: need max_rounds or a deadline");
  }
  if (options.subsolver_reads <= 0 || options.subsolver_sweeps <= 0) {
    return Status::InvalidArgument("sub-solver budgets must be positive");
  }

  const Clock::time_point start = Clock::now();
  DecompReport report;

  // Seed incumbent: the greedy plan. Improvement-only acceptance makes
  // `cost <= greedy_cost` an invariant, not a hope.
  QJO_ASSIGN_OR_RETURN(JoResult seed, OptimizeGreedy(query));
  std::vector<int> incumbent = seed.order.order();
  double incumbent_cost = seed.cost;
  report.greedy_cost = seed.cost;

  const int window = std::min(std::max(options.window, 2), t);

  JoEncodingOptions encode_options;
  encode_options.num_thresholds = options.num_thresholds;
  encode_options.omega = options.omega;

  std::optional<QuboBuildCache> local_cache;
  QuboBuildCache* cache = options.cache;
  if (cache == nullptr) {
    // Window shapes repeat across rounds; a private per-call cache still
    // removes most rebuilds when no shared one is attached.
    local_cache.emplace(256);
    cache = &*local_cache;
  }

  ThreadPool* const pool = run.pool;  // null = serial

  // Workers consult this concurrently, so the deadline verdict lives in
  // an atomic and is folded into the report once the fan-outs are done.
  std::atomic<bool> deadline_hit{false};
  const auto expired = [&] {
    if (run.stop != nullptr && run.stop->load(std::memory_order_relaxed)) {
      return true;
    }
    if (run.deadline_ms > 0.0 && MsSince(start) >= run.deadline_ms) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  const int max_rounds = options.max_rounds > 0
                             ? options.max_rounds
                             : std::numeric_limits<int>::max();
  int stalled = 0;
  for (int round = 0; round < max_rounds; ++round) {
    if (expired()) break;
    if (options.stall_rounds > 0 && stalled >= options.stall_rounds) break;

    // --- Partition. Phase alternation makes consecutive rounds overlap:
    // positions split by this round's cuts share a window in the next.
    std::vector<DecompWindow> windows;
    {
      StageSpan span(run.trace, "decomp.partition");
      windows = PartitionWindows(t, window, (round % 2) * (window / 2));
      // Worst window first: rank by the window's share of the incumbent
      // cost (the intermediate results produced at its positions), ties
      // by start for determinism.
      const CostBreakdown breakdown =
          EvaluateCost(query, LeftDeepOrder(incumbent));
      std::vector<std::pair<double, size_t>> ranked(windows.size());
      for (size_t w = 0; w < windows.size(); ++w) {
        double contribution = 0.0;
        for (int p = std::max(windows[w].start, 1);
             p < windows[w].start + windows[w].length; ++p) {
          contribution += breakdown.intermediate_cardinalities[p - 1];
        }
        ranked[w] = {contribution, w};
      }
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) {
                         return a.first > b.first;
                       });
      std::vector<DecompWindow> sorted;
      sorted.reserve(windows.size());
      for (const auto& [contribution, w] : ranked) sorted.push_back(windows[w]);
      windows = std::move(sorted);
    }
    if (windows.empty()) break;

    // --- Sub-solve every window of the round in parallel. Each window
    // forks its own RNG stream and writes its own proposal slot; the
    // incumbent is frozen for the whole fan-out, so results are
    // bit-identical at any pool size.
    const Rng round_rng = rng.Fork(static_cast<uint64_t>(round));
    std::vector<WindowProposal> proposals(windows.size());
    ParallelFor(pool, 0, static_cast<int64_t>(windows.size()), [&](int64_t w) {
      if (expired()) return;
      const std::string span_name = "decomp.subsolve." + std::to_string(w);
      StageSpan span(run.trace, span_name.c_str());
      WindowProposal& proposal = proposals[w];
      Rng window_rng = round_rng.Fork(static_cast<uint64_t>(w));

      auto sub = BuildWindowSubproblem(query, incumbent, windows[w]);
      if (!sub.ok()) return;

      // Encode through the shared build cache: the LNS loop re-solves
      // recurring window shapes, so most rounds hit instead of rebuild.
      std::vector<QuboSolution> solutions;
      auto encoded = cache->GetOrBuild(sub->subquery, encode_options);
      if (encoded.ok()) {
        const Qubo& qubo = (*encoded)->encoding.qubo;
        SolverControl control;  // no pool: the fan-out above owns threads
        control.stop = run.stop;
        control.trace = run.trace;
        control.metrics = run.metrics;
        switch (PickSubSolver(round, static_cast<int>(w))) {
          case SubSolver::kSa: {
            SaOptions sa;
            sa.num_reads = options.subsolver_reads;
            sa.sweeps_per_read = options.subsolver_sweeps;
            sa.control = control;
            solutions = SolveQuboSimulatedAnnealing(qubo, sa, window_rng);
            break;
          }
          case SubSolver::kTabu: {
            TabuOptions tabu;
            tabu.num_restarts = options.subsolver_reads;
            tabu.iterations_per_restart = options.subsolver_sweeps;
            tabu.control = control;
            solutions = SolveQuboTabuSearch(qubo, tabu, window_rng);
            break;
          }
          case SubSolver::kSqa: {
            const IsingModel ising = QuboToIsing(qubo);
            SqaOptions sqa;
            sqa.num_reads = options.subsolver_reads;
            sqa.annealing_time_us = options.subsolver_sweeps;
            sqa.sweeps_per_us = 1.0;
            sqa.control = control;
            auto samples = RunSqa(ising, sqa, window_rng);
            if (samples.ok()) {
              for (const SqaSample& sample : *samples) {
                solutions.push_back(
                    QuboSolution{SpinsToBits(sample.spins), sample.energy});
              }
            }
            break;
          }
        }
      }

      // Stitch preparation: decode every read, project out the prefix,
      // and keep the relative order whose candidate scores best against
      // the frozen incumbent.
      double best_cost = std::numeric_limits<double>::infinity();
      for (const QuboSolution& solution : solutions) {
        auto decoded = DecodeSample((*encoded)->milp, solution.assignment);
        if (!decoded.ok()) continue;
        std::vector<int> relative = ProjectSubOrder(*sub, *decoded);
        const double cost = Cost(
            query, LeftDeepOrder(ApplyProposal(incumbent, windows[w],
                                               relative)));
        if (cost < best_cost) {
          best_cost = cost;
          proposal.relative_order = std::move(relative);
        }
      }
      if (proposal.relative_order.empty()) {
        // Nothing decoded: classical repair. The subquery has at most
        // window + 1 relations, far under the DP cap, so this is exact.
        auto repaired = OptimizeDp(sub->subquery);
        if (repaired.ok()) {
          proposal.relative_order = ProjectSubOrder(*sub, repaired->order);
          proposal.repaired = true;
        }
      }
      proposal.solved = true;
    });

    // --- Stitch: fold proposals into the incumbent in fixed (worst-
    // first) order, re-evaluating each against the evolving incumbent;
    // only global improvements are accepted.
    int round_improvements = 0;
    {
      StageSpan span(run.trace, "decomp.stitch");
      for (size_t w = 0; w < windows.size(); ++w) {
        const WindowProposal& proposal = proposals[w];
        if (!proposal.solved) continue;
        ++report.windows_solved;
        if (proposal.repaired) ++report.repairs;
        if (proposal.relative_order.empty()) continue;
        std::vector<int> candidate =
            ApplyProposal(incumbent, windows[w], proposal.relative_order);
        const double cost = Cost(query, LeftDeepOrder(candidate));
        if (cost < incumbent_cost) {
          incumbent = std::move(candidate);
          incumbent_cost = cost;
          ++round_improvements;
        }
      }
    }
    report.improvements += round_improvements;
    stalled = round_improvements > 0 ? 0 : stalled + 1;
    ++report.rounds;
  }

  if (run.metrics != nullptr) {
    run.metrics->Count("decomp.rounds", static_cast<uint64_t>(report.rounds));
    run.metrics->Count("decomp.windows_solved",
                       static_cast<uint64_t>(report.windows_solved));
    run.metrics->Count("decomp.improvements",
                       static_cast<uint64_t>(report.improvements));
    run.metrics->Count("decomp.repairs",
                       static_cast<uint64_t>(report.repairs));
  }

  report.deadline_expired = deadline_hit.load(std::memory_order_relaxed);
  report.order = LeftDeepOrder(std::move(incumbent));
  report.cost = incumbent_cost;
  report.elapsed_ms = MsSince(start);
  return report;
}

}  // namespace qjo
