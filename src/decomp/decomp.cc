#include "decomp/decomp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "core/postprocess.h"
#include "core/qubo_cache.h"
#include "jo/classical.h"
#include "qubo/solvers.h"
#include "sim/anneal_round.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

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

/// Window encodings keep one threshold at omega 1: the acceptance test
/// uses the exact C_out cost anyway, so the encoding granularity only
/// shapes proposals, and one threshold keeps sub-QUBOs lean.
constexpr int kWindowThresholds = 1;
constexpr double kWindowOmega = 1.0;

/// Sub-solver rotation: each (round, window) slot runs one of the three
/// stochastic kernels, so the strand inherits the portfolio's solver
/// diversity without racing all of them per window.
AnnealKind PickSubSolver(int round, int window_index) {
  constexpr AnnealKind kRotation[] = {AnnealKind::kSa, AnnealKind::kTabu,
                                      AnnealKind::kSqa};
  return kRotation[(round + window_index) % 3];
}

/// A window proposal: the window's relations (global ids) in their
/// proposed relative order. Empty = window was skipped (stop or an
/// unexpected failure); the stitch step then leaves it unchanged.
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

StatusOr<DecompReport> OptimizeJoinOrderDecomposed(
    const Query& query, const DecompOptions& options, const RunContext& run,
    Rng& rng, double target_cost) {
  const int t = query.num_relations();
  if (t < 2) return Status::InvalidArgument("need at least 2 relations");
  if (t > 63) {
    return Status::ResourceExhausted(
        "decomposition cost model indexes relations through uint64_t masks "
        "(at most 63 relations)");
  }
  QJO_RETURN_IF_ERROR(ValidateRunContext(run));
  if (options.max_rounds <= 0) {
    return Status::InvalidArgument("decomposition needs max_rounds > 0");
  }
  if (options.subsolver_reads <= 0 || options.subsolver_sweeps <= 0) {
    return Status::InvalidArgument("sub-solver budgets must be positive");
  }

  DecompReport report;

  // Seed incumbent: the greedy plan. Improvement-only acceptance makes
  // `cost <= greedy_cost` an invariant, not a hope.
  QJO_ASSIGN_OR_RETURN(JoResult seed, OptimizeGreedy(query));
  std::vector<int> incumbent = seed.order.order();
  double incumbent_cost = seed.cost;
  report.greedy_cost = seed.cost;

  const int window = std::min(std::max(options.window, 2), t);

  JoEncodingOptions encode_options;
  encode_options.num_thresholds = kWindowThresholds;
  encode_options.omega = kWindowOmega;

  std::optional<QuboBuildCache> local_cache;
  QuboBuildCache* cache = run.build_cache;
  if (cache == nullptr) {
    // Window shapes repeat across rounds; a private per-call cache still
    // removes most rebuilds when no shared one is attached.
    local_cache.emplace(256);
    cache = &*local_cache;
  }

  ThreadPool* const pool = run.pool;  // null = serial
  // The window sub-solves run serially: the window fan-out owns the pool.
  RunContext solve_run = run;
  solve_run.pool = nullptr;

  int stalled = 0;
  for (int round = 0; round < options.max_rounds; ++round) {
    if (run.stop.stop_requested()) break;
    if (options.stall_rounds > 0 && stalled >= options.stall_rounds) break;
    if (ReachesCost(incumbent_cost, target_cost)) break;

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
      if (run.stop.stop_requested()) return;
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
        solutions = SolveAnnealRound(
            PickSubSolver(round, static_cast<int>(w)),
            (*encoded)->encoding.qubo, /*ising=*/nullptr,
            options.subsolver_reads, options.subsolver_sweeps, solve_run,
            window_rng);
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

  report.order = LeftDeepOrder(std::move(incumbent));
  report.cost = incumbent_cost;
  return report;
}

}  // namespace qjo
