// Exact percentiles and the per-answer checks.
#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "bench.h"
#include "core/qubo_cache.h"
#include "jo/classical.h"
#include "jo/join_tree.h"

namespace servebench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

Tail TailOf(std::vector<double> values, double max_percentile) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  Tail tail;
  tail.samples = values.size();
  for (double p : kLadder) {
    if (p * 100.0 > max_percentile) continue;
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    if (values.size() >= rank + 10 || p == 0.5) {
      tail.percentile = p * 100.0;
      tail.value = Percentile(std::move(values), p);
      return tail;
    }
  }
  return tail;
}

const References::Entry& References::Get(const qjo::Query& query) {
  const std::string key =
      qjo::JoEncodingFingerprint(query, qjo::JoEncodingOptions{});
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  Entry entry;
  auto plan = query.num_relations() <= qjo::kMaxDpRelations
                  ? qjo::OptimizeDp(query)
                  : qjo::OptimizeGreedy(query);
  if (plan.ok()) {
    entry.cost = qjo::Cost(query, plan->order);
    entry.exact = query.num_relations() <= qjo::kMaxDpRelations;
  }
  return entries_.emplace(key, entry).first->second;
}

CheckSummary CheckAnswers(const std::vector<Sample>& samples,
                          uint64_t plan_sample, References& references) {
  CheckSummary summary;
  double log_ratio_sum = 0.0;
  std::unordered_set<std::string> scored_keys;
  auto mismatch = [&](const Sample& s, const std::string& what) {
    ++summary.mismatches;
    if (summary.errors.size() < 5) {
      summary.errors.push_back("request " + std::to_string(s.index) + ": " +
                               what);
    }
  };
  for (const Sample& s : samples) {
    ++summary.attempted;
    if (s.refused || !s.result.status.ok()) {
      ++summary.failed;
      if (summary.failures.size() < 5) {
        summary.failures.push_back(
            "request " + std::to_string(s.index) + " failed: " +
            (s.refused ? "refused" : s.result.status.ToString()));
      }
      continue;
    }
    // A sampling backend may return no valid join order (the paper's
    // invalid-sample problem): an answer, but one without a plan.
    if (!s.result.report.found_valid) {
      ++summary.no_plan;
      continue;
    }
    if (s.result.degraded) ++summary.degraded;
    const qjo::Query& query = s.request.query;
    const qjo::QjoReport& report = s.result.report;
    if (!qjo::LeftDeepOrder::Create(report.best_order.order(), query).ok()) {
      mismatch(s, "order is not a permutation of the query's relations");
      continue;
    }
    ++summary.answered;
    const double cost = qjo::Cost(query, report.best_order);
    if (std::abs(cost - report.best_cost) >
        1e-9 * std::max(std::abs(cost), 1.0)) {
      std::ostringstream os;
      os.precision(17);
      os << "C_out " << cost << " != reported best_cost " << report.best_cost;
      mismatch(s, os.str());
    }
    const References::Entry& ref = references.Get(query);
    if (ref.exact && cost < ref.cost * (1.0 - 1e-9)) {
      mismatch(s, "plan cheaper than the DP optimum");
    }
    // Each plan key is scored once: repeats of a key (cache hits and
    // coalesced copies) return the same plan, and weighting by traffic
    // would let a Zipf workload's few hottest templates decide the ratio.
    if ((plan_sample == 0 || s.index < plan_sample) && ref.cost > 0.0 &&
        cost > 0.0 &&
        scored_keys
            .insert(qjo::OptimizerService::PlanKey(query, s.request.config))
            .second) {
      log_ratio_sum += std::log(cost / ref.cost);
      ++summary.plan_scored;
    }
  }
  if (summary.plan_scored > 0) {
    summary.plan_cost_ratio =
        std::exp(log_ratio_sum / static_cast<double>(summary.plan_scored));
  }
  return summary;
}

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

std::string ReportDiff(const qjo::QjoReport& a, const qjo::QjoReport& b) {
#define QJO_BENCH_SAME(field)          \
  if (!(a.field == b.field)) return #field
#define QJO_BENCH_SAME_BITS(field)     \
  if (!SameBits(a.field, b.field)) return #field
  QJO_BENCH_SAME(found_valid);
  QJO_BENCH_SAME(best_order);
  QJO_BENCH_SAME_BITS(best_cost);
  QJO_BENCH_SAME(optimal_order);
  QJO_BENCH_SAME_BITS(optimal_cost);
  QJO_BENCH_SAME(stats.total);
  QJO_BENCH_SAME(stats.valid);
  QJO_BENCH_SAME(stats.optimal);
  QJO_BENCH_SAME(stats.bilp_feasible);
  QJO_BENCH_SAME_BITS(stats.best_cost);
  QJO_BENCH_SAME(encoding.bilp_variables);
  QJO_BENCH_SAME(encoding.qubo_quadratic_terms);
  QJO_BENCH_SAME(gate.circuit_depth);
  QJO_BENCH_SAME(gate.two_qubit_gates);
  QJO_BENCH_SAME_BITS(gate.fidelity);
  QJO_BENCH_SAME_BITS(gate.gamma);
  QJO_BENCH_SAME_BITS(gate.beta);
  QJO_BENCH_SAME(anneal.physical_qubits);
  QJO_BENCH_SAME(anneal.max_chain_length);
  QJO_BENCH_SAME_BITS(anneal.chain_strength);
  QJO_BENCH_SAME_BITS(anneal.mean_chain_break_fraction);
  QJO_BENCH_SAME(portfolio.winner);
  QJO_BENCH_SAME(portfolio.used_classical_fallback);
  QJO_BENCH_SAME(portfolio.race.best_assignment);
  QJO_BENCH_SAME_BITS(portfolio.race.best_energy);
  QJO_BENCH_SAME(portfolio.race.strands.size());
#undef QJO_BENCH_SAME
#undef QJO_BENCH_SAME_BITS
  for (size_t i = 0; i < a.portfolio.race.strands.size(); ++i) {
    const qjo::StrandOutcome& x = a.portfolio.race.strands[i];
    const qjo::StrandOutcome& y = b.portfolio.race.strands[i];
    if (x.rounds_completed != y.rounds_completed ||
        x.sweeps_completed != y.sweeps_completed ||
        x.sweeps_to_incumbent != y.sweeps_to_incumbent ||
        !SameBits(x.best_energy, y.best_energy) || x.won != y.won) {
      return "portfolio.race.strands[" + x.name + "]";
    }
  }
  return "";
}

}  // namespace servebench
