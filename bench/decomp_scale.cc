// Decomposition scaling benchmark: the qbsolv-style LNS strand on the
// query sizes where every monolithic backend stops returning valid join
// trees (Sec. 6's scalability wall). For 20/30/40/50-relation chain,
// star and cycle queries the bench runs the decomposition loop under a
// 2-second deadline and reports, per case, whether a valid join tree came
// back, its cost relative to the greedy baseline (<= 1 by construction),
// and the loop counters. The headline aggregate is valid_tree_rate: it
// must be 1.0 — decomposition never fails to produce a plan.
//
// Writes BENCH_decomp.json (override with QJO_BENCH_DECOMP_JSON).
// QJO_DECOMP_BENCH_FAST=1 shrinks the suite to the 30-relation cases for
// the ctest smoke entry, which fails (exit 1) when a case yields no valid
// tree within the deadline or costs more than greedy.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "decomp/decomp.h"
#include "jo/classical.h"
#include "jo/join_tree.h"
#include "jo/query_generator.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

using bench::Metric;

int RunSuite() {
  const bool fast = std::getenv("QJO_DECOMP_BENCH_FAST") != nullptr;
  const int parallelism = bench::Parallelism();
  const double deadline_ms = 2000.0;

  bench::Banner("decomp_scale",
                "qbsolv-style decomposition on 20-50 relation queries");
  bench::PaperNote(
      "the co-design question past Table 3: monolithic QUBOs stop decoding "
      "long before 20 relations; decomposition is the hybrid path that "
      "still answers at 50");

  const std::vector<int> sizes = fast ? std::vector<int>{30}
                                      : std::vector<int>{20, 30, 40, 50};
  const QueryGraphType graphs[] = {QueryGraphType::kChain,
                                   QueryGraphType::kStar,
                                   QueryGraphType::kCycle};

  ThreadPool pool(parallelism);
  std::vector<Metric> metrics;
  metrics.push_back(
      {"simd_isa", static_cast<double>(static_cast<int>(Simd().isa))});
  metrics.push_back({"deadline_ms", deadline_ms});
  metrics.push_back({"parallelism", static_cast<double>(parallelism)});
  metrics.push_back({"fast_mode", fast ? 1.0 : 0.0});

  int cases = 0;
  int valid_cases = 0;
  bool all_within_deadline_and_greedy = true;
  for (int t : sizes) {
    for (QueryGraphType graph : graphs) {
      const std::string prefix =
          std::string(QueryGraphTypeName(graph)) + std::to_string(t) + "_";
      Rng gen_rng(1000 + 10 * t + static_cast<int>(graph));
      QueryGenOptions gen;
      gen.num_relations = t;
      gen.graph_type = graph;
      gen.min_log_card = 2.0;
      gen.max_log_card = 4.0;
      auto query = GenerateQuery(gen, gen_rng);
      if (!query.ok()) {
        std::cerr << "query generation failed: "
                  << query.status().ToString() << "\n";
        return 1;
      }
      const auto greedy = OptimizeGreedy(*query);
      if (!greedy.ok()) return 1;

      QuboBuildCache cache(256);
      DecompOptions options;
      options.cache = &cache;
      RunContext run;
      run.deadline_ms = deadline_ms;
      run.pool = &pool;
      bench::ObsSession::Get().Apply(run);
      Rng rng(7);
      const auto t0 = std::chrono::steady_clock::now();
      auto report = OptimizeJoinOrderDecomposed(*query, options, run, rng);
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();

      ++cases;
      bool valid = false;
      double cost_over_greedy = 0.0;
      if (report.ok()) {
        valid = LeftDeepOrder::Create(report->order.order(), *query).ok();
        cost_over_greedy = report->cost / greedy->cost;
        metrics.push_back(
            {prefix + "rounds", static_cast<double>(report->rounds)});
        metrics.push_back({prefix + "improvements",
                           static_cast<double>(report->improvements)});
        metrics.push_back(
            {prefix + "repairs", static_cast<double>(report->repairs)});
      }
      if (valid) ++valid_cases;
      // The deadline check is cooperative (between window solves), so a
      // run can overshoot by one sub-solve; 1.5x is generous slack.
      const bool ok_case = valid && cost_over_greedy <= 1.0 + 1e-9 &&
                           elapsed_ms <= deadline_ms * 1.5;
      all_within_deadline_and_greedy &= ok_case;
      metrics.push_back({prefix + "valid", valid ? 1.0 : 0.0});
      metrics.push_back({prefix + "elapsed_ms", elapsed_ms});
      metrics.push_back({prefix + "cost_over_greedy", cost_over_greedy});
      std::cout << QueryGraphTypeName(graph) << " t=" << t << ": "
                << (valid ? "valid tree" : "NO VALID TREE") << ", "
                << elapsed_ms << " ms, cost/greedy " << cost_over_greedy
                << (ok_case ? "" : "  [FAIL]") << "\n";
    }
  }
  const double valid_rate =
      cases > 0 ? static_cast<double>(valid_cases) / cases : 0.0;
  metrics.push_back({"cases", static_cast<double>(cases)});
  metrics.push_back({"valid_tree_rate", valid_rate});
  std::cout << "valid-tree rate: " << valid_rate << " (" << valid_cases
            << "/" << cases << ")\n";

  const char* json_path = std::getenv("QJO_BENCH_DECOMP_JSON");
  const std::string path =
      json_path != nullptr ? json_path : "BENCH_decomp.json";
  bench::WriteJson(path, metrics);

  return all_within_deadline_and_greedy ? 0 : 1;
}

}  // namespace
}  // namespace qjo

int main() { return qjo::RunSuite(); }
