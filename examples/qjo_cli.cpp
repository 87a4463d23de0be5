// Command-line driver for the full pipeline: generate (or describe) a
// query, pick a backend, and print the end-to-end report.
//
// Usage:
//   qjo_cli [--relations N] [--graph chain|star|cycle|clique]
//           [--predicates P] [--backend exact|sa|qaoa|annealer|portfolio]
//           [--portfolio] [--decomp] [--decomp-window W]
//           [--deadline-ms D] [--sweep-budget B]
//           [--thresholds R] [--omega W] [--shots S] [--seed X]
//           [--parallelism T]
//           [--noiseless] [--verbose]
//           [--trace-out FILE] [--metrics-out FILE]
//           [--serve] [--serve-requests R] [--serve-tenants T]
//           [--serve-workers W] [--serve-queue-cap Q]
//           [--serve-tenant-quota Q] [--serve-deadline-ms D]
//           [--serve-duplicate-rate F] [--serve-tenant-rate R]
//           [--serve-tenant-burst B]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"

#include "core/quantum_optimizer.h"
#include "jo/classical.h"
#include "jo/query_generator.h"
#include "serve/optimizer_service.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

struct CliArgs {
  int relations = 3;
  QueryGraphType graph = QueryGraphType::kChain;
  int predicates = -1;  // -1: use the graph type's natural edge set
  QjoBackend backend = QjoBackend::kExact;
  int thresholds = 2;
  double omega = 1.0;
  int shots = 1024;
  uint64_t seed = 42;
  int parallelism = 1;
  bool noiseless = false;
  bool verbose = false;
  double deadline_ms = -1.0;  // <0: portfolio runs on its sweep budget
  int64_t sweep_budget = 4096;
  bool decomp = false;    // force the decomposition strand on, any size
  int decomp_window = 0;  // 0 = DecompOptions default
  std::string trace_out;    // empty = no trace recording
  std::string metrics_out;  // empty = no metrics recording

  // --serve mode: drive a batch of requests through OptimizerService.
  bool serve = false;
  int serve_requests = 32;
  int serve_tenants = 4;
  int serve_workers = 2;
  size_t serve_queue_cap = 256;
  size_t serve_tenant_quota = 0;  // 0 = unlimited
  double serve_deadline_ms = -1.0;
  double serve_duplicate_rate = 0.0;  // chance a submit repeats the previous
  double serve_tenant_rate = 0.0;     // token-bucket admissions/sec (0 = off)
  double serve_tenant_burst = 0.0;    // bucket capacity (0 = max(1, rate))
};

int Fail(const char* message) {
  std::fprintf(stderr, "error: %s (try --help)\n", message);
  return 2;
}

void PrintHelp() {
  std::printf(
      "qjo_cli — quantum join ordering pipeline\n\n"
      "  --relations N     number of relations (default 3)\n"
      "  --graph TYPE      chain|star|cycle|clique (default chain)\n"
      "  --predicates P    override predicate count (chain-first order)\n"
      "  --backend B       exact|sa|qaoa|annealer|portfolio (default exact)\n"
      "  --portfolio       shorthand for --backend portfolio\n"
      "  --decomp          portfolio with the qbsolv-style decomposition\n"
      "                    strand forced on (any query size). This is the\n"
      "                    path that still solves 30-50 relation queries\n"
      "  --decomp-window W relations per decomposition window (default 9)\n"
      "  --deadline-ms D   portfolio wall-clock budget; 0 = skip the race\n"
      "                    and answer with the classical fallback plan\n"
      "                    (default: none — bounded by --sweep-budget)\n"
      "  --sweep-budget B  portfolio per-strand sweep budget (default 4096;\n"
      "                    0 = unlimited, needs --deadline-ms)\n"
      "  --thresholds R    cardinality thresholds (default 2)\n"
      "  --omega W         discretisation precision (default 1.0)\n"
      "  --shots S         samples/reads for stochastic backends\n"
      "  --seed X          RNG seed (default 42)\n"
      "  --parallelism T   size of the one thread pool every backend's\n"
      "                    read loops, amplitude loops and portfolio\n"
      "                    strands run on (default 1 = serial; results\n"
      "                    are identical for any T)\n"
      "  --noiseless       disable the QAOA noise model\n"
      "  --verbose         print the query and classical baselines\n"
      "  --trace-out FILE  write a Chrome trace-event JSON of every\n"
      "                    pipeline stage (open via chrome://tracing or\n"
      "                    https://ui.perfetto.dev)\n"
      "  --metrics-out FILE  write the merged solver/pipeline metrics as\n"
      "                    flat JSON\n"
      "  --serve           serving-layer demo: submit a stream of requests\n"
      "                    through the multi-tenant OptimizerService (with\n"
      "                    admission control + plan cache) and print the\n"
      "                    per-request outcomes and service stats. The\n"
      "                    backend/query flags above shape each request\n"
      "  --serve-requests R  requests to submit (default 32; repeats of a\n"
      "                    small query set, so the plan cache gets hits)\n"
      "  --serve-tenants T   distinct tenants round-robined (default 4)\n"
      "  --serve-workers W   service dispatcher workers (default 2)\n"
      "  --serve-queue-cap Q admission queue capacity (default 256)\n"
      "  --serve-tenant-quota Q  per-tenant in-flight cap (default 0 = off)\n"
      "  --serve-deadline-ms D   per-request deadline incl. queue wait\n"
      "                    (default: none)\n"
      "  --serve-duplicate-rate F  probability in [0,1] that a submit\n"
      "                    repeats the previous request back-to-back —\n"
      "                    duplicates coalesce onto the in-flight solve\n"
      "                    (default 0)\n"
      "  --serve-tenant-rate R   per-tenant token-bucket rate limit in\n"
      "                    admissions/sec (default 0 = off)\n"
      "  --serve-tenant-burst B  token-bucket capacity (default: max(1, R))\n");
}

int RunServe(const CliArgs& args) {
  // One distinct query per tenant; every tenant re-submits its own query,
  // so the stream exercises both cache misses (first touch) and hits.
  Rng rng(args.seed);
  QueryGenOptions gen;
  gen.num_relations = args.relations;
  gen.graph_type = args.graph;
  gen.min_log_card = 2.0;
  gen.max_log_card = 4.0;
  const int tenants = std::max(1, args.serve_tenants);
  std::vector<Query> queries;
  queries.reserve(tenants);
  for (int t = 0; t < tenants; ++t) {
    auto query = GenerateQuery(gen, rng);
    if (!query.ok()) {
      std::fprintf(stderr, "query generation failed: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    queries.push_back(*std::move(query));
  }

  QjoConfig config;
  config.backend = args.backend;
  config.num_thresholds = args.thresholds;
  config.omega = args.omega;
  config.shots = args.shots;
  config.sqa.num_reads = args.shots;
  config.noiseless = args.noiseless;
  config.seed = args.seed;
  config.run.deadline_ms = args.deadline_ms;
  config.portfolio.sweep_budget = args.sweep_budget;

  std::optional<TraceRecorder> trace;
  std::optional<MetricsRegistry> metrics;

  ThreadPool pool(args.parallelism);
  ServeOptions options;
  options.workers = args.serve_workers;
  options.queue_capacity = args.serve_queue_cap;
  options.per_tenant_inflight = args.serve_tenant_quota;
  options.default_deadline_ms = args.serve_deadline_ms;
  options.tenant_rate_per_sec = args.serve_tenant_rate;
  options.tenant_burst = args.serve_tenant_burst;
  options.pool = &pool;
  if (!args.trace_out.empty()) options.trace = &trace.emplace();
  if (!args.metrics_out.empty()) options.metrics = &metrics.emplace();

  OptimizerService service(options);
  struct Outcome {
    int index;
    std::string tenant;
    std::future<ServeResult> future;
  };
  std::vector<Outcome> admitted;
  int rejected = 0;
  Rng dup_rng(args.seed + 1);
  int last_t = 0;
  for (int i = 0; i < args.serve_requests; ++i) {
    // A duplicate re-submits the previous (tenant, query) back-to-back
    // while the original is still in flight, so it coalesces instead of
    // costing a second solve.
    const bool duplicate = i > 0 && args.serve_duplicate_rate > 0.0 &&
                           dup_rng.Bernoulli(args.serve_duplicate_rate);
    const int t = duplicate ? last_t : i % tenants;
    last_t = t;
    ServeRequest request;
    request.query = queries[t];
    request.config = config;
    request.tenant = "tenant-" + std::to_string(t);
    double retry_after = 0.0;
    auto future = service.Submit(std::move(request), &retry_after);
    if (!future.ok()) {
      ++rejected;
      if (args.verbose) {
        std::printf("request %3d rejected: %s\n", i,
                    future.status().ToString().c_str());
      }
      continue;
    }
    admitted.push_back(
        {i, "tenant-" + std::to_string(t), std::move(future).value()});
  }

  int ok = 0, failed = 0, hits = 0, degraded = 0, coalesced = 0;
  for (auto& outcome : admitted) {
    ServeResult result = outcome.future.get();
    if (result.status.ok()) {
      ++ok;
    } else {
      ++failed;
    }
    if (result.cache_hit) ++hits;
    if (result.degraded) ++degraded;
    if (result.coalesced) ++coalesced;
    if (args.verbose) {
      std::printf("request %3d %-9s %s queue %.2f ms, solve %.2f ms%s%s%s\n",
                  outcome.index, outcome.tenant.c_str(),
                  result.status.ok() ? "ok    " : "FAILED", result.queue_ms,
                  result.solve_ms, result.cache_hit ? ", cache hit" : "",
                  result.coalesced ? ", coalesced" : "",
                  result.degraded ? ", degraded" : "");
      if (!result.status.ok()) {
        std::printf("            %s\n", result.status.ToString().c_str());
      }
    }
  }
  service.Drain();

  const auto stats = service.stats();
  std::printf(
      "serve: %llu submitted, %d admitted, %d rejected "
      "(%llu queue-full, %llu tenant-quota, %llu rate-limited)\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<int>(admitted.size()), rejected,
      static_cast<unsigned long long>(stats.rejected_queue_full),
      static_cast<unsigned long long>(stats.rejected_tenant_quota),
      static_cast<unsigned long long>(stats.rejected_rate_limited));
  std::printf(
      "serve: %d ok, %d failed, %d cache hits, %d coalesced, %d degraded "
      "(%llu solves for %llu completions)\n",
      ok, failed, hits, coalesced, degraded,
      static_cast<unsigned long long>(stats.solves),
      static_cast<unsigned long long>(stats.completed));
  const auto cache = service.plan_cache()->stats();
  std::printf(
      "plan cache: %llu hits / %llu misses (%.0f%% hit rate), "
      "%llu evictions, %llu ttl expirations\n",
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      100.0 * cache.hit_rate(),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(cache.ttl_expirations));
  if (trace.has_value() && trace->WriteChromeTraceFile(args.trace_out)) {
    std::printf("trace written to %s\n", args.trace_out.c_str());
  }
  if (metrics.has_value() && metrics->WriteJsonFile(args.metrics_out)) {
    std::printf("metrics written to %s\n", args.metrics_out.c_str());
  }
  return failed == 0 ? 0 : 1;
}

int RunCli(const CliArgs& args) {
  if (args.serve) return RunServe(args);
  Rng rng(args.seed);
  QueryGenOptions gen;
  gen.num_relations = args.relations;
  gen.graph_type = args.graph;
  gen.min_log_card = 2.0;
  gen.max_log_card = 4.0;
  auto query = args.predicates >= 0
                   ? GenerateQueryWithPredicateCount(gen, args.predicates, rng)
                   : GenerateQuery(gen, rng);
  if (!query.ok()) {
    std::fprintf(stderr, "query generation failed: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  if (args.verbose) std::printf("query: %s\n\n", query->ToString().c_str());

  QjoConfig config;
  config.backend = args.backend;
  config.num_thresholds = args.thresholds;
  config.omega = args.omega;
  config.shots = args.shots;
  config.sqa.num_reads = args.shots;
  config.noiseless = args.noiseless;
  config.seed = args.seed;
  config.run.deadline_ms = args.deadline_ms;
  config.portfolio.sweep_budget = args.sweep_budget;
  ThreadPool pool(args.parallelism);
  config.run.pool = &pool;
  if (args.decomp) {
    config.backend = QjoBackend::kPortfolio;
    config.portfolio.min_decomp_relations = 2;
  }
  if (args.decomp_window > 0) {
    config.portfolio.decomp.window = args.decomp_window;
  }

  // Observability sinks: attached only when requested; a run without them
  // takes the null-sink (zero-overhead) path and is bit-identical either
  // way.
  std::optional<TraceRecorder> trace;
  std::optional<MetricsRegistry> metrics;
  if (!args.trace_out.empty()) config.run.trace = &trace.emplace();
  if (!args.metrics_out.empty()) config.run.metrics = &metrics.emplace();

  auto report = OptimizeJoinOrder(*query, config);
  if (!report.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (trace.has_value()) {
    if (!trace->WriteChromeTraceFile(args.trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", args.trace_out.c_str());
  }
  if (metrics.has_value()) {
    if (!metrics->WriteJsonFile(args.metrics_out)) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   args.metrics_out.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", args.metrics_out.c_str());
  }
  std::printf("backend: %s\n%s\n", QjoBackendName(config.backend),
              report->Summary().c_str());
  if (report->found_valid) {
    std::printf("join order: %s\n", report->best_order.ToString(*query).c_str());
  }

  if (args.verbose) {
    auto greedy = OptimizeGreedy(*query);
    Rng ii_rng(args.seed);
    auto ii = OptimizeIterativeImprovement(*query, ii_rng);
    std::printf("\nclassical baselines: reference %.3g", report->optimal_cost);
    if (greedy.ok()) std::printf(", greedy %.3g", greedy->cost);
    if (ii.ok()) std::printf(", iterative-improvement %.3g", ii->cost);
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace qjo

int main(int argc, char** argv) {
  using namespace qjo;
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--help" || flag == "-h") {
      PrintHelp();
      return 0;
    } else if (flag == "--relations") {
      const char* v = next();
      if (!v) return Fail("--relations needs a value");
      args.relations = std::atoi(v);
    } else if (flag == "--graph") {
      const char* v = next();
      if (!v) return Fail("--graph needs a value");
      if (!std::strcmp(v, "chain")) {
        args.graph = QueryGraphType::kChain;
      } else if (!std::strcmp(v, "star")) {
        args.graph = QueryGraphType::kStar;
      } else if (!std::strcmp(v, "cycle")) {
        args.graph = QueryGraphType::kCycle;
      } else if (!std::strcmp(v, "clique")) {
        args.graph = QueryGraphType::kClique;
      } else {
        return Fail("unknown graph type");
      }
    } else if (flag == "--predicates") {
      const char* v = next();
      if (!v) return Fail("--predicates needs a value");
      args.predicates = std::atoi(v);
    } else if (flag == "--backend") {
      const char* v = next();
      if (!v) return Fail("--backend needs a value");
      if (!std::strcmp(v, "exact")) {
        args.backend = QjoBackend::kExact;
      } else if (!std::strcmp(v, "sa")) {
        args.backend = QjoBackend::kSimulatedAnnealing;
      } else if (!std::strcmp(v, "qaoa")) {
        args.backend = QjoBackend::kQaoaSimulator;
      } else if (!std::strcmp(v, "annealer")) {
        args.backend = QjoBackend::kQuantumAnnealerSim;
      } else if (!std::strcmp(v, "portfolio")) {
        args.backend = QjoBackend::kPortfolio;
      } else {
        return Fail("unknown backend");
      }
    } else if (flag == "--portfolio") {
      args.backend = QjoBackend::kPortfolio;
    } else if (flag == "--decomp") {
      args.decomp = true;
    } else if (flag == "--decomp-window") {
      const char* v = next();
      if (!v) return Fail("--decomp-window needs a value");
      args.decomp_window = std::atoi(v);
      if (args.decomp_window < 2) return Fail("--decomp-window must be >= 2");
    } else if (flag == "--deadline-ms") {
      const char* v = next();
      if (!v) return Fail("--deadline-ms needs a value");
      args.deadline_ms = std::atof(v);
    } else if (flag == "--sweep-budget") {
      const char* v = next();
      if (!v) return Fail("--sweep-budget needs a value");
      args.sweep_budget = std::strtoll(v, nullptr, 10);
    } else if (flag == "--thresholds") {
      const char* v = next();
      if (!v) return Fail("--thresholds needs a value");
      args.thresholds = std::atoi(v);
    } else if (flag == "--omega") {
      const char* v = next();
      if (!v) return Fail("--omega needs a value");
      args.omega = std::atof(v);
    } else if (flag == "--shots") {
      const char* v = next();
      if (!v) return Fail("--shots needs a value");
      args.shots = std::atoi(v);
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return Fail("--seed needs a value");
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--parallelism") {
      const char* v = next();
      if (!v) return Fail("--parallelism needs a value");
      args.parallelism = std::atoi(v);
      if (args.parallelism < 1) return Fail("--parallelism must be >= 1");
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (!v) return Fail("--trace-out needs a file path");
      args.trace_out = v;
    } else if (flag == "--metrics-out") {
      const char* v = next();
      if (!v) return Fail("--metrics-out needs a file path");
      args.metrics_out = v;
    } else if (flag == "--serve") {
      args.serve = true;
    } else if (flag == "--serve-requests") {
      const char* v = next();
      if (!v) return Fail("--serve-requests needs a value");
      args.serve_requests = std::atoi(v);
    } else if (flag == "--serve-tenants") {
      const char* v = next();
      if (!v) return Fail("--serve-tenants needs a value");
      args.serve_tenants = std::atoi(v);
    } else if (flag == "--serve-workers") {
      const char* v = next();
      if (!v) return Fail("--serve-workers needs a value");
      args.serve_workers = std::atoi(v);
      if (args.serve_workers < 1) return Fail("--serve-workers must be >= 1");
    } else if (flag == "--serve-queue-cap") {
      const char* v = next();
      if (!v) return Fail("--serve-queue-cap needs a value");
      args.serve_queue_cap = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (flag == "--serve-tenant-quota") {
      const char* v = next();
      if (!v) return Fail("--serve-tenant-quota needs a value");
      args.serve_tenant_quota =
          static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (flag == "--serve-deadline-ms") {
      const char* v = next();
      if (!v) return Fail("--serve-deadline-ms needs a value");
      args.serve_deadline_ms = std::atof(v);
    } else if (flag == "--serve-duplicate-rate") {
      const char* v = next();
      if (!v) return Fail("--serve-duplicate-rate needs a value");
      args.serve_duplicate_rate = std::atof(v);
      if (args.serve_duplicate_rate < 0.0 || args.serve_duplicate_rate > 1.0) {
        return Fail("--serve-duplicate-rate must be in [0, 1]");
      }
    } else if (flag == "--serve-tenant-rate") {
      const char* v = next();
      if (!v) return Fail("--serve-tenant-rate needs a value");
      args.serve_tenant_rate = std::atof(v);
    } else if (flag == "--serve-tenant-burst") {
      const char* v = next();
      if (!v) return Fail("--serve-tenant-burst needs a value");
      args.serve_tenant_burst = std::atof(v);
    } else if (flag == "--noiseless") {
      args.noiseless = true;
    } else if (flag == "--verbose") {
      args.verbose = true;
    } else {
      return Fail("unknown flag");
    }
  }
  return RunCli(args);
}
