// Tests for the observability layer: trace recording, stage timings,
// metrics merge determinism, export schemas, and the two pipeline-level
// contracts — recorded runs are bit-identical to unrecorded ones on
// every backend, and exported portfolio counters mirror the
// PortfolioReport exactly.

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/quantum_optimizer.h"
#include "jo/query.h"
#include "obs/obs.h"
#include "qubo/qubo.h"
#include "qubo/solvers.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

Query MakePaperInstance(int num_predicates) {
  Query q;
  q.AddRelation("R0", 10);
  q.AddRelation("R1", 10);
  q.AddRelation("R2", 10);
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {0, 2}};
  for (int p = 0; p < num_predicates; ++p) {
    EXPECT_TRUE(q.AddPredicate(edges[p].first, edges[p].second, 0.1).ok());
  }
  return q;
}

Query MakeChainQuery(int relations) {
  Query q;
  for (int i = 0; i < relations; ++i) {
    q.AddRelation(std::string("R").append(std::to_string(i)), 100.0 * (i + 1));
  }
  for (int i = 0; i + 1 < relations; ++i) {
    EXPECT_TRUE(q.AddPredicate(i, i + 1, 0.1).ok());
  }
  return q;
}

Qubo MakeRandomQubo(int n, uint64_t seed) {
  Rng rng(seed);
  Qubo q(n);
  for (int i = 0; i < n; ++i) {
    q.AddLinear(i, rng.UniformDouble(-2, 2));
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.3)) q.AddQuadratic(i, j, rng.UniformDouble(-2, 2));
    }
  }
  return q;
}

// --- TraceRecorder / StageSpan. ---

TEST(TraceRecorderTest, RecordsNestedSpansSortedByStart) {
  TraceRecorder recorder;
  {
    StageSpan outer(&recorder, "outer");
    StageSpan inner(&recorder, "inner");
  }
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start: outer opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  // The outer span closes last, so it covers the inner one.
  EXPECT_GE(events[0].start_ns + events[0].duration_ns,
            events[1].start_ns + events[1].duration_ns);
}

TEST(TraceRecorderTest, NullSinksRecordNothing) {
  { StageSpan span(nullptr, "noop"); }  // must not crash
  TraceRecorder recorder;
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(TraceRecorderTest, MergesShardsFromManyThreads) {
  TraceRecorder recorder;
  ThreadPool pool(4);
  ParallelFor(&pool, 0, 64, [&](int64_t) {
    StageSpan span(&recorder, "work");
  });
  const std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (const TraceEvent& e : events) EXPECT_EQ(e.name, "work");
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const TraceEvent& a, const TraceEvent& b) {
        return a.start_ns < b.start_ns;
      }));
}

TEST(TraceRecorderTest, ChromeTraceJsonSchema) {
  TraceRecorder recorder;
  {
    StageSpan span(&recorder, "stage \"a\"");  // exercises escaping
  }
  std::ostringstream os;
  recorder.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [",
                       0),
            0u)
      << json;
  EXPECT_NE(json.find("\"name\": \"stage \\\"a\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"qjo\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  ASSERT_GE(json.size(), 4u);
  EXPECT_EQ(json.substr(json.size() - 4), "]\n}\n");
}

TEST(StageTimingsTest, SinkAccumulatesRepeatedStages) {
  StageTimings timings;
  { StageSpan span(nullptr, "read", &timings); }
  { StageSpan span(nullptr, "read", &timings); }
  { StageSpan span(nullptr, "solve", &timings); }
  ASSERT_EQ(timings.stages.size(), 3u);
  EXPECT_TRUE(timings.Has("read"));
  EXPECT_TRUE(timings.Has("solve"));
  EXPECT_FALSE(timings.Has("absent"));
  EXPECT_GE(timings.Of("read"), 0.0);
  EXPECT_DOUBLE_EQ(timings.Of("absent"), 0.0);
}

// --- MetricsRegistry. ---

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.Count("alpha", 3);
  registry.Count("alpha", 2);
  registry.Count("beta");
  registry.GaugeMax("depth", 2.0);
  registry.GaugeMax("depth", 4.5);
  registry.GaugeMax("depth", 3.0);
  registry.Observe("latency", 1.0);
  registry.Observe("latency", 3.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("alpha"), 5u);
  EXPECT_EQ(snapshot.counters.at("beta"), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("depth"), 4.5);
  const MetricsSnapshot::Histogram& h = snapshot.histograms.at("latency");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
}

TEST(MetricsRegistryTest, DeterministicMergeAcrossThreadCounts) {
  // The same logical workload sharded over 1, 4, and 8 threads must merge
  // to identical counters/gauges/histogram buckets: sums and maxima are
  // order-independent.
  std::optional<MetricsSnapshot> baseline;
  for (int threads : {1, 4, 8}) {
    MetricsRegistry registry;
    ThreadPool pool(threads);
    ParallelFor(&pool, 0, 256, [&](int64_t i) {
      registry.Count("items");
      registry.Count("weighted", static_cast<uint64_t>(i));
      registry.GaugeMax("peak", static_cast<double>(i));
      registry.Observe("value", static_cast<double>(i % 17));
    });
    const MetricsSnapshot snapshot = registry.Snapshot();
    if (!baseline.has_value()) {
      baseline = snapshot;
      continue;
    }
    EXPECT_EQ(snapshot.counters, baseline->counters) << threads;
    EXPECT_EQ(snapshot.gauges, baseline->gauges) << threads;
    ASSERT_EQ(snapshot.histograms.size(), baseline->histograms.size());
    for (const auto& [name, h] : snapshot.histograms) {
      const MetricsSnapshot::Histogram& want = baseline->histograms.at(name);
      EXPECT_EQ(h.count, want.count) << name;
      EXPECT_EQ(h.buckets, want.buckets) << name;
      EXPECT_DOUBLE_EQ(h.min, want.min) << name;
      EXPECT_DOUBLE_EQ(h.max, want.max) << name;
    }
  }
}

TEST(MetricsRegistryTest, JsonSchemaGolden) {
  MetricsRegistry registry;
  registry.Count("alpha", 3);
  registry.Count("beta");
  registry.GaugeMax("depth", 4.5);
  registry.Observe("latency", 1.0);
  registry.Observe("latency", 3.0);
  std::ostringstream os;
  registry.WriteJson(os);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"alpha\": 3,\n"
      "    \"beta\": 1\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"depth\": 4.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"latency\": {\"count\": 2, \"min\": 1, \"max\": 3, "
      "\"buckets\": {\"le_1\": 1, \"le_4\": 1}}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(os.str(), expected);
}

// --- Solver-level determinism of recorded runs. ---

TEST(ObsSolverTest, SaMetricsDeterministicAcrossParallelism) {
  const Qubo qubo = MakeRandomQubo(48, 91);
  std::optional<std::map<std::string, uint64_t>> baseline;
  std::optional<std::vector<QuboSolution>> baseline_reads;
  for (int parallelism : {1, 4, 8}) {
    MetricsRegistry registry;
    ThreadPool pool(parallelism);
    SaOptions options;
    options.num_reads = 32;
    options.sweeps_per_read = 48;
    RunContext run;
    run.pool = &pool;
    run.metrics = &registry;
    Rng rng(93);
    const std::vector<QuboSolution> reads =
        SolveQuboSimulatedAnnealing(qubo, options, run, rng);
    const MetricsSnapshot snapshot = registry.Snapshot();
    EXPECT_EQ(snapshot.counters.at("sa.reads"), 32u);
    EXPECT_EQ(snapshot.counters.at("sa.sweeps"), 32u * 48u);
    EXPECT_EQ(snapshot.counters.at("sa.proposals"), 32u * 48u * 48u);
    EXPECT_GT(snapshot.counters.at("sa.accepts"), 0u);
    if (!baseline.has_value()) {
      baseline = snapshot.counters;
      baseline_reads = reads;
      continue;
    }
    EXPECT_EQ(snapshot.counters, *baseline) << "parallelism " << parallelism;
    ASSERT_EQ(reads.size(), baseline_reads->size());
    for (size_t i = 0; i < reads.size(); ++i) {
      EXPECT_EQ(reads[i].energy, (*baseline_reads)[i].energy);
      EXPECT_EQ(reads[i].assignment, (*baseline_reads)[i].assignment);
    }
  }
}

TEST(ObsSolverTest, TracedTabuRunBitIdenticalAndSpansNest) {
  const Qubo qubo = MakeRandomQubo(40, 97);
  TabuOptions options;
  options.num_restarts = 8;
  options.iterations_per_restart = 64;
  const auto run = [&](TraceRecorder* trace, MetricsRegistry* metrics) {
    RunContext traced;
    traced.trace = trace;
    traced.metrics = metrics;
    Rng rng(99);
    return SolveQuboTabuSearch(qubo, options, traced, rng);
  };
  const std::vector<QuboSolution> plain = run(nullptr, nullptr);
  TraceRecorder trace;
  MetricsRegistry metrics;
  const std::vector<QuboSolution> traced = run(&trace, &metrics);
  ASSERT_EQ(plain.size(), traced.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].energy, traced[i].energy);
    EXPECT_EQ(plain[i].assignment, traced[i].assignment);
  }
  int solve_spans = 0;
  int restart_spans = 0;
  for (const TraceEvent& e : trace.Snapshot()) {
    if (e.name == "tabu.solve") ++solve_spans;
    if (e.name == "tabu.restart") ++restart_spans;
  }
  EXPECT_EQ(solve_spans, 1);
  EXPECT_EQ(restart_spans, 8);
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counters.at("tabu.restarts"), 8u);
  EXPECT_EQ(snapshot.counters.at("tabu.iterations"), 8u * 64u);
}

// --- Pipeline-level bit-identity on every backend. ---

struct BackendCase {
  QjoBackend backend;
  const char* name;
};

class ObsBackendBitIdenticalTest
    : public ::testing::TestWithParam<BackendCase> {};

QjoConfig MakeBackendConfig(QjoBackend backend) {
  QjoConfig config;
  config.backend = backend;
  config.seed = 11;
  switch (backend) {
    case QjoBackend::kExact:
      break;
    case QjoBackend::kSimulatedAnnealing:
      config.shots = 160;
      break;
    case QjoBackend::kQaoaSimulator:
      config.shots = 128;
      config.qaoa_iterations = 5;
      config.noiseless = true;
      break;
    case QjoBackend::kQuantumAnnealerSim:
      config.sqa.num_reads = 50;
      config.sqa.annealing_time_us = 10.0;
      break;
    case QjoBackend::kPortfolio:
      config.portfolio.sweep_budget = 256;
      break;
  }
  return config;
}

TEST_P(ObsBackendBitIdenticalTest, TracedRunMatchesUntracedRun) {
  const BackendCase& c = GetParam();
  const Query q = c.backend == QjoBackend::kPortfolio ? MakeChainQuery(4)
                                                      : MakePaperInstance(1);
  for (int parallelism : {1, 4}) {
    ThreadPool pool(parallelism);
    QjoConfig plain_config = MakeBackendConfig(c.backend);
    plain_config.run.pool = &pool;
    const auto plain = OptimizeJoinOrder(q, plain_config);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    TraceRecorder trace;
    MetricsRegistry metrics;
    QjoConfig traced_config = MakeBackendConfig(c.backend);
    traced_config.run.pool = &pool;
    traced_config.run.trace = &trace;
    traced_config.run.metrics = &metrics;
    const auto traced = OptimizeJoinOrder(q, traced_config);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();

    EXPECT_EQ(traced->found_valid, plain->found_valid) << c.name;
    EXPECT_EQ(traced->best_cost, plain->best_cost) << c.name;
    EXPECT_EQ(traced->best_order.order(), plain->best_order.order()) << c.name;
    EXPECT_EQ(traced->stats.total, plain->stats.total) << c.name;
    EXPECT_EQ(traced->stats.valid, plain->stats.valid) << c.name;
    EXPECT_EQ(traced->stats.optimal, plain->stats.optimal) << c.name;
    if (c.backend == QjoBackend::kPortfolio) {
      EXPECT_EQ(traced->portfolio.winner, plain->portfolio.winner);
      EXPECT_EQ(traced->portfolio.race.best_energy,
                plain->portfolio.race.best_energy);
      EXPECT_EQ(traced->portfolio.race.best_assignment,
                plain->portfolio.race.best_assignment);
    }

    // The traced run produced a root span plus the per-stage spans that
    // feed stage_timings on both runs.
    const std::vector<TraceEvent> events = trace.Snapshot();
    const auto has_event = [&](std::string_view name) {
      return std::any_of(events.begin(), events.end(), [&](const TraceEvent& e) {
        return e.name == name;
      });
    };
    EXPECT_TRUE(has_event("pipeline")) << c.name;
    EXPECT_TRUE(has_event("encode")) << c.name;
    EXPECT_TRUE(
        has_event(std::string("solve.") + QjoBackendName(c.backend)))
        << c.name;
    EXPECT_TRUE(traced->stage_timings.Has("encode")) << c.name;
    EXPECT_TRUE(plain->stage_timings.Has("encode")) << c.name;
    EXPECT_GT(traced->stage_timings.total_ms, 0.0) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ObsBackendBitIdenticalTest,
    ::testing::Values(
        BackendCase{QjoBackend::kExact, "exact"},
        BackendCase{QjoBackend::kSimulatedAnnealing, "sa"},
        BackendCase{QjoBackend::kQaoaSimulator, "qaoa"},
        BackendCase{QjoBackend::kQuantumAnnealerSim, "annealer"},
        BackendCase{QjoBackend::kPortfolio, "portfolio"}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

// --- Pipeline metrics: deterministic merge across parallelism. ---

TEST(ObsPipelineTest, PipelineMetricsDeterministicMergeAcrossParallelism) {
  const Query q = MakeChainQuery(4);
  std::optional<std::map<std::string, uint64_t>> counters;
  std::optional<std::map<std::string, double>> gauges;
  for (int parallelism : {1, 4, 8}) {
    MetricsRegistry registry;
    ThreadPool pool(parallelism);
    QjoConfig config = MakeBackendConfig(QjoBackend::kPortfolio);
    config.run.pool = &pool;
    config.run.metrics = &registry;
    const auto report = OptimizeJoinOrder(q, config);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    MetricsSnapshot snapshot = registry.Snapshot();
    // The pool's own dispatch count describes the pool, not the run: a
    // one-thread pool never dispatches. Every other gauge must match.
    ASSERT_EQ(snapshot.gauges.erase("pool.tasks_dispatched"), 1u);
    if (!counters.has_value()) {
      counters = snapshot.counters;
      gauges = snapshot.gauges;
      continue;
    }
    EXPECT_EQ(snapshot.counters, *counters) << "parallelism " << parallelism;
    EXPECT_EQ(snapshot.gauges, *gauges) << "parallelism " << parallelism;
  }
}

// --- Portfolio: exported counters mirror the report; trace covers the
// run. ---

TEST(ObsPipelineTest, PortfolioCountersMatchReportAndTraceCoversRun) {
  const Query q = MakeChainQuery(4);
  TraceRecorder trace;
  MetricsRegistry metrics;
  ThreadPool pool(4);
  QjoConfig config = MakeBackendConfig(QjoBackend::kPortfolio);
  config.run.pool = &pool;
  config.run.trace = &trace;
  config.run.metrics = &metrics;
  const auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const MetricsSnapshot snapshot = metrics.Snapshot();
  for (const StrandOutcome& strand : report->portfolio.race.strands) {
    const std::string prefix =
        std::string("portfolio.") + strand.name;
    const auto counter = [&](const std::string& name) -> uint64_t {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0 : it->second;
    };
    EXPECT_EQ(counter(prefix + ".rounds"),
              static_cast<uint64_t>(strand.rounds_completed))
        << prefix;
    EXPECT_EQ(counter(prefix + ".sweeps"),
              static_cast<uint64_t>(strand.sweeps_completed))
        << prefix;
  }

  // Trace coverage: the named stage spans account for (almost) the whole
  // root "pipeline" span. The threshold is slightly below the 95% design
  // budget to keep slow/noisy CI machines from flaking.
  const std::vector<TraceEvent> events = trace.Snapshot();
  const TraceEvent* pipeline = nullptr;
  uint64_t covered_ns = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "pipeline") {
      pipeline = &e;
    } else if (e.name == "encode" || e.name == "oracle_dp" ||
               e.name.rfind("solve.", 0) == 0 || e.name == "postprocess") {
      covered_ns += e.duration_ns;  // disjoint top-level stages
    }
  }
  ASSERT_NE(pipeline, nullptr);
  ASSERT_GT(pipeline->duration_ns, 0u);
  EXPECT_GE(static_cast<double>(covered_ns),
            0.90 * static_cast<double>(pipeline->duration_ns));
  EXPECT_LE(covered_ns, pipeline->duration_ns);
}

}  // namespace
}  // namespace qjo
