#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/postprocess.h"
#include "core/quantum_optimizer.h"
#include "jo/classical.h"
#include "jo/query_generator.h"
#include "lp/jo_encoder.h"
#include "obs/obs.h"
#include "topology/vendor_topologies.h"
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

JoMilpModel EncodePaperInstance(const Query& q) {
  JoMilpOptions options;
  options.thresholds = {10.0};
  auto milp = EncodeJoAsMilp(q, options);
  EXPECT_TRUE(milp.ok());
  return std::move(milp).value();
}

TEST(PostprocessTest, DecodesValidSample) {
  const Query q = MakePaperInstance(1);
  const JoMilpModel milp = EncodePaperInstance(q);
  std::vector<int> bits(milp.model().num_variables(), 0);
  bits[milp.tii(1, 0)] = 1;  // join 0 inner: R1
  bits[milp.tii(2, 1)] = 1;  // join 1 inner: R2
  auto order = DecodeSample(milp, bits);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->order(), (std::vector<int>{0, 1, 2}));
}

TEST(PostprocessTest, IgnoresCardinalityViolations) {
  // Sec. 3.5: a sample is valid even if cto/pao constraints are violated,
  // as long as the join tree is unambiguous.
  const Query q = MakePaperInstance(1);
  const JoMilpModel milp = EncodePaperInstance(q);
  std::vector<int> bits(milp.model().num_variables(), 0);
  bits[milp.tii(1, 0)] = 1;
  bits[milp.tii(2, 1)] = 1;
  bits[milp.pao(0, 1)] = 1;  // inconsistent with tio = 0: don't care
  EXPECT_TRUE(DecodeSample(milp, bits).ok());
}

TEST(PostprocessTest, RejectsAmbiguousSamples) {
  const Query q = MakePaperInstance(0);
  const JoMilpModel milp = EncodePaperInstance(q);
  std::vector<int> bits(milp.model().num_variables(), 0);
  // No inner operand for join 0.
  bits[milp.tii(2, 1)] = 1;
  EXPECT_FALSE(DecodeSample(milp, bits).ok());
  // Two inner operands for join 0.
  bits[milp.tii(0, 0)] = 1;
  bits[milp.tii(1, 0)] = 1;
  EXPECT_FALSE(DecodeSample(milp, bits).ok());
  // Relation reused across joins.
  bits[milp.tii(0, 0)] = 0;
  bits[milp.tii(1, 1)] = 1;
  bits[milp.tii(2, 1)] = 0;
  EXPECT_FALSE(DecodeSample(milp, bits).ok());
}

TEST(PostprocessTest, EvaluateSamplesCountsAndRanks) {
  const Query q = MakePaperInstance(1);
  const JoMilpModel milp = EncodePaperInstance(q);
  auto oracle = OptimizeDp(q);
  ASSERT_TRUE(oracle.ok());

  std::vector<int> optimal(milp.model().num_variables(), 0);
  optimal[milp.tii(1, 0)] = 1;  // (R0 R1) R2: uses the selective predicate
  optimal[milp.tii(2, 1)] = 1;
  std::vector<int> valid_suboptimal(milp.model().num_variables(), 0);
  valid_suboptimal[milp.tii(2, 0)] = 1;  // cross product first
  valid_suboptimal[milp.tii(1, 1)] = 1;
  std::vector<int> invalid(milp.model().num_variables(), 0);

  const SampleSetStats stats = EvaluateSamples(
      milp, {optimal, valid_suboptimal, invalid}, oracle->cost);
  EXPECT_EQ(stats.total, 3);
  EXPECT_EQ(stats.valid, 2);
  EXPECT_EQ(stats.optimal, 1);
  EXPECT_TRUE(stats.found_valid);
  EXPECT_DOUBLE_EQ(stats.best_cost, oracle->cost);
}

/// The pipeline's central correctness property: on an ideal "QPU" (exact
/// QUBO minimisation), the decoded minimum is a valid, near-optimal join
/// order — optimal up to the staircase cardinality approximation of the
/// threshold grid (Example 3.3 discusses why the granularity matters).
/// Mirroring the paper's hardware reality, exact minimisation is only
/// tractable at the 3-relation / <=27-qubit scale.
struct ExactCase {
  QueryGraphType type;
  int thresholds;
  uint64_t seed;
};

class ExactBackendTest : public ::testing::TestWithParam<ExactCase> {};

TEST_P(ExactBackendTest, QuboMinimumDecodesToOptimalJoinOrder) {
  const ExactCase& c = GetParam();
  Rng rng(c.seed);
  QueryGenOptions gen;
  gen.num_relations = 3;
  gen.graph_type = c.type;
  gen.min_log_card = 1.0;  // cardinality 10, like the paper's instances
  gen.max_log_card = 1.0;
  auto query = GenerateQuery(gen, rng);
  ASSERT_TRUE(query.ok());

  QjoConfig config;
  config.backend = QjoBackend::kExact;
  config.num_thresholds = c.thresholds;
  config.seed = c.seed;
  auto report = OptimizeJoinOrder(*query, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->found_valid);
  EXPECT_LE(report->encoding.bilp_variables, 28);
  EXPECT_LE(report->best_cost, report->optimal_cost * 30.0 + 1e-9)
      << QueryGraphTypeName(c.type) << " seed=" << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactBackendTest,
    ::testing::Values(ExactCase{QueryGraphType::kChain, 2, 101},
                      ExactCase{QueryGraphType::kChain, 2, 102},
                      ExactCase{QueryGraphType::kChain, 1, 103},
                      ExactCase{QueryGraphType::kStar, 2, 104},
                      ExactCase{QueryGraphType::kStar, 1, 105},
                      ExactCase{QueryGraphType::kCycle, 1, 106},
                      ExactCase{QueryGraphType::kCycle, 1, 107}));

/// Beyond three relations the brute-force "ideal QPU" runs out of steam
/// (exactly the paper's scalability wall); classical simulated annealing
/// on the same QUBO still recovers valid near-optimal orders.
TEST(SaBackendTest, FourAndFiveRelationQubos) {
  for (int relations : {4, 5}) {
    Rng rng(200 + relations);
    QueryGenOptions gen;
    gen.num_relations = relations;
    gen.graph_type = QueryGraphType::kChain;
    gen.min_log_card = 1.0;
    gen.max_log_card = 2.0;
    auto query = GenerateQuery(gen, rng);
    ASSERT_TRUE(query.ok());
    QjoConfig config;
    config.backend = QjoBackend::kSimulatedAnnealing;
    config.num_thresholds = 2;
    config.shots = 400;
    config.seed = 200 + relations;
    auto report = OptimizeJoinOrder(*query, config);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->found_valid) << relations;
    EXPECT_GT(report->encoding.bilp_variables, 28);  // beyond brute force
  }
}

TEST(ExactBackendTest, PaperInstanceOptimalOrderExactly) {
  // On the Example 3.3 instance the threshold grid separates the optimal
  // order from all others, so the QUBO minimum is exactly optimal.
  Query q;
  q.AddRelation("R", 100);
  q.AddRelation("S", 100);
  q.AddRelation("T", 100);
  ASSERT_TRUE(q.AddPredicate(0, 1, 0.1).ok());
  QjoConfig config;
  config.backend = QjoBackend::kExact;
  config.thresholds = {100.0, 1000.0, 10000.0};
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found_valid);
  EXPECT_DOUBLE_EQ(report->best_cost, report->optimal_cost);
  // R and S are joined first (in either order).
  EXPECT_EQ(report->best_order[2], 2);
}

TEST(SaBackendTest, FindsValidSolutions) {
  const Query q = MakePaperInstance(2);
  QjoConfig config;
  config.backend = QjoBackend::kSimulatedAnnealing;
  config.shots = 160;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->found_valid);
  EXPECT_GT(report->stats.valid, 0);
  EXPECT_GT(report->stats.bilp_feasible, 0);
}

TEST(QaoaBackendTest, RunsPaperScaleInstanceNoiselessly) {
  const Query q = MakePaperInstance(0);  // 18 qubits
  QjoConfig config;
  config.backend = QjoBackend::kQaoaSimulator;
  config.shots = 512;
  config.qaoa_iterations = 10;
  config.noiseless = true;
  config.seed = 3;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->encoding.bilp_variables, 18);
  EXPECT_GT(report->gate.circuit_depth, 0);
  EXPECT_GT(report->stats.total, 0);
  // Even ideal p=1 QAOA yields mostly non-optimal samples, but a few
  // valid ones should appear among 512 shots.
  EXPECT_GT(report->stats.valid, 0);
}

TEST(QaoaBackendTest, NoiseReducesFidelityAndTracksDepth) {
  const Query q = MakePaperInstance(0);
  QjoConfig config;
  config.backend = QjoBackend::kQaoaSimulator;
  config.shots = 64;
  config.qaoa_iterations = 5;
  config.seed = 4;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->gate.fidelity, 1.0);
  EXPECT_GT(report->gate.fidelity, 0.0);
  EXPECT_GT(report->gate.timings.total_s, 1.0);
  EXPECT_LT(report->gate.timings.sampling_ms / 1000.0, report->gate.timings.total_s);
}

TEST(AnnealerBackendTest, EmbedsAndSolvesThreeRelations) {
  const Query q = MakePaperInstance(2);
  QjoConfig config;
  config.backend = QjoBackend::kQuantumAnnealerSim;
  config.sqa.num_reads = 200;
  config.sqa.annealing_time_us = 20.0;
  config.seed = 5;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->anneal.physical_qubits, report->encoding.bilp_variables);
  EXPECT_GT(report->anneal.max_chain_length, 0);
  EXPECT_GT(report->stats.total, 0);
  EXPECT_TRUE(report->found_valid);
}

// The annealer simulates the embedded model only: every SQA proposal
// lands on a chain qubit, none on the idle rest of the Pegasus graph.
TEST(AnnealerBackendTest, AnnealsOnlyChainQubits) {
  const Query q = MakePaperInstance(2);
  QjoConfig config;
  config.backend = QjoBackend::kQuantumAnnealerSim;
  config.sqa.num_reads = 40;
  config.sqa.annealing_time_us = 20.0;
  config.seed = 5;
  MetricsRegistry metrics;
  config.run.metrics = &metrics;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  const uint64_t sweeps = static_cast<uint64_t>(
      config.sqa.annealing_time_us * config.sqa.sweeps_per_us);
  ASSERT_GE(sweeps, 8u);  // RunSqa's floor does not apply
  const uint64_t physical_qubits =
      static_cast<uint64_t>(report->anneal.physical_qubits);
  ASSERT_GT(physical_qubits, 0u);
  EXPECT_EQ(metrics.Snapshot().counters.at("sqa.proposals"),
            static_cast<uint64_t>(config.sqa.num_reads) * sweeps *
                static_cast<uint64_t>(config.sqa.trotter_slices) *
                physical_qubits);
}

TEST(BatchTest, MatchesSingleQueryRunsExactly) {
  // Batch slot i must be bit-identical to OptimizeJoinOrder(queries[i]):
  // sharing one pool across queries and read loops never changes results.
  std::vector<Query> queries;
  queries.push_back(MakePaperInstance(0));
  queries.push_back(MakePaperInstance(1));
  queries.push_back(MakePaperInstance(2));
  QjoConfig config;
  config.backend = QjoBackend::kSimulatedAnnealing;
  config.shots = 160;
  config.seed = 71;
  ThreadPool pool(4);
  QjoConfig batch_config = config;
  batch_config.run.pool = &pool;
  const auto batch = OptimizeJoinOrderBatch(queries, batch_config);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << "slot " << i;
    const auto single = OptimizeJoinOrder(queries[i], config);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch[i]->best_cost, single->best_cost) << "slot " << i;
    EXPECT_EQ(batch[i]->best_order, single->best_order);
    EXPECT_EQ(batch[i]->stats.valid, single->stats.valid);
    EXPECT_EQ(batch[i]->stats.optimal, single->stats.optimal);
  }
}

TEST(BatchTest, FailedSlotsDoNotPoisonOthers) {
  Query bad;  // 1 relation: rejected by OptimizeJoinOrder
  bad.AddRelation("R", 10);
  std::vector<Query> queries;
  queries.push_back(MakePaperInstance(1));
  queries.push_back(bad);
  QjoConfig config;
  config.backend = QjoBackend::kExact;
  ThreadPool pool(2);
  config.run.pool = &pool;
  const auto batch = OptimizeJoinOrderBatch(queries, config);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_FALSE(batch[1].ok());
}

TEST(BatchTest, RespectsCallerPool) {
  // With config.run.pool set, the batch fans out on the caller's pool,
  // and results stay bit-identical to the pool-less (serial) run.
  std::vector<Query> queries;
  queries.push_back(MakePaperInstance(0));
  queries.push_back(MakePaperInstance(1));
  QjoConfig config;
  config.backend = QjoBackend::kSimulatedAnnealing;
  config.shots = 160;
  config.seed = 73;
  const auto baseline = OptimizeJoinOrderBatch(queries, config);

  ThreadPool pool(4);
  const uint64_t dispatched_before = pool.tasks_dispatched();
  config.run.pool = &pool;
  const auto with_pool = OptimizeJoinOrderBatch(queries, config);
  EXPECT_GT(pool.tasks_dispatched(), dispatched_before)
      << "batch did not dispatch onto the caller-supplied pool";

  ASSERT_EQ(with_pool.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_TRUE(baseline[i].ok());
    ASSERT_TRUE(with_pool[i].ok());
    EXPECT_EQ(with_pool[i]->best_cost, baseline[i]->best_cost) << i;
    EXPECT_EQ(with_pool[i]->best_order, baseline[i]->best_order);
    EXPECT_EQ(with_pool[i]->stats.valid, baseline[i]->stats.valid);
  }
}

TEST(BatchTest, EmptyBatchReturnsEmpty) {
  QjoConfig config;
  EXPECT_TRUE(
      OptimizeJoinOrderBatch(std::span<const Query>{}, config).empty());
}

TEST(CoreTest, RejectsTinyQueries) {
  Query q;
  q.AddRelation("R", 10);
  QjoConfig config;
  EXPECT_FALSE(OptimizeJoinOrder(q, config).ok());
}

TEST(CoreTest, ReportSummaryMentionsKeyNumbers) {
  const Query q = MakePaperInstance(0);
  QjoConfig config;
  config.backend = QjoBackend::kExact;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  const std::string summary = report->Summary();
  EXPECT_NE(summary.find("logical qubits"), std::string::npos);
  EXPECT_NE(summary.find("best cost"), std::string::npos);
}


// --- QUBO-build cache. ---

Query MakeChainQuery(int relations) {
  Query q;
  for (int i = 0; i < relations; ++i) {
    q.AddRelation("R" + std::to_string(i), 100.0 * (i + 1));
  }
  for (int i = 0; i + 1 < relations; ++i) {
    EXPECT_TRUE(q.AddPredicate(i, i + 1, 0.1).ok());
  }
  return q;
}

TEST(QuboCacheTest, HitCountingAndEntrySharing) {
  const Query q = MakeChainQuery(3);
  QuboBuildCache cache;
  JoEncodingOptions options;
  auto first = cache.GetOrBuild(q, options);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrBuild(q, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // one shared immutable entry
  EXPECT_EQ(cache.size(), 1u);
  const QuboBuildCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(QuboCacheTest, FingerprintTracksEncodingInputsOnly) {
  const Query q = MakeChainQuery(3);
  JoEncodingOptions options;
  const std::string base = JoEncodingFingerprint(q, options);

  // Renaming a relation does not change the encoding -> same key.
  Query renamed;
  renamed.AddRelation("Alpha", 100.0);
  renamed.AddRelation("Beta", 200.0);
  renamed.AddRelation("Gamma", 300.0);
  ASSERT_TRUE(renamed.AddPredicate(0, 1, 0.1).ok());
  ASSERT_TRUE(renamed.AddPredicate(1, 2, 0.1).ok());
  EXPECT_EQ(JoEncodingFingerprint(renamed, options), base);

  // Any selectivity, cardinality, threshold or omega change -> new key.
  Query selectivity;
  selectivity.AddRelation("R0", 100.0);
  selectivity.AddRelation("R1", 200.0);
  selectivity.AddRelation("R2", 300.0);
  ASSERT_TRUE(selectivity.AddPredicate(0, 1, 0.2).ok());
  ASSERT_TRUE(selectivity.AddPredicate(1, 2, 0.1).ok());
  EXPECT_NE(JoEncodingFingerprint(selectivity, options), base);
  JoEncodingOptions omega = options;
  omega.omega = 2.0;
  EXPECT_NE(JoEncodingFingerprint(q, omega), base);
  JoEncodingOptions more_thresholds = options;
  more_thresholds.num_thresholds = 3;
  EXPECT_NE(JoEncodingFingerprint(q, more_thresholds), base);
}

TEST(QuboCacheTest, ExplicitGeometricThresholdsShareTheDefaultKey) {
  const Query q = MakeChainQuery(3);
  JoEncodingOptions defaults;
  JoEncodingOptions explicit_options;
  explicit_options.thresholds =
      MakeGeometricThresholds(q, defaults.num_thresholds);
  EXPECT_EQ(JoEncodingFingerprint(q, explicit_options),
            JoEncodingFingerprint(q, defaults));
}

TEST(QuboCacheTest, EvictsExactlyTheLeastRecentlyUsedEntry) {
  QuboBuildCache cache(/*max_entries=*/2);
  JoEncodingOptions options;
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(3), options).ok());
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(4), options).ok());
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Inserting a third key at capacity displaces only the oldest (the
  // 3-relation query), not the whole cache.
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(5), options).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const uint64_t hits_before = cache.stats().hits;
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(4), options).ok());  // hit
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(5), options).ok());  // hit
  EXPECT_EQ(cache.stats().hits, hits_before + 2);
  // The evicted key misses and rebuilds.
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(3), options).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 2);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(QuboCacheTest, HitRefreshesRecencyOrder) {
  QuboBuildCache cache(/*max_entries=*/2);
  JoEncodingOptions options;
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(3), options).ok());
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(4), options).ok());
  // Touching the 3-relation entry makes the 4-relation one the LRU, so
  // the next insert at capacity displaces 4, not 3.
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(3), options).ok());
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(5), options).ok());
  const uint64_t hits_before = cache.stats().hits;
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(3), options).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(4), options).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);  // 4 was evicted: a miss
}

TEST(QuboCacheTest, PresentKeyNeverEvicts) {
  // Capacity one: the duplicate-heavy workload that used to clear the
  // cache wholesale. Re-getting the same key must neither evict nor grow.
  QuboBuildCache cache(/*max_entries=*/1);
  JoEncodingOptions options;
  auto first = cache.GetOrBuild(MakeChainQuery(3), options);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    auto again = cache.GetOrBuild(MakeChainQuery(3), options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->get(), first->get());
  }
  const QuboBuildCache::Stats stats = cache.stats();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(QuboCacheTest, ConcurrentGetOrBuildIsSingleFlight) {
  // N threads racing GetOrBuild on one cold key: exactly one build runs
  // (single flight); every other caller either waits on the in-progress
  // build (coalesced) or hits the finished entry, and all of them share
  // the same immutable encoding. Runs under TSan via the concurrency
  // label.
  const Query q = MakeChainQuery(6);
  QuboBuildCache cache;
  JoEncodingOptions options;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const JoQuboEncoding>> results(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Spin barrier so the calls overlap instead of serialising on
      // thread start-up.
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kThreads) {
      }
      auto encoding = cache.GetOrBuild(q, options);
      if (encoding.ok()) results[t] = *std::move(encoding);
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_NE(results[0], nullptr);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get()) << "thread " << t;
  }
  const QuboBuildCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u) << "exactly one build despite the stampede";
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_LE(stats.coalesced_builds, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(QuboCacheTest, EvictedEntriesStayAliveThroughSharedPtr) {
  QuboBuildCache cache(/*max_entries=*/1);
  JoEncodingOptions options;
  auto held = cache.GetOrBuild(MakeChainQuery(3), options);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(cache.GetOrBuild(MakeChainQuery(4), options).ok());  // evicts 3
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The handed-out entry is unaffected by its eviction.
  EXPECT_GT((*held)->encoding.qubo.num_variables(), 0);
}

// --- Portfolio backend. ---

TEST(PortfolioTest, ZeroDeadlineReturnsClassicalFallback) {
  const Query q = MakeChainQuery(4);
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.run.deadline_ms = 0.0;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  // Zero budget: no strand ran, yet a valid plan (the DP fallback, which
  // is optimal at this size) came back.
  EXPECT_TRUE(report->found_valid);
  EXPECT_TRUE(report->portfolio.used_classical_fallback);
  EXPECT_EQ(report->portfolio.winner, "classical_fallback");
  EXPECT_DOUBLE_EQ(report->best_cost, report->optimal_cost);
  EXPECT_EQ(report->best_order.order(), report->optimal_order.order());
  for (const StrandOutcome& strand : report->portfolio.race.strands) {
    EXPECT_EQ(strand.rounds_completed, 0);
  }
}

TEST(PortfolioTest, RejectsUnboundedConfiguration) {
  const Query q = MakeChainQuery(3);
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.run.deadline_ms = -1.0;
  config.portfolio.sweep_budget = 0;  // no deadline and no sweep bound
  EXPECT_FALSE(OptimizeJoinOrder(q, config).ok());
}

TEST(PortfolioTest, ExactStrandWinsSmallInstances) {
  const Query q = MakePaperInstance(2);  // 18 logical qubits
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.portfolio.sweep_budget = 256;
  config.portfolio.max_exact_variables = 28;  // paper instance: 22 qubits
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->found_valid);
  EXPECT_FALSE(report->portfolio.used_classical_fallback);
  ASSERT_FALSE(report->portfolio.race.strands.empty());
  const StrandOutcome& exact = report->portfolio.race.strands[0];
  EXPECT_EQ(exact.name, "exact");
  ASSERT_TRUE(exact.eligible);
  // The exact strand proves the optimum; no strand can beat its score and
  // ties break in its favour.
  EXPECT_TRUE(exact.hit_lower_bound);
  EXPECT_TRUE(exact.won);
  EXPECT_EQ(report->portfolio.winner, "exact");
  EXPECT_DOUBLE_EQ(report->best_cost, report->optimal_cost);
}

TEST(PortfolioTest, DeadlineExpiryStillReturnsValidPlan) {
  const Query q = MakeChainQuery(5);
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.run.deadline_ms = 30.0;
  config.portfolio.sweep_budget = 0;  // unlimited: only the deadline stops it
  ThreadPool pool(4);
  config.run.pool = &pool;  // race strands concurrently
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->found_valid);
  EXPECT_EQ(report->best_order.order().size(), 5u);
  EXPECT_GT(report->best_cost, 0.0);
}

TEST(PortfolioTest, UnrepresentableDeadlineNeverExpires) {
  // A deadline too far out for the clock's integer ticks must mean "no
  // wall-clock cut-off", not an overflowed deadline in the past that
  // expires the race at once and answers with the classical fallback.
  const Query q = MakeChainQuery(4);
  for (const double deadline_ms :
       {1e20, std::numeric_limits<double>::infinity()}) {
    QjoConfig config;
    config.backend = QjoBackend::kPortfolio;
    config.run.deadline_ms = deadline_ms;
    config.portfolio.sweep_budget = int64_t{1} << 16;
    auto report = OptimizeJoinOrder(q, config);
    ASSERT_TRUE(report.ok()) << deadline_ms;
    EXPECT_FALSE(report->portfolio.race.deadline_expired) << deadline_ms;
    EXPECT_FALSE(report->portfolio.used_classical_fallback) << deadline_ms;
    EXPECT_TRUE(report->found_valid) << deadline_ms;
  }
}

TEST(PortfolioTest, DeterministicAcrossParallelism) {
  const Query q = MakeChainQuery(4);
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.portfolio.sweep_budget = 512;  // pure sweep-budget mode
  std::optional<QjoReport> baseline;
  for (int parallelism : {1, 4, 16}) {
    ThreadPool pool(parallelism);
    config.run.pool = &pool;
    auto report = OptimizeJoinOrder(q, config);
    ASSERT_TRUE(report.ok()) << "parallelism " << parallelism;
    ASSERT_TRUE(report->found_valid);
    if (!baseline.has_value()) {
      baseline = *std::move(report);
      continue;
    }
    // Everything except wall-clock timings must be bit-identical.
    EXPECT_EQ(report->best_order.order(), baseline->best_order.order());
    EXPECT_EQ(report->best_cost, baseline->best_cost);
    EXPECT_EQ(report->portfolio.winner, baseline->portfolio.winner);
    EXPECT_EQ(report->portfolio.race.winner, baseline->portfolio.race.winner);
    EXPECT_EQ(report->portfolio.race.best_assignment,
              baseline->portfolio.race.best_assignment);
    EXPECT_EQ(report->portfolio.race.best_energy,
              baseline->portfolio.race.best_energy);
    ASSERT_EQ(report->portfolio.race.strands.size(),
              baseline->portfolio.race.strands.size());
    for (size_t s = 0; s < baseline->portfolio.race.strands.size(); ++s) {
      const StrandOutcome& got = report->portfolio.race.strands[s];
      const StrandOutcome& want = baseline->portfolio.race.strands[s];
      EXPECT_EQ(got.eligible, want.eligible) << "strand " << s;
      EXPECT_EQ(got.rounds_completed, want.rounds_completed) << "strand " << s;
      EXPECT_EQ(got.sweeps_completed, want.sweeps_completed) << "strand " << s;
      EXPECT_EQ(got.best_energy, want.best_energy) << "strand " << s;
      EXPECT_EQ(got.feasible, want.feasible) << "strand " << s;
      if (got.feasible) {
        EXPECT_EQ(got.best_score, want.best_score) << "strand " << s;
      }
      EXPECT_EQ(got.won, want.won) << "strand " << s;
    }
  }
}

TEST(PortfolioTest, DecompStrandIneligibleForSmallQueries) {
  const Query q = MakeChainQuery(4);
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.portfolio.sweep_budget = 128;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok());
  // Below min_decomp_relations the hook is never installed: the QUBO
  // strands own small instances.
  ASSERT_EQ(report->portfolio.race.strands.size(), 6u);
  const StrandOutcome& decomp = report->portfolio.race.strands[5];
  EXPECT_EQ(decomp.name, "decomp");
  EXPECT_FALSE(decomp.eligible);
}

TEST(PortfolioTest, DecompStrandSolvesThirtyRelationQuery) {
  // The headline regression: at 30 relations no monolithic QUBO sample
  // decodes, so before the decomposition strand the portfolio could only
  // answer with the classical fallback.
  const Query q = MakeChainQuery(30);
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.portfolio.sweep_budget = 128;  // keep the doomed QUBO strands short
  config.portfolio.enable_sqa = false;
  config.portfolio.decomp.max_rounds = 2;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->found_valid);
  EXPECT_FALSE(report->portfolio.used_classical_fallback);
  EXPECT_EQ(report->portfolio.winner, "decomp");
  auto valid = LeftDeepOrder::Create(report->best_order.order(), q);
  ASSERT_TRUE(valid.ok());
  const auto greedy = OptimizeGreedy(q);
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(report->best_cost, greedy->cost);
  const StrandOutcome& decomp = report->portfolio.race.strands[5];
  EXPECT_TRUE(decomp.won);
  EXPECT_GT(decomp.rounds_completed, 0);
}

TEST(BatchTest, SharedCacheEncodesRepeatedQueriesOnce) {
  const Query q = MakeChainQuery(3);
  std::vector<Query> queries = {q, q, q};
  QuboBuildCache cache;
  QjoConfig config;
  config.backend = QjoBackend::kExact;
  config.qubo_cache = &cache;
  const auto reports = OptimizeJoinOrderBatch(queries, config);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& report : reports) ASSERT_TRUE(report.ok());
  // Serial batch: the first lookup misses, the other two hit.
  const QuboBuildCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace qjo
