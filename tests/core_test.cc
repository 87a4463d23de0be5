#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/postprocess.h"
#include "core/quantum_optimizer.h"
#include "core/qubo_cache.h"
#include "jo/classical.h"
#include "jo/query_generator.h"
#include "lp/jo_encoder.h"
#include "obs/obs.h"
#include "topology/vendor_topologies.h"
#include "sim/anneal_round.h"
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

// Embedding tries and SQA reads both run on the request's pool; neither
// may let the pool size reach the report.
TEST(AnnealerBackendTest, IdenticalAtEveryPoolSize) {
  const Query q = MakePaperInstance(2);
  QjoConfig config;
  config.backend = QjoBackend::kQuantumAnnealerSim;
  config.num_thresholds = 1;
  config.omega = 3.0;
  config.sqa.num_reads = 16;
  config.sqa.annealing_time_us = 10.0;
  config.embedding.tries = 8;
  config.embedding.max_passes = 10;
  config.seed = 5;
  auto serial = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->anneal.physical_qubits, 0);
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    QjoConfig pooled_config = config;
    pooled_config.run.pool = &pool;
    auto pooled = OptimizeJoinOrder(q, pooled_config);
    ASSERT_TRUE(pooled.ok()) << "threads=" << threads;
    EXPECT_EQ(pooled->best_cost, serial->best_cost) << "threads=" << threads;
    EXPECT_EQ(pooled->best_order, serial->best_order) << "threads=" << threads;
    EXPECT_EQ(pooled->stats.total, serial->stats.total);
    EXPECT_EQ(pooled->stats.valid, serial->stats.valid);
    EXPECT_EQ(pooled->stats.optimal, serial->stats.optimal);
    EXPECT_EQ(pooled->stats.bilp_feasible, serial->stats.bilp_feasible);
    EXPECT_EQ(pooled->stats.best_cost, serial->stats.best_cost);
    EXPECT_EQ(pooled->anneal.physical_qubits, serial->anneal.physical_qubits);
    EXPECT_EQ(pooled->anneal.max_chain_length,
              serial->anneal.max_chain_length);
    EXPECT_EQ(pooled->anneal.chain_strength, serial->anneal.chain_strength);
    EXPECT_EQ(pooled->anneal.mean_chain_break_fraction,
              serial->anneal.mean_chain_break_fraction);
  }
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
    q.AddRelation(std::string("R").append(std::to_string(i)), 100.0 * (i + 1));
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

QjoConfig PortfolioConfig() {
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.portfolio.sweep_budget = 512;  // pure sweep-budget mode
  return config;
}

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

TEST(AnnealerBackendTest, RejectsNonsenseSqaSchedule) {
  // A schedule RunSqa rejects must fail the request before embedding
  // instead of serving samples annealed on NaN (a zero temperature makes
  // the replica coupling 0/0).
  const Query q = MakePaperInstance(1);
  const auto expect_rejected = [&](const SqaOptions& sqa, const char* what) {
    QjoConfig config;
    config.backend = QjoBackend::kQuantumAnnealerSim;
    config.sqa = sqa;
    EXPECT_EQ(OptimizeJoinOrder(q, config).status().code(),
              StatusCode::kInvalidArgument)
        << what;
  };
  SqaOptions sqa;
  sqa.relative_temperature = 0.0;
  expect_rejected(sqa, "relative_temperature = 0");
  sqa.relative_temperature = -0.03;
  expect_rejected(sqa, "relative_temperature < 0");
  sqa = SqaOptions();
  sqa.relative_initial_field = -1.5;
  expect_rejected(sqa, "relative_initial_field < 0");
  sqa = SqaOptions();
  sqa.ice_sigma = -0.01;
  expect_rejected(sqa, "ice_sigma < 0");
  sqa = SqaOptions();
  sqa.ice_sigma = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(sqa, "ice_sigma NaN");
  sqa = SqaOptions();
  sqa.trotter_slices = 1;
  expect_rejected(sqa, "one Trotter slice");
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

/// SA as the only sweep strand, with one round of 5e7 sweeps: the race
/// can only return within seconds if a stop reaches the solver mid-round.
QjoConfig MidRoundConfig(double deadline_ms) {
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.run.deadline_ms = deadline_ms;
  config.portfolio.sweep_budget = 0;  // bounded by the deadline only
  config.portfolio.reads_per_round = 1;
  config.portfolio.sweeps_per_round = 50'000'000;
  config.portfolio.enable_exact = false;
  config.portfolio.enable_tabu = false;
  config.portfolio.enable_sqa = false;
  config.portfolio.enable_qaoa = false;
  return config;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(PortfolioTest, StopsMidRoundOnDeadline) {
  const QjoConfig config = MidRoundConfig(50.0);
  const auto start = std::chrono::steady_clock::now();
  auto report = OptimizeJoinOrder(MakeChainQuery(5), config);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(MsSince(start), 10'000.0);
  EXPECT_TRUE(report->portfolio.race.deadline_expired);
  EXPECT_TRUE(report->found_valid);
}

TEST(PortfolioTest, StopsMidRoundOnCallerToken) {
  QjoConfig config = MidRoundConfig(60'000.0);
  std::stop_source caller;
  config.run.stop = caller.get_token();
  std::thread canceller([&caller] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    caller.request_stop();
  });
  const auto start = std::chrono::steady_clock::now();
  auto report = OptimizeJoinOrder(MakeChainQuery(5), config);
  const double elapsed_ms = MsSince(start);
  canceller.join();
  ASSERT_TRUE(report.ok());
  EXPECT_LT(elapsed_ms, 10'000.0);
  EXPECT_FALSE(report->portfolio.race.deadline_expired);
  EXPECT_TRUE(report->found_valid);
}

TEST(PortfolioTest, StopsMidRoundOnEarlyExit) {
  // The exact strand proves the optimum and stops the race; the SA round
  // running next to it on the pool must wind down mid-round.
  QjoConfig config = MidRoundConfig(60'000.0);
  config.portfolio.enable_exact = true;
  config.portfolio.max_exact_variables = 28;
  ThreadPool pool(2);
  config.run.pool = &pool;
  const auto start = std::chrono::steady_clock::now();
  auto report = OptimizeJoinOrder(MakePaperInstance(2), config);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(MsSince(start), 10'000.0);
  EXPECT_EQ(report->portfolio.winner, "exact");
  EXPECT_FALSE(report->portfolio.race.deadline_expired);
}

/// A random dense QUBO for races on the bare QUBO level.
Qubo MakeRandomQubo(int n, uint64_t seed) {
  Rng rng(seed);
  Qubo qubo(n);
  for (int i = 0; i < n; ++i) {
    qubo.AddLinear(i, rng.UniformDouble(-0.5, 0.5));
    for (int j = i + 1; j < n; ++j) {
      qubo.AddQuadratic(i, j, rng.UniformDouble(-0.5, 0.5));
    }
  }
  return qubo;
}

TEST(PortfolioTest, ExactStrandHonoursTheRaceDeadline) {
  // A 28-variable walk takes seconds; the race deadline must stop it
  // within one 2^16-step poll. A stopped walk publishes no incumbent and
  // proves no bound.
  const Qubo qubo = MakeRandomQubo(28, 17);
  PortfolioOptions options;
  options.sweep_budget = 0;  // bounded by the deadline only
  options.max_exact_variables = 30;
  options.enable_sa = false;
  options.enable_tabu = false;
  options.enable_sqa = false;
  options.enable_qaoa = false;
  RunContext run;
  run.deadline_ms = 20.0;
  Rng race_rng(19);
  const auto start = std::chrono::steady_clock::now();
  auto race = RaceQuboPortfolio(qubo, options, RaceHooks{}, run, race_rng);
  ASSERT_TRUE(race.ok());
  EXPECT_LT(MsSince(start), 1'000.0);
  EXPECT_TRUE(race->deadline_expired);
  const StrandOutcome& exact = race->strands[0];
  EXPECT_EQ(exact.name, "exact");
  EXPECT_TRUE(exact.eligible);
  EXPECT_FALSE(exact.feasible);
  EXPECT_FALSE(exact.hit_lower_bound);
  EXPECT_EQ(race->winner, -1);
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
  // Threads that run out of strands claim the unfinished strands' rounds,
  // and each strand commits its rounds in round order: a sweep-budget race
  // must not notice how many threads ran it.
  for (const int relations : {4, 6}) {
    const Query q = MakeChainQuery(relations);
    QjoConfig config;
    config.backend = QjoBackend::kPortfolio;
    config.portfolio.sweep_budget = 512;  // pure sweep-budget mode
    std::optional<QjoReport> baseline;
    for (int parallelism : {1, 2, 3, 4, 16}) {
      SCOPED_TRACE(testing::Message() << relations << " relations, "
                                      << parallelism << " threads");
      ThreadPool pool(parallelism);
      config.run.pool = &pool;
      auto report = OptimizeJoinOrder(q, config);
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE(report->found_valid);
      if (!baseline.has_value()) {
        baseline = *std::move(report);
        continue;
      }
      // Everything except wall-clock timings must be bit-identical.
      EXPECT_EQ(report->best_order.order(), baseline->best_order.order());
      EXPECT_EQ(report->best_cost, baseline->best_cost);
      EXPECT_EQ(report->portfolio.winner, baseline->portfolio.winner);
      EXPECT_EQ(report->portfolio.race.winner,
                baseline->portfolio.race.winner);
      EXPECT_EQ(report->portfolio.race.best_assignment,
                baseline->portfolio.race.best_assignment);
      EXPECT_EQ(report->portfolio.race.best_energy,
                baseline->portfolio.race.best_energy);
      ASSERT_EQ(report->portfolio.race.strands.size(),
                baseline->portfolio.race.strands.size());
      for (size_t s = 0; s < baseline->portfolio.race.strands.size(); ++s) {
        const StrandOutcome& got = report->portfolio.race.strands[s];
        const StrandOutcome& want = baseline->portfolio.race.strands[s];
        EXPECT_EQ(got.eligible, want.eligible) << got.name;
        EXPECT_EQ(got.rounds_completed, want.rounds_completed) << got.name;
        EXPECT_EQ(got.sweeps_completed, want.sweeps_completed) << got.name;
        EXPECT_EQ(got.best_energy, want.best_energy) << got.name;
        EXPECT_EQ(got.feasible, want.feasible) << got.name;
        if (got.feasible) {
          EXPECT_EQ(got.best_score, want.best_score) << got.name;
        }
        EXPECT_EQ(got.sweeps_to_incumbent, want.sweeps_to_incumbent)
            << got.name;
        EXPECT_EQ(got.hit_lower_bound, want.hit_lower_bound) << got.name;
        EXPECT_EQ(got.won, want.won) << got.name;
      }
    }
  }
}

TEST(PortfolioTest, CallerStopEndsASweepBudgetRaceWithoutGaps) {
  // A budget no race spends: only the caller's stop ends it. Every round a
  // thread claimed must still commit, so each sweep strand's sweeps are
  // exactly its committed rounds' sweeps.
  PortfolioOptions options;
  options.sweep_budget = int64_t{1} << 40;
  options.enable_exact = false;
  options.enable_qaoa = false;
  ThreadPool pool(4);
  RunContext run;
  run.pool = &pool;
  std::stop_source caller;
  run.stop = caller.get_token();
  std::thread canceller([&caller] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    caller.request_stop();
  });
  Rng rng(23);
  const auto start = std::chrono::steady_clock::now();
  auto race =
      RaceQuboPortfolio(MakeRandomQubo(24, 29), options, RaceHooks{}, run, rng);
  const double elapsed_ms = MsSince(start);
  canceller.join();
  ASSERT_TRUE(race.ok());
  EXPECT_LT(elapsed_ms, 5'000.0);
  EXPECT_FALSE(race->deadline_expired);
  const std::pair<int, AnnealKind> sweep_strands[] = {
      {1, AnnealKind::kSa}, {2, AnnealKind::kTabu}, {3, AnnealKind::kSqa}};
  for (const auto& [index, kind] : sweep_strands) {
    const StrandOutcome& strand = race->strands[index];
    const int64_t round_sweeps = AnnealRoundSweeps(
        kind, options.reads_per_round, options.sweeps_per_round);
    EXPECT_GT(strand.rounds_completed, 0) << strand.name;
    EXPECT_EQ(strand.sweeps_completed,
              strand.rounds_completed * round_sweeps)
        << strand.name;
  }
}

TEST(PortfolioTest, IdleThreadsTakeOverTheSqaStrandsRounds) {
  // Two strands on four threads: the threads that find no untaken strand
  // join the unfinished sqa strand (the costliest rounds) and claim its
  // rounds. Each stretch of claims records one "strand.sqa" span, so more
  // than one span means the rounds spread; the answer must be the serial
  // race's.
  PortfolioOptions options;
  options.sweep_budget = 64 * 256;  // 64 SQA rounds of 4 reads x 64 sweeps
  options.enable_exact = false;
  options.enable_tabu = false;
  options.enable_qaoa = false;
  const Qubo qubo = MakeRandomQubo(24, 31);

  Rng serial_rng(37);
  auto serial = RaceQuboPortfolio(qubo, options, RaceHooks{}, RunContext{},
                                  serial_rng);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(4);
  TraceRecorder trace;
  RunContext run;
  run.pool = &pool;
  run.trace = &trace;
  Rng rng(37);
  auto race = RaceQuboPortfolio(qubo, options, RaceHooks{}, run, rng);
  ASSERT_TRUE(race.ok());

  int sqa_stretches = 0;
  for (const TraceEvent& event : trace.Snapshot()) {
    if (event.name == "strand.sqa") ++sqa_stretches;
  }
  EXPECT_GT(sqa_stretches, 1);

  EXPECT_EQ(race->winner, serial->winner);
  EXPECT_EQ(race->best_assignment, serial->best_assignment);
  EXPECT_EQ(race->best_energy, serial->best_energy);
  for (size_t s = 0; s < race->strands.size(); ++s) {
    const StrandOutcome& got = race->strands[s];
    const StrandOutcome& want = serial->strands[s];
    EXPECT_EQ(got.rounds_completed, want.rounds_completed) << got.name;
    EXPECT_EQ(got.sweeps_completed, want.sweeps_completed) << got.name;
    EXPECT_EQ(got.best_energy, want.best_energy) << got.name;
    EXPECT_EQ(got.sweeps_to_incumbent, want.sweeps_to_incumbent) << got.name;
  }
  const StrandOutcome& sqa = race->strands[3];
  ASSERT_EQ(sqa.name, "sqa");
  EXPECT_EQ(sqa.rounds_completed, 64);
}

TEST(PortfolioTest, ValidationRejectsBadRoundBudgets) {
  const Query q = MakeChainQuery(3);
  QjoConfig bad_reads = PortfolioConfig();
  bad_reads.portfolio.reads_per_round = 0;
  EXPECT_EQ(OptimizeJoinOrder(q, bad_reads).status().code(),
            StatusCode::kInvalidArgument);

  QjoConfig bad_sweeps = PortfolioConfig();
  bad_sweeps.portfolio.sweeps_per_round = 0;
  EXPECT_EQ(OptimizeJoinOrder(q, bad_sweeps).status().code(),
            StatusCode::kInvalidArgument);

  // The one documented unbounded-config error path.
  QjoConfig unbounded = PortfolioConfig();
  unbounded.run.deadline_ms = -1.0;
  unbounded.portfolio.sweep_budget = 0;
  EXPECT_EQ(OptimizeJoinOrder(q, unbounded).status().code(),
            StatusCode::kInvalidArgument);

  // The decomp loop has no clock of its own: it needs a round budget even
  // under a race deadline.
  QjoConfig bad_decomp_rounds = PortfolioConfig();
  bad_decomp_rounds.run.deadline_ms = 100.0;
  bad_decomp_rounds.portfolio.decomp.max_rounds = 0;
  EXPECT_EQ(OptimizeJoinOrder(q, bad_decomp_rounds).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PortfolioTest, EachFlagGatesOnlyItsStrand) {
  // Two relations encode to 6 qubits, inside the exact and QAOA size
  // gates; with the decomp gate lowered all six strands race.
  const Query q = MakeChainQuery(2);
  QjoConfig config = PortfolioConfig();
  config.portfolio.sweep_budget = 64;
  config.portfolio.min_decomp_relations = 2;
  const std::vector<std::string> names = {"exact", "sa",   "tabu",
                                          "sqa",   "qaoa", "decomp"};
  bool PortfolioOptions::*const flags[] = {
      &PortfolioOptions::enable_exact, &PortfolioOptions::enable_sa,
      &PortfolioOptions::enable_tabu,  &PortfolioOptions::enable_sqa,
      &PortfolioOptions::enable_qaoa,  &PortfolioOptions::enable_decomp};
  ASSERT_EQ(std::size(flags), names.size());

  // off = -1: every flag set; otherwise only flags[off] is cleared.
  for (int off = -1; off < static_cast<int>(names.size()); ++off) {
    QjoConfig run = config;
    if (off >= 0) run.portfolio.*flags[off] = false;
    const std::string label = off < 0 ? "all on" : names[off] + " off";
    auto report = OptimizeJoinOrder(q, run);
    ASSERT_TRUE(report.ok()) << label;
    const std::vector<StrandOutcome>& strands = report->portfolio.race.strands;
    ASSERT_EQ(strands.size(), names.size()) << label;
    for (int s = 0; s < static_cast<int>(names.size()); ++s) {
      EXPECT_EQ(strands[s].name, names[s]) << label;
      EXPECT_EQ(strands[s].index, s) << label;
      EXPECT_EQ(strands[s].eligible, s != off) << label << ", " << names[s];
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
  // The decomp strand's incumbent is a join order, not a bit sample, so
  // it must not be counted as an (invalid) sample.
  EXPECT_EQ(report->stats.valid, report->stats.total);
}

TEST(PortfolioTest, DeadlineExpiryStopsTheDecompStrand) {
  // A round budget no run reaches and no stall exit: only the race
  // deadline, arriving as the race's stop, can end the decomp strand.
  const Query q = MakeChainQuery(30);
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.run.deadline_ms = 50.0;
  config.portfolio.sweep_budget = 0;  // bounded by the deadline only
  config.portfolio.enable_sqa = false;
  config.portfolio.decomp.max_rounds = 1'000'000;
  config.portfolio.decomp.stall_rounds = 0;
  ThreadPool pool(2);
  config.run.pool = &pool;
  const auto start = std::chrono::steady_clock::now();
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LT(MsSince(start), 10'000.0);
  EXPECT_TRUE(report->portfolio.race.deadline_expired);
  EXPECT_EQ(report->portfolio.winner, "decomp");
}

TEST(PortfolioTest, StopsAtTheDpOptimum) {
  // Up to the DP cap the classical plan is the optimum. Once the decomp
  // strand reaches its cost it stops the race, and the SA strand spinning
  // next to it on the pool winds down, long before the 60 s deadline.
  // The greedy seed of this 18-relation cycle is not optimal, so decomp
  // gets there only after improving it.
  Rng query_rng(2);
  QueryGenOptions gen;
  gen.num_relations = 18;
  gen.graph_type = QueryGraphType::kCycle;
  auto generated = GenerateQuery(gen, query_rng);
  ASSERT_TRUE(generated.ok());
  const Query& q = *generated;
  auto greedy = OptimizeGreedy(q);
  ASSERT_TRUE(greedy.ok());
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.run.deadline_ms = 60'000.0;
  config.portfolio.sweep_budget = 0;  // bounded by the deadline only
  ThreadPool pool(2);
  config.run.pool = &pool;
  const auto start = std::chrono::steady_clock::now();
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LT(MsSince(start), 10'000.0);
  const PortfolioReport& portfolio = report->portfolio;
  EXPECT_FALSE(portfolio.race.deadline_expired);
  EXPECT_TRUE(portfolio.race.reached_score_bound);
  EXPECT_EQ(portfolio.winner, "decomp");
  EXPECT_GT(greedy->cost, report->optimal_cost);
  EXPECT_NEAR(report->best_cost, report->optimal_cost,
              1e-12 * report->optimal_cost);
  const StrandOutcome& decomp = portfolio.race.strands[5];
  EXPECT_EQ(decomp.name, "decomp");
  EXPECT_TRUE(decomp.hit_lower_bound);
  EXPECT_GT(decomp.rounds_completed, 0);
  EXPECT_NE(portfolio.Summary().find("stopped at the DP optimum"),
            std::string::npos)
      << portfolio.Summary();
}

TEST(PortfolioTest, NoBoundPastTheDpCap) {
  // Past 22 relations the classical plan is greedy, which bounds nothing:
  // the decomp strand matching its cost must not stop the race, so the
  // SA strand runs until the deadline.
  const Query q = MakeChainQuery(23);
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.run.deadline_ms = 50.0;
  config.portfolio.sweep_budget = 0;  // bounded by the deadline only
  ThreadPool pool(2);
  config.run.pool = &pool;
  auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->found_valid);
  EXPECT_TRUE(report->portfolio.race.deadline_expired);
  EXPECT_FALSE(report->portfolio.race.reached_score_bound);
  for (const StrandOutcome& strand : report->portfolio.race.strands) {
    EXPECT_FALSE(strand.hit_lower_bound) << strand.name;
  }
}

TEST(PortfolioTest, SweepBudgetRaceIgnoresTheDpBound) {
  // A sweep-budget race never reads the bound: a 12-relation race that
  // races the decomp strand stays bit-identical across pool sizes, and no
  // strand reports reaching the bound even when it holds the optimum.
  const Query q = MakeChainQuery(12);
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.portfolio.sweep_budget = 256;  // pure sweep-budget mode
  config.portfolio.enable_sqa = false;
  std::optional<QjoReport> baseline;
  for (int parallelism : {1, 4}) {
    ThreadPool pool(parallelism);
    config.run.pool = &pool;
    auto report = OptimizeJoinOrder(q, config);
    ASSERT_TRUE(report.ok()) << "parallelism " << parallelism;
    const QuboRaceResult& race = report->portfolio.race;
    EXPECT_FALSE(race.reached_score_bound);
    ASSERT_EQ(race.strands.size(), 6u);
    EXPECT_TRUE(race.strands[5].eligible);
    // The premise: the decomp strand holds the DP optimum.
    EXPECT_TRUE(ReachesCost(race.strands[5].best_score, report->optimal_cost));
    for (const StrandOutcome& strand : race.strands) {
      EXPECT_FALSE(strand.hit_lower_bound) << strand.name;
    }
    if (!baseline.has_value()) {
      baseline = *std::move(report);
      continue;
    }
    EXPECT_EQ(report->best_order.order(), baseline->best_order.order());
    EXPECT_EQ(report->best_cost, baseline->best_cost);
    EXPECT_EQ(report->portfolio.winner, baseline->portfolio.winner);
    for (size_t s = 0; s < race.strands.size(); ++s) {
      const StrandOutcome& got = race.strands[s];
      const StrandOutcome& want = baseline->portfolio.race.strands[s];
      EXPECT_EQ(got.rounds_completed, want.rounds_completed) << got.name;
      EXPECT_EQ(got.sweeps_completed, want.sweeps_completed) << got.name;
      EXPECT_EQ(got.best_energy, want.best_energy) << got.name;
      EXPECT_EQ(got.feasible, want.feasible) << got.name;
      if (got.feasible) {
        EXPECT_EQ(got.best_score, want.best_score) << got.name;
      }
      EXPECT_EQ(got.won, want.won) << got.name;
    }
  }
}

}  // namespace
}  // namespace qjo
