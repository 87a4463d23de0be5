#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/quantum_optimizer.h"
#include "core/strand_select.h"
#include "jo/query.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

enum class Shape { kChain, kStar, kCycle, kClique };

Query MakeQuery(int relations, Shape shape) {
  Query q;
  for (int i = 0; i < relations; ++i) {
    q.AddRelation("R" + std::to_string(i), 100.0 * (i + 1));
  }
  switch (shape) {
    case Shape::kChain:
      for (int i = 0; i + 1 < relations; ++i) {
        EXPECT_TRUE(q.AddPredicate(i, i + 1, 0.1).ok());
      }
      break;
    case Shape::kStar:
      for (int i = 1; i < relations; ++i) {
        EXPECT_TRUE(q.AddPredicate(0, i, 0.1).ok());
      }
      break;
    case Shape::kCycle:
      for (int i = 0; i + 1 < relations; ++i) {
        EXPECT_TRUE(q.AddPredicate(i, i + 1, 0.1).ok());
      }
      EXPECT_TRUE(q.AddPredicate(relations - 1, 0, 0.1).ok());
      break;
    case Shape::kClique:
      for (int i = 0; i < relations; ++i) {
        for (int j = i + 1; j < relations; ++j) {
          EXPECT_TRUE(q.AddPredicate(i, j, 0.1).ok());
        }
      }
      break;
  }
  return q;
}

// --- Feature extraction. ---

TEST(FeatureExtractorTest, ClassifiesGraphShapes) {
  EXPECT_EQ(ExtractQueryFeatures(MakeQuery(5, Shape::kChain), 0).graph_class,
            "chain");
  EXPECT_EQ(ExtractQueryFeatures(MakeQuery(5, Shape::kStar), 0).graph_class,
            "star");
  EXPECT_EQ(ExtractQueryFeatures(MakeQuery(5, Shape::kCycle), 0).graph_class,
            "cycle");
  EXPECT_EQ(ExtractQueryFeatures(MakeQuery(5, Shape::kClique), 0).graph_class,
            "clique");
}

TEST(FeatureExtractorTest, BucketKeyIsDeterministicAndTokenSafe) {
  const Query q = MakeQuery(5, Shape::kChain);
  const QueryFeatures f = ExtractQueryFeatures(q, 100);
  EXPECT_EQ(f.relations, 5);
  EXPECT_EQ(f.qubo_variables, 100);
  // 4 predicates over C(5,2) = 10 pairs.
  EXPECT_DOUBLE_EQ(f.predicate_density, 0.4);
  const std::string key = FeatureBucketKey(f);
  EXPECT_EQ(key, "r4-7|chain|d1|q64-127");
  EXPECT_EQ(key.find(' '), std::string::npos);
  EXPECT_EQ(key, FeatureBucketKey(ExtractQueryFeatures(q, 100)));
}

TEST(FeatureExtractorTest, FallbackBucketUsesVariableRangeOnly) {
  EXPECT_EQ(FallbackBucketKey(1), "q1");
  EXPECT_EQ(FallbackBucketKey(100), "q64-127");
  EXPECT_EQ(FallbackBucketKey(128), "q128-255");
}

// --- Run records. ---

StrandOutcome MakeOutcome(const std::string& name, bool won, double tti_ms,
                          int64_t sweeps) {
  StrandOutcome o;
  o.name = name;
  o.eligible = true;
  o.won = won;
  o.feasible = true;
  o.time_to_incumbent_ms = tti_ms;
  o.sweeps_to_incumbent = sweeps;
  return o;
}

TEST(RunRecordStoreTest, RecordAccumulatesAndSkipsIneligible) {
  RunRecordStore store;
  StrandOutcome ineligible;
  ineligible.name = "exact";
  ineligible.eligible = false;
  store.Record("b", {MakeOutcome("sa", true, 2.0, 64), ineligible});
  store.Record("b", {MakeOutcome("sa", false, 4.0, 128)});
  EXPECT_EQ(store.BucketTrials("b"), 2u);
  const StrandRecord sa = store.Get("b", "sa");
  EXPECT_EQ(sa.trials, 2u);
  EXPECT_EQ(sa.wins, 1u);
  EXPECT_EQ(sa.feasible, 2u);
  EXPECT_DOUBLE_EQ(sa.time_to_incumbent_ms, 6.0);
  EXPECT_DOUBLE_EQ(sa.sweeps_to_incumbent, 192.0);
  // The ineligible strand carried no signal.
  EXPECT_EQ(store.Get("b", "exact").trials, 0u);
  EXPECT_EQ(store.Get("missing", "sa").trials, 0u);
}

TEST(RunRecordStoreTest, SerializeRoundTripIsByteStable) {
  RunRecordStore store;
  // Awkward doubles on purpose: %.17g must survive the round-trip.
  store.Record("r4-7|chain|d1|q64-127",
               {MakeOutcome("sa", true, 0.1 + 0.2, 64),
                MakeOutcome("tabu", false, 1.0 / 3.0, 96)});
  store.Record("q128-255", {MakeOutcome("sqa", true, 123.456789012345, 4096)});
  const std::string first = store.Serialize();
  EXPECT_EQ(first.rfind("qjo-strand-records v1\n", 0), 0u);

  RunRecordStore copy;
  ASSERT_TRUE(copy.Deserialize(first).ok());
  EXPECT_EQ(copy.Serialize(), first);
  EXPECT_EQ(copy.BucketTrials("q128-255"), 1u);
  const StrandRecord sa = copy.Get("r4-7|chain|d1|q64-127", "sa");
  EXPECT_EQ(sa.trials, 1u);
  EXPECT_DOUBLE_EQ(sa.time_to_incumbent_ms, 0.1 + 0.2);
}

TEST(RunRecordStoreTest, DeserializeRejectsMalformedInput) {
  RunRecordStore store;
  EXPECT_FALSE(store.Deserialize("not-a-records-file\n").ok());
  EXPECT_FALSE(
      store.Deserialize("qjo-strand-records v1\nbucket sa garbage\n").ok());
  // A failed load leaves the store usable and empty.
  EXPECT_EQ(store.NumBuckets(), 0u);
  EXPECT_TRUE(store.Deserialize("qjo-strand-records v1\n").ok());
}

TEST(RunRecordStoreTest, FileRoundTripAndMissingFileIsNotFound) {
  const std::string path = ::testing::TempDir() + "/qjo_strand_records.txt";
  RunRecordStore store;
  store.Record("b", {MakeOutcome("sa", true, 2.5, 64)});
  ASSERT_TRUE(store.SaveRecords(path).ok());

  RunRecordStore loaded;
  ASSERT_TRUE(loaded.LoadRecords(path).ok());
  EXPECT_EQ(loaded.Serialize(), store.Serialize());

  RunRecordStore cold;
  const Status missing =
      cold.LoadRecords(::testing::TempDir() + "/qjo_no_such_records.txt");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
}

// --- Selection. ---

AdaptiveOptions WarmOptions() {
  AdaptiveOptions options;
  options.enabled = true;
  options.min_bucket_trials = 8;
  options.throttle_divisor = 4;
  return options;
}

TEST(StrandSelectorTest, ColdStartWithoutRecordsGrantsFullBudget) {
  const StrandSelector selector(nullptr, "b", {"sa", "tabu", "sqa"},
                                WarmOptions());
  EXPECT_TRUE(selector.cold_start());
  const StrandBudget budget = selector.Allocate(0, 0, true, 4, 64, 4096);
  EXPECT_FALSE(budget.throttled);
  EXPECT_EQ(budget.reads_per_round, 4);
  EXPECT_EQ(budget.sweeps_per_round, 64);
  EXPECT_EQ(budget.sweep_budget, 4096);
}

TEST(StrandSelectorTest, ColdStartBelowMinBucketTrials) {
  RunRecordStore store;
  for (int i = 0; i < 7; ++i) {
    store.Record("b", {MakeOutcome("sa", true, 1.0, 64)});
  }
  const StrandSelector selector(&store, "b", {"sa", "tabu", "sqa"},
                                WarmOptions());
  EXPECT_TRUE(selector.cold_start());
  // One more race crosses the threshold.
  store.Record("b", {MakeOutcome("sa", true, 1.0, 64)});
  const StrandSelector warm(&store, "b", {"sa", "tabu", "sqa"},
                            WarmOptions());
  EXPECT_FALSE(warm.cold_start());
}

TEST(StrandSelectorTest, ThrottlesLowerHalfDeterministically) {
  RunRecordStore store;
  for (int i = 0; i < 8; ++i) {
    store.Record("b", {MakeOutcome("sa", true, 1.0, 64),
                       MakeOutcome("tabu", false, 9.0, 512),
                       MakeOutcome("sqa", false, 9.0, 512)});
  }
  const StrandSelector selector(&store, "b", {"sa", "tabu", "sqa"},
                                WarmOptions());
  ASSERT_FALSE(selector.cold_start());
  // sa's win rate dominates; tabu and sqa tie and the tie breaks by
  // index, so sqa (the lower rank) is the one throttled half.
  EXPECT_GT(selector.UcbScore(0), selector.UcbScore(1));
  EXPECT_FALSE(selector.Throttled(0, /*throttleable=*/true));
  EXPECT_FALSE(selector.Throttled(1, /*throttleable=*/true));
  EXPECT_TRUE(selector.Throttled(2, /*throttleable=*/true));
  // Non-throttleable strands keep full budget regardless of rank.
  EXPECT_FALSE(selector.Throttled(2, /*throttleable=*/false));

  const StrandBudget full = selector.Allocate(0, 0, true, 4, 64, 4096);
  EXPECT_FALSE(full.throttled);
  EXPECT_EQ(full.sweep_budget, 4096);
  const StrandBudget cut = selector.Allocate(2, 0, true, 4, 64, 4096);
  EXPECT_TRUE(cut.throttled);
  EXPECT_EQ(cut.reads_per_round, 1);      // 4 / divisor, floor 1
  EXPECT_EQ(cut.sweeps_per_round, 64);    // rounds shrink, sweeps don't
  EXPECT_EQ(cut.sweep_budget, 4096 / 4);  // never below one round
  EXPECT_GE(cut.sweep_budget,
            static_cast<int64_t>(cut.reads_per_round) * cut.sweeps_per_round);
}

TEST(StrandSelectorTest, UntriedArmIsNeverThrottled) {
  RunRecordStore store;
  for (int i = 0; i < 8; ++i) {
    store.Record("b", {MakeOutcome("sa", true, 1.0, 64),
                       MakeOutcome("tabu", false, 9.0, 512),
                       MakeOutcome("sqa", false, 9.0, 512)});
  }
  // "fresh" never appears in the records: optimism under uncertainty
  // must rank it at the top, pushing a known-bad arm into the throttled
  // half instead.
  const StrandSelector selector(&store, "b", {"sa", "tabu", "sqa", "fresh"},
                                WarmOptions());
  ASSERT_FALSE(selector.cold_start());
  EXPECT_FALSE(selector.Throttled(3, /*throttleable=*/true));
  EXPECT_TRUE(selector.Throttled(2, /*throttleable=*/true));
}

// --- Registry. ---

TEST(StrandRegistryTest, DefaultRegistryKeepsLegacyOrderAndStreams) {
  const StrandRegistry& registry = StrandRegistry::Default();
  const std::vector<std::string> expected = {"exact", "sa",   "tabu",
                                             "sqa",   "qaoa", "decomp"};
  EXPECT_EQ(registry.Names(), expected);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(registry.IndexOf(expected[i]), static_cast<int>(i));
    // RNG stream ids are the registration indices: the cold-start race
    // stays bit-identical to the pre-registry fixed fan-out.
    EXPECT_EQ(registry.strands()[i].rng_stream, i);
  }
  EXPECT_EQ(registry.IndexOf("nope"), -1);
}

TEST(StrandRegistryTest, RegisterRejectsBadDescriptors) {
  StrandRegistry registry;
  StrandDesc missing_run;
  missing_run.name = "x";
  EXPECT_EQ(registry.Register(missing_run).code(),
            StatusCode::kInvalidArgument);
  StrandDesc ok;
  ok.name = "x";
  ok.run = [](const StrandRunEnv&, Rng&) {};
  EXPECT_TRUE(registry.Register(ok).ok());
  StrandDesc dup = ok;
  EXPECT_EQ(registry.Register(dup).code(), StatusCode::kInvalidArgument);
  StrandDesc spacey = ok;
  spacey.name = "a b";
  EXPECT_EQ(registry.Register(spacey).code(), StatusCode::kInvalidArgument);
}

// --- End-to-end adaptive races. ---

QjoConfig PortfolioConfig() {
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.portfolio.sweep_budget = 512;  // pure sweep-budget mode
  return config;
}

void ExpectReportsBitIdentical(const QjoReport& got, const QjoReport& want) {
  EXPECT_EQ(got.found_valid, want.found_valid);
  EXPECT_EQ(got.best_order.order(), want.best_order.order());
  EXPECT_EQ(got.best_cost, want.best_cost);
  EXPECT_EQ(got.portfolio.winner, want.portfolio.winner);
  EXPECT_EQ(got.portfolio.race.winner, want.portfolio.race.winner);
  EXPECT_EQ(got.portfolio.race.best_energy, want.portfolio.race.best_energy);
  EXPECT_EQ(got.portfolio.race.best_assignment,
            want.portfolio.race.best_assignment);
  EXPECT_EQ(got.portfolio.race.feature_bucket,
            want.portfolio.race.feature_bucket);
  EXPECT_EQ(got.portfolio.race.adaptive_applied,
            want.portfolio.race.adaptive_applied);
  ASSERT_EQ(got.portfolio.race.strands.size(),
            want.portfolio.race.strands.size());
  for (size_t s = 0; s < want.portfolio.race.strands.size(); ++s) {
    const StrandOutcome& g = got.portfolio.race.strands[s];
    const StrandOutcome& w = want.portfolio.race.strands[s];
    EXPECT_EQ(g.name, w.name) << "strand " << s;
    EXPECT_EQ(g.eligible, w.eligible) << "strand " << s;
    EXPECT_EQ(g.allocation.reads_per_round, w.allocation.reads_per_round)
        << "strand " << s;
    EXPECT_EQ(g.allocation.sweep_budget, w.allocation.sweep_budget)
        << "strand " << s;
    EXPECT_EQ(g.allocation.throttled, w.allocation.throttled)
        << "strand " << s;
    EXPECT_EQ(g.rounds_completed, w.rounds_completed) << "strand " << s;
    EXPECT_EQ(g.sweeps_completed, w.sweeps_completed) << "strand " << s;
    EXPECT_EQ(g.best_energy, w.best_energy) << "strand " << s;
    EXPECT_EQ(g.feasible, w.feasible) << "strand " << s;
    EXPECT_EQ(g.sweeps_to_incumbent, w.sweeps_to_incumbent) << "strand " << s;
    EXPECT_EQ(g.won, w.won) << "strand " << s;
  }
}

TEST(PortfolioAdaptiveTest, ColdStartBitIdenticalToFixedRace) {
  const Query q = MakeQuery(4, Shape::kChain);
  QjoConfig fixed = PortfolioConfig();
  const auto baseline = OptimizeJoinOrder(q, fixed);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  RunRecordStore empty;
  QjoConfig adaptive = PortfolioConfig();
  adaptive.portfolio.adaptive.enabled = true;
  adaptive.portfolio.adaptive.records = &empty;
  adaptive.portfolio.adaptive.record = false;
  const auto report = OptimizeJoinOrder(q, adaptive);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->portfolio.race.adaptive_applied);
  EXPECT_FALSE(report->portfolio.race.feature_bucket.empty());

  // An empty store means the fixed race, bit for bit (modulo the
  // adaptive bookkeeping fields the fixed run leaves blank).
  EXPECT_EQ(report->best_order.order(), baseline->best_order.order());
  EXPECT_EQ(report->best_cost, baseline->best_cost);
  EXPECT_EQ(report->portfolio.winner, baseline->portfolio.winner);
  EXPECT_EQ(report->portfolio.race.best_energy,
            baseline->portfolio.race.best_energy);
  EXPECT_EQ(report->portfolio.race.best_assignment,
            baseline->portfolio.race.best_assignment);
  ASSERT_EQ(report->portfolio.race.strands.size(),
            baseline->portfolio.race.strands.size());
  for (size_t s = 0; s < baseline->portfolio.race.strands.size(); ++s) {
    EXPECT_EQ(report->portfolio.race.strands[s].sweeps_completed,
              baseline->portfolio.race.strands[s].sweeps_completed);
    EXPECT_EQ(report->portfolio.race.strands[s].best_energy,
              baseline->portfolio.race.strands[s].best_energy);
  }
}

TEST(PortfolioAdaptiveTest, RecordsAreFedAtRaceEpilogue) {
  const Query q = MakeQuery(4, Shape::kChain);
  RunRecordStore store;
  QjoConfig config = PortfolioConfig();
  config.portfolio.adaptive.enabled = true;
  config.portfolio.adaptive.records = &store;
  const auto report = OptimizeJoinOrder(q, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string bucket = report->portfolio.race.feature_bucket;
  ASSERT_FALSE(bucket.empty());
  EXPECT_EQ(store.BucketTrials(bucket), 1u);
  // The winner's record carries the win.
  EXPECT_EQ(store.Get(bucket, report->portfolio.winner).wins, 1u);
}

TEST(PortfolioAdaptiveTest, WarmRaceBitIdenticalAcrossParallelism) {
  const Query q = MakeQuery(4, Shape::kChain);

  // Learn the bucket key once, then fabricate a decisive history: the
  // replay contract only cares that the snapshot is fixed, not earned.
  RunRecordStore probe;
  QjoConfig probe_config = PortfolioConfig();
  probe_config.portfolio.adaptive.enabled = true;
  probe_config.portfolio.adaptive.records = &probe;
  const auto probed = OptimizeJoinOrder(q, probe_config);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  const std::string bucket = probed->portfolio.race.feature_bucket;
  ASSERT_FALSE(bucket.empty());

  RunRecordStore store;
  for (int i = 0; i < 16; ++i) {
    store.Record(bucket, {MakeOutcome("sa", true, 1.0, 64),
                          MakeOutcome("tabu", false, 8.0, 512),
                          MakeOutcome("sqa", false, 20.0, 512)});
  }
  // A frozen snapshot: the races below must not feed back into it.
  const std::string frozen = store.Serialize();

  std::optional<QjoReport> baseline;
  for (int parallelism : {1, 4, 8}) {
    QjoConfig config = PortfolioConfig();
    config.portfolio.adaptive.enabled = true;
    config.portfolio.adaptive.records = &store;
    config.portfolio.adaptive.record = false;
    ThreadPool pool(parallelism);
    config.run.pool = &pool;
    const auto report = OptimizeJoinOrder(q, config);
    ASSERT_TRUE(report.ok()) << "parallelism " << parallelism << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->found_valid);
    EXPECT_TRUE(report->portfolio.race.adaptive_applied);
    // The bandit actually intervened: some strand runs on a cut budget.
    bool any_throttled = false;
    for (const StrandOutcome& s : report->portfolio.race.strands) {
      any_throttled = any_throttled || s.allocation.throttled;
    }
    EXPECT_TRUE(any_throttled);
    if (!baseline.has_value()) {
      baseline = *report;
      continue;
    }
    ExpectReportsBitIdentical(*report, *baseline);
  }
  EXPECT_EQ(store.Serialize(), frozen);
}

TEST(PortfolioAdaptiveTest, ValidationRejectsBadRoundBudgets) {
  const Query q = MakeQuery(3, Shape::kChain);
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
}

}  // namespace
}  // namespace qjo
