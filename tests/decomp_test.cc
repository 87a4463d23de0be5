#include "decomp/decomp.h"

#include <limits>
#include <optional>
#include <stop_token>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "jo/classical.h"
#include "jo/join_tree.h"
#include "jo/query.h"
#include "jo/query_generator.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

Query MakeGraphQuery(QueryGraphType type, int relations, uint64_t seed) {
  Rng rng(seed);
  QueryGenOptions gen;
  gen.num_relations = relations;
  gen.graph_type = type;
  gen.min_log_card = 2.0;
  gen.max_log_card = 4.0;
  auto query = GenerateQuery(gen, rng);
  EXPECT_TRUE(query.ok());
  return *std::move(query);
}

/// Fast test budgets: two LNS rounds with small sub-solver sweeps are
/// enough to exercise every stage (partition, sub-solve, stitch, repair).
DecompOptions FastOptions() {
  DecompOptions options;
  options.max_rounds = 2;
  options.stall_rounds = 0;  // always run both partition phases
  options.subsolver_reads = 2;
  options.subsolver_sweeps = 24;
  return options;
}

TEST(PartitionWindowsTest, DisjointCoverWithoutPhase) {
  const auto windows = PartitionWindows(30, 9, 0);
  ASSERT_EQ(windows.size(), 4u);
  int expected_start = 0;
  for (const DecompWindow& w : windows) {
    EXPECT_EQ(w.start, expected_start);
    EXPECT_GE(w.length, 2);
    expected_start += w.length;
  }
  EXPECT_EQ(expected_start, 30);  // disjoint and complete
  EXPECT_EQ(windows.back().length, 3);  // trailing partial window
}

TEST(PartitionWindowsTest, PhaseShiftsTheCutPoints) {
  const auto windows = PartitionWindows(30, 9, 4);
  ASSERT_FALSE(windows.empty());
  // Leading partial window of `phase` positions, then full windows.
  EXPECT_EQ(windows[0].start, 0);
  EXPECT_EQ(windows[0].length, 4);
  EXPECT_EQ(windows[1].start, 4);
  EXPECT_EQ(windows[1].length, 9);
  int covered = 0;
  for (const DecompWindow& w : windows) covered += w.length;
  EXPECT_EQ(covered, 30);
}

TEST(PartitionWindowsTest, DropsDegenerateWindows) {
  // t=5, window=4: the trailing window would be a single position.
  const auto windows = PartitionWindows(5, 4, 0);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].length, 4);
  // A window larger than t yields one full-span window.
  const auto whole = PartitionWindows(5, 9, 0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].start, 0);
  EXPECT_EQ(whole[0].length, 5);
}

TEST(BuildWindowSubproblemTest, FoldsPrefixIntoPseudoRelation) {
  Query q;
  for (int i = 0; i < 5; ++i) {
    q.AddRelation(std::string("R").append(std::to_string(i)), 10.0 * (i + 1));
  }
  for (int i = 0; i + 1 < 5; ++i) {
    ASSERT_TRUE(q.AddPredicate(i, i + 1, 0.5).ok());
  }
  const std::vector<int> order = {0, 1, 2, 3, 4};
  auto sub = BuildWindowSubproblem(q, order, DecompWindow{2, 3});
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub->has_prefix);
  EXPECT_EQ(sub->relations, (std::vector<int>{2, 3, 4}));
  ASSERT_EQ(sub->subquery.num_relations(), 4);
  // Pseudo-relation 0 carries the joined prefix cardinality |R0 ⋈ R1|.
  EXPECT_DOUBLE_EQ(sub->subquery.relation(0).cardinality,
                   q.JoinCardinality(0b11));
  // The chain edge (1,2) becomes a prefix predicate; (2,3) and (3,4)
  // carry over window-internally. Nothing else.
  ASSERT_EQ(sub->subquery.num_predicates(), 3);
  EXPECT_DOUBLE_EQ(sub->subquery.SelectivityBetween(0b1, 1), 0.5);
  EXPECT_DOUBLE_EQ(sub->subquery.SelectivityBetween(0b10, 2), 0.5);
  EXPECT_DOUBLE_EQ(sub->subquery.SelectivityBetween(0b100, 3), 0.5);
  // Cost equivalence: appending the window relations to the prefix adds
  // the same intermediates in the subquery as in the full query.
  const CostBreakdown full = EvaluateCost(q, LeftDeepOrder(order));
  const CostBreakdown local =
      EvaluateCost(sub->subquery, LeftDeepOrder({0, 1, 2, 3}));
  ASSERT_EQ(local.intermediate_cardinalities.size(), 3u);
  EXPECT_DOUBLE_EQ(local.intermediate_cardinalities[0],
                   full.intermediate_cardinalities[1]);
  EXPECT_DOUBLE_EQ(local.intermediate_cardinalities[1],
                   full.intermediate_cardinalities[2]);
  EXPECT_DOUBLE_EQ(local.intermediate_cardinalities[2],
                   full.intermediate_cardinalities[3]);
}

TEST(BuildWindowSubproblemTest, LeadingWindowHasNoPrefix) {
  Query q;
  for (int i = 0; i < 4; ++i) {
    q.AddRelation(std::string("R").append(std::to_string(i)), 10.0);
  }
  ASSERT_TRUE(q.AddPredicate(0, 1, 0.5).ok());
  const std::vector<int> order = {3, 2, 1, 0};
  auto sub = BuildWindowSubproblem(q, order, DecompWindow{0, 2});
  ASSERT_TRUE(sub.ok());
  EXPECT_FALSE(sub->has_prefix);
  EXPECT_EQ(sub->relations, (std::vector<int>{3, 2}));
  EXPECT_EQ(sub->subquery.num_relations(), 2);
  EXPECT_EQ(sub->subquery.num_predicates(), 0);  // 3-2 are not connected
}

TEST(DecompTest, RejectsDegenerateInputs) {
  Query tiny;
  tiny.AddRelation("R0", 10.0);
  DecompOptions options;
  Rng rng(1);
  EXPECT_FALSE(OptimizeJoinOrderDecomposed(tiny, options, {}, rng).ok());

  Query q = MakeGraphQuery(QueryGraphType::kChain, 5, 11);
  DecompOptions unbounded;
  unbounded.max_rounds = 0;
  RunContext run;
  run.deadline_ms = -1.0;
  EXPECT_FALSE(OptimizeJoinOrderDecomposed(q, unbounded, run, rng).ok());
  // The loop checks no clock, so a deadline does not bound it either.
  run.deadline_ms = 100.0;
  EXPECT_FALSE(OptimizeJoinOrderDecomposed(q, unbounded, run, rng).ok());
}

struct LargeCase {
  QueryGraphType type;
  int relations;
};

class DecompLargeQueryTest : public ::testing::TestWithParam<LargeCase> {};

TEST_P(DecompLargeQueryTest, ValidTreeCostAtMostGreedy) {
  const LargeCase c = GetParam();
  const Query q = MakeGraphQuery(c.type, c.relations, 31 + c.relations);
  Rng rng(7);
  auto report = OptimizeJoinOrderDecomposed(q, FastOptions(), {}, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Valid join tree covering every relation.
  auto valid = LeftDeepOrder::Create(report->order.order(), q);
  ASSERT_TRUE(valid.ok()) << QueryGraphTypeName(c.type);
  // Never worse than the greedy seed, and self-consistent.
  const auto greedy = OptimizeGreedy(q);
  ASSERT_TRUE(greedy.ok());
  EXPECT_DOUBLE_EQ(report->greedy_cost, greedy->cost);
  EXPECT_LE(report->cost, greedy->cost);
  EXPECT_DOUBLE_EQ(report->cost, Cost(q, report->order));
  EXPECT_GT(report->rounds, 0);
  EXPECT_GT(report->windows_solved, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecompLargeQueryTest,
    ::testing::Values(LargeCase{QueryGraphType::kChain, 30},
                      LargeCase{QueryGraphType::kStar, 30},
                      LargeCase{QueryGraphType::kCycle, 30},
                      LargeCase{QueryGraphType::kClique, 30},
                      LargeCase{QueryGraphType::kChain, 50},
                      LargeCase{QueryGraphType::kCycle, 50}));

TEST(DecompTest, DeterministicAcrossParallelism) {
  const Query q = MakeGraphQuery(QueryGraphType::kCycle, 30, 23);
  std::optional<DecompReport> baseline;
  for (int parallelism : {1, 4, 8}) {
    ThreadPool pool(parallelism);
    RunContext run;
    run.pool = &pool;
    Rng rng(99);
    auto report = OptimizeJoinOrderDecomposed(q, FastOptions(), run, rng);
    ASSERT_TRUE(report.ok()) << "parallelism " << parallelism;
    if (!baseline.has_value()) {
      baseline = *std::move(report);
      continue;
    }
    // A rounds-bounded run is bit-identical at every parallelism level.
    EXPECT_EQ(report->order.order(), baseline->order.order())
        << "parallelism " << parallelism;
    EXPECT_EQ(report->cost, baseline->cost);
    EXPECT_EQ(report->rounds, baseline->rounds);
    EXPECT_EQ(report->windows_solved, baseline->windows_solved);
    EXPECT_EQ(report->improvements, baseline->improvements);
    EXPECT_EQ(report->repairs, baseline->repairs);
  }
}

TEST(DecompTest, StopTokenShortCircuits) {
  const Query q = MakeGraphQuery(QueryGraphType::kChain, 30, 17);
  std::stop_source stop;
  stop.request_stop();  // pre-cancelled
  RunContext run;
  run.stop = stop.get_token();
  Rng rng(3);
  auto report = OptimizeJoinOrderDecomposed(q, FastOptions(), run, rng);
  ASSERT_TRUE(report.ok());
  // Still a valid plan (the greedy seed), with no rounds run.
  EXPECT_EQ(report->rounds, 0);
  auto valid = LeftDeepOrder::Create(report->order.order(), q);
  EXPECT_TRUE(valid.ok());
  EXPECT_DOUBLE_EQ(report->cost, report->greedy_cost);
}

TEST(DecompTest, GreedyTargetEndsBeforeTheFirstRound) {
  const Query q = MakeGraphQuery(QueryGraphType::kCycle, 30, 29);
  const auto greedy = OptimizeGreedy(q);
  ASSERT_TRUE(greedy.ok());
  Rng rng(3);
  auto report =
      OptimizeJoinOrderDecomposed(q, FastOptions(), {}, rng, greedy->cost);
  ASSERT_TRUE(report.ok());
  // The seed already meets the target: round 0 never starts.
  EXPECT_EQ(report->rounds, 0);
  EXPECT_EQ(report->windows_solved, 0);
  EXPECT_EQ(report->order.order(), greedy->order.order());
  EXPECT_EQ(report->cost, greedy->cost);
}

TEST(DecompTest, UnreachedTargetChangesNothing) {
  const Query q = MakeGraphQuery(QueryGraphType::kCycle, 30, 29);
  Rng default_rng(3);
  auto want = OptimizeJoinOrderDecomposed(q, FastOptions(), {}, default_rng);
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want->rounds, 0);
  // No cost reaches 0 (every join result has at least one row), and
  // -infinity is the default's "no target" spelled out.
  for (const double target : {0.0, -std::numeric_limits<double>::infinity()}) {
    Rng rng(3);
    auto got = OptimizeJoinOrderDecomposed(q, FastOptions(), {}, rng, target);
    ASSERT_TRUE(got.ok()) << target;
    EXPECT_EQ(got->order.order(), want->order.order()) << target;
    EXPECT_EQ(got->cost, want->cost) << target;
    EXPECT_EQ(got->greedy_cost, want->greedy_cost) << target;
    EXPECT_EQ(got->rounds, want->rounds) << target;
    EXPECT_EQ(got->windows_solved, want->windows_solved) << target;
    EXPECT_EQ(got->improvements, want->improvements) << target;
    EXPECT_EQ(got->repairs, want->repairs) << target;
  }
}

TEST(DecompTest, ObservabilityRecordsSpansAndCounters) {
  const Query q = MakeGraphQuery(QueryGraphType::kStar, 30, 13);
  TraceRecorder trace;
  MetricsRegistry metrics;
  RunContext run;
  run.trace = &trace;
  run.metrics = &metrics;
  Rng rng(7);
  auto report = OptimizeJoinOrderDecomposed(q, FastOptions(), run, rng);
  ASSERT_TRUE(report.ok());
  const std::vector<TraceEvent> events = trace.Snapshot();
  const auto has_span = [&](const std::string& name) {
    for (const TraceEvent& e : events) {
      if (e.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span("decomp.partition"));
  EXPECT_TRUE(has_span("decomp.subsolve.0"));
  EXPECT_TRUE(has_span("decomp.stitch"));
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counters.at("decomp.rounds"),
            static_cast<uint64_t>(report->rounds));
  EXPECT_EQ(snapshot.counters.at("decomp.windows_solved"),
            static_cast<uint64_t>(report->windows_solved));
  EXPECT_TRUE(snapshot.counters.contains("decomp.improvements"));
  EXPECT_TRUE(snapshot.counters.contains("decomp.repairs"));
}

}  // namespace
}  // namespace qjo
