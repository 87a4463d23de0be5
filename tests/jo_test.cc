#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "jo/classical.h"
#include "jo/classical_reference.h"
#include "jo/join_tree.h"
#include "jo/query.h"
#include "jo/query_generator.h"
#include "util/random.h"

namespace qjo {
namespace {

/// The running example of Sec. 3: R, S, T with |.|=100 and Sel(p_RS)=0.1.
Query MakeExampleQuery() {
  Query q;
  q.AddRelation("R", 100);
  q.AddRelation("S", 100);
  q.AddRelation("T", 100);
  EXPECT_TRUE(q.AddPredicate(0, 1, 0.1).ok());
  return q;
}

TEST(QueryTest, PredicateValidation) {
  Query q;
  q.AddRelation("R", 10);
  q.AddRelation("S", 10);
  EXPECT_TRUE(q.AddPredicate(0, 1, 0.5).ok());
  EXPECT_FALSE(q.AddPredicate(0, 0, 0.5).ok());
  EXPECT_FALSE(q.AddPredicate(0, 2, 0.5).ok());
  EXPECT_FALSE(q.AddPredicate(0, 1, 0.0).ok());
  EXPECT_FALSE(q.AddPredicate(0, 1, 1.5).ok());
  EXPECT_FALSE(q.AddPredicate(0, 1, -0.1).ok());
}

TEST(QueryTest, JoinCardinalityAppliesInternalPredicates) {
  const Query q = MakeExampleQuery();
  EXPECT_DOUBLE_EQ(q.JoinCardinality(0b011), 100.0 * 100.0 * 0.1);  // R,S
  EXPECT_DOUBLE_EQ(q.JoinCardinality(0b101), 100.0 * 100.0);        // R,T
  EXPECT_DOUBLE_EQ(q.JoinCardinality(0b111), 100.0 * 100.0 * 100.0 * 0.1);
}

TEST(QueryTest, SelectivityBetween) {
  const Query q = MakeExampleQuery();
  EXPECT_DOUBLE_EQ(q.SelectivityBetween(0b001, 1), 0.1);  // S joins {R}
  EXPECT_DOUBLE_EQ(q.SelectivityBetween(0b001, 2), 1.0);  // T joins {R}
  EXPECT_DOUBLE_EQ(q.SelectivityBetween(0b010, 0), 0.1);  // symmetric
}

TEST(QueryTest, NumJoins) {
  EXPECT_EQ(MakeExampleQuery().num_joins(), 2);
}

TEST(CostModelTest, Example33Costs) {
  // (R ⋈ S) ⋈ T: intermediate 1,000, final 1,000 * 100 = 100,000.
  const Query q = MakeExampleQuery();
  const LeftDeepOrder rst({0, 1, 2});
  const CostBreakdown c = EvaluateCost(q, rst);
  ASSERT_EQ(c.intermediate_cardinalities.size(), 2u);
  EXPECT_DOUBLE_EQ(c.intermediate_cardinalities[0], 1000.0);
  EXPECT_DOUBLE_EQ(c.intermediate_cardinalities[1], 100000.0);
  EXPECT_DOUBLE_EQ(c.total_cost, 101000.0);
}

TEST(CostModelTest, CrossProductOrderCostsMore) {
  const Query q = MakeExampleQuery();
  // (R ⋈ T) needs a cross product: intermediate 10,000.
  EXPECT_GT(Cost(q, LeftDeepOrder({0, 2, 1})),
            Cost(q, LeftDeepOrder({0, 1, 2})));
}

TEST(CostModelTest, FinalResultCardinalityOrderIndependent) {
  Rng rng(5);
  QueryGenOptions options;
  options.num_relations = 5;
  options.graph_type = QueryGraphType::kChain;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  std::vector<int> perm(5);
  std::iota(perm.begin(), perm.end(), 0);
  const double reference =
      EvaluateCost(*q, LeftDeepOrder(perm)).intermediate_cardinalities.back();
  for (int i = 0; i < 10; ++i) {
    rng.Shuffle(perm);
    const double final_card =
        EvaluateCost(*q, LeftDeepOrder(perm)).intermediate_cardinalities.back();
    EXPECT_NEAR(final_card / reference, 1.0, 1e-9);
  }
}

TEST(CostModelTest, ReachesCostWithinRelativeTolerance) {
  const double optimum = 1.5e6;
  EXPECT_TRUE(ReachesCost(optimum, optimum));
  EXPECT_TRUE(ReachesCost(optimum * (1.0 + 1e-13), optimum));
  EXPECT_TRUE(ReachesCost(optimum * 0.5, optimum));
  EXPECT_FALSE(ReachesCost(optimum * (1.0 + 1e-11), optimum));
  // -infinity is "no target": nothing reaches it, not even -infinity.
  const double none = -std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ReachesCost(0.0, none));
  EXPECT_FALSE(ReachesCost(none, none));
}

TEST(LeftDeepOrderTest, CreateValidation) {
  const Query q = MakeExampleQuery();
  EXPECT_TRUE(LeftDeepOrder::Create({0, 1, 2}, q).ok());
  EXPECT_FALSE(LeftDeepOrder::Create({0, 1}, q).ok());
  EXPECT_FALSE(LeftDeepOrder::Create({0, 1, 1}, q).ok());
  EXPECT_FALSE(LeftDeepOrder::Create({0, 1, 3}, q).ok());
}

TEST(LeftDeepOrderTest, ToStringNesting) {
  const Query q = MakeExampleQuery();
  EXPECT_EQ(LeftDeepOrder({0, 1, 2}).ToString(q), "(R ⋈ S) ⋈ T");
}

TEST(QueryGeneratorTest, ChainShape) {
  Rng rng(1);
  QueryGenOptions options;
  options.num_relations = 6;
  options.graph_type = QueryGraphType::kChain;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_relations(), 6);
  EXPECT_EQ(q->num_predicates(), 5);
  for (int p = 0; p < q->num_predicates(); ++p) {
    EXPECT_EQ(q->predicate(p).right - q->predicate(p).left, 1);
  }
}

TEST(QueryGeneratorTest, StarShape) {
  Rng rng(2);
  QueryGenOptions options;
  options.num_relations = 6;
  options.graph_type = QueryGraphType::kStar;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_predicates(), 5);
  for (int p = 0; p < q->num_predicates(); ++p) {
    EXPECT_EQ(q->predicate(p).left, 0);
  }
}

TEST(QueryGeneratorTest, CycleShape) {
  Rng rng(3);
  QueryGenOptions options;
  options.num_relations = 6;
  options.graph_type = QueryGraphType::kCycle;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_predicates(), 6);  // one more than chain
}

TEST(QueryGeneratorTest, CliqueShape) {
  Rng rng(4);
  QueryGenOptions options;
  options.num_relations = 5;
  options.graph_type = QueryGraphType::kClique;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_predicates(), 10);
}

TEST(QueryGeneratorTest, RejectsTooFewRelations) {
  Rng rng(5);
  QueryGenOptions options;
  options.num_relations = 1;
  EXPECT_FALSE(GenerateQuery(options, rng).ok());
  options.num_relations = 2;
  options.graph_type = QueryGraphType::kCycle;
  EXPECT_FALSE(GenerateQuery(options, rng).ok());
}

TEST(QueryGeneratorTest, IntegerLogValues) {
  Rng rng(6);
  QueryGenOptions options;
  options.num_relations = 8;
  options.integer_log_values = true;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  for (const Relation& rel : q->relations()) {
    const double log_card = std::log10(rel.cardinality);
    EXPECT_NEAR(log_card, std::round(log_card), 1e-9);
  }
  for (const Predicate& p : q->predicates()) {
    const double log_sel = std::log10(p.selectivity);
    EXPECT_NEAR(log_sel, std::round(log_sel), 1e-9);
  }
}

TEST(QueryGeneratorTest, PredicateCountScenarios) {
  Rng rng(7);
  QueryGenOptions options;
  options.num_relations = 3;
  for (int p = 0; p <= 3; ++p) {
    auto q = GenerateQueryWithPredicateCount(options, p, rng);
    ASSERT_TRUE(q.ok()) << p;
    EXPECT_EQ(q->num_predicates(), p);
  }
  EXPECT_FALSE(GenerateQueryWithPredicateCount(options, 4, rng).ok());
}

TEST(ClassicalTest, ExhaustiveMatchesHandComputedOptimum) {
  const Query q = MakeExampleQuery();
  auto result = OptimizeExhaustive(q);
  ASSERT_TRUE(result.ok());
  // Optimal orders start with the selective R-S join.
  EXPECT_DOUBLE_EQ(result->cost, 101000.0);
  EXPECT_EQ(result->order[2], 2);
}

TEST(ClassicalTest, ExhaustiveRejectsLargeInputs) {
  Rng rng(8);
  QueryGenOptions options;
  options.num_relations = 12;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(OptimizeExhaustive(*q).ok());
}

struct DpCase {
  QueryGraphType type;
  int relations;
  uint64_t seed;
};

class DpMatchesExhaustiveTest : public ::testing::TestWithParam<DpCase> {};

TEST_P(DpMatchesExhaustiveTest, SameOptimalCost) {
  const DpCase& c = GetParam();
  Rng rng(c.seed);
  QueryGenOptions options;
  options.num_relations = c.relations;
  options.graph_type = c.type;
  options.integer_log_values = false;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  auto exhaustive = OptimizeExhaustive(*q);
  auto dp = OptimizeDp(*q);
  ASSERT_TRUE(exhaustive.ok());
  ASSERT_TRUE(dp.ok());
  EXPECT_NEAR(dp->cost / exhaustive->cost, 1.0, 1e-9);
  // DP's reported cost must agree with re-evaluating its own order.
  EXPECT_NEAR(Cost(*q, dp->order) / dp->cost, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DpMatchesExhaustiveTest,
    ::testing::Values(DpCase{QueryGraphType::kChain, 4, 11},
                      DpCase{QueryGraphType::kChain, 6, 12},
                      DpCase{QueryGraphType::kChain, 7, 13},
                      DpCase{QueryGraphType::kStar, 4, 14},
                      DpCase{QueryGraphType::kStar, 6, 15},
                      DpCase{QueryGraphType::kStar, 7, 16},
                      DpCase{QueryGraphType::kCycle, 4, 17},
                      DpCase{QueryGraphType::kCycle, 6, 18},
                      DpCase{QueryGraphType::kCycle, 7, 19},
                      DpCase{QueryGraphType::kClique, 5, 20},
                      DpCase{QueryGraphType::kClique, 6, 21}));

TEST(ClassicalTest, HeuristicsNeverBeatDp) {
  for (uint64_t seed = 40; seed < 50; ++seed) {
    Rng rng(seed);
    QueryGenOptions options;
    options.num_relations = 7;
    options.graph_type =
        seed % 2 == 0 ? QueryGraphType::kChain : QueryGraphType::kStar;
    auto q = GenerateQuery(options, rng);
    ASSERT_TRUE(q.ok());
    auto dp = OptimizeDp(*q);
    auto greedy = OptimizeGreedy(*q);
    ASSERT_TRUE(dp.ok());
    ASSERT_TRUE(greedy.ok());
    EXPECT_GE(greedy->cost, dp->cost * (1.0 - 1e-9));
    Rng ii_rng(seed);
    auto ii = OptimizeIterativeImprovement(*q, ii_rng, 5);
    ASSERT_TRUE(ii.ok());
    EXPECT_GE(ii->cost, dp->cost * (1.0 - 1e-9));
    // Both heuristics must report costs consistent with their orders.
    EXPECT_NEAR(Cost(*q, greedy->order) / greedy->cost, 1.0, 1e-9);
    EXPECT_NEAR(Cost(*q, ii->order) / ii->cost, 1.0, 1e-9);
  }
}

TEST(ClassicalTest, DpHandlesLargerInstances) {
  Rng rng(99);
  QueryGenOptions options;
  options.num_relations = 16;
  options.graph_type = QueryGraphType::kChain;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  auto dp = OptimizeDp(*q);
  ASSERT_TRUE(dp.ok());
  EXPECT_EQ(dp->order.size(), 16);
}

TEST(ClassicalTest, DpRefusesPastMemoryCapWithByteEstimate) {
  Rng rng(7);
  QueryGenOptions options;
  options.num_relations = kMaxDpRelations + 1;
  options.graph_type = QueryGraphType::kChain;
  auto q = GenerateQuery(options, rng);
  ASSERT_TRUE(q.ok());
  auto dp = OptimizeDp(*q);
  ASSERT_FALSE(dp.ok());
  EXPECT_EQ(dp.status().code(), StatusCode::kResourceExhausted);
  // The refusal explains itself: table size estimate plus the cap.
  EXPECT_NE(dp.status().message().find("MiB"), std::string::npos)
      << dp.status().ToString();
  EXPECT_NE(dp.status().message().find(std::to_string(kMaxDpRelations)),
            std::string::npos);
}

// OptimizeClassical is the DP's answer up to the cap and greedy's past it.
TEST(ClassicalTest, ClassicalIsDpAtCapAndGreedyPastIt) {
  for (int relations : {kMaxDpRelations, kMaxDpRelations + 1}) {
    Rng rng(11);
    QueryGenOptions options;
    options.num_relations = relations;
    options.graph_type = QueryGraphType::kChain;
    auto q = GenerateQuery(options, rng);
    ASSERT_TRUE(q.ok());
    auto classical = OptimizeClassical(*q);
    ASSERT_TRUE(classical.ok()) << classical.status().ToString();
    auto want = relations <= kMaxDpRelations ? OptimizeDp(*q)
                                             : OptimizeGreedy(*q);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(classical->order.order(), want->order.order()) << relations;
    EXPECT_EQ(std::bit_cast<uint64_t>(classical->cost),
              std::bit_cast<uint64_t>(want->cost))
        << relations;
  }
}

constexpr QueryGraphType kAllShapes[] = {
    QueryGraphType::kChain, QueryGraphType::kStar, QueryGraphType::kCycle,
    QueryGraphType::kClique};

Query MakeQuery(int relations, QueryGraphType shape, bool integer_log_values,
                uint64_t seed) {
  Rng rng(seed);
  QueryGenOptions options;
  options.num_relations = relations;
  options.graph_type = shape;
  options.integer_log_values = integer_log_values;
  return GenerateQuery(options, rng).value();
}

TEST(ClassicalTest, CardinalityTableMatchesJoinCardinalityBitForBit) {
  uint64_t seed = 500;
  for (int relations = 3; relations <= 16; ++relations) {
    for (QueryGraphType shape : kAllShapes) {
      const bool integer_log_values = seed % 2 == 0;
      const Query q =
          MakeQuery(relations, shape, integer_log_values, seed++);
      const CardinalityTable table(q);
      const uint64_t masks = uint64_t{1} << relations;
      ASSERT_EQ(table.num_masks(), masks);
      std::vector<double> filled(masks);
      for (uint64_t first = 0; first < masks;
           first += CardinalityTable::kBlock) {
        table.FillBlock(first, filled.data() + first);
      }
      int mismatches = 0;
      uint64_t first_mismatch = 0;
      for (uint64_t mask = 0; mask < masks; ++mask) {
        if (std::bit_cast<uint64_t>(filled[mask]) !=
            std::bit_cast<uint64_t>(q.JoinCardinality(mask))) {
          if (mismatches++ == 0) first_mismatch = mask;
        }
      }
      EXPECT_EQ(mismatches, 0)
          << QueryGraphTypeName(shape) << " " << relations
          << " relations, first at mask " << first_mismatch << ": "
          << filled[first_mismatch] << " vs "
          << q.JoinCardinality(first_mismatch);
    }
  }
}

TEST(ClassicalTest, DpMatchesReferenceOrderAndCostBits) {
  // Integer log values make many plans cost the same, which exercises the
  // strict-< tie-break; continuous ones make every product round. The
  // predicate-count queries add cross products.
  std::vector<Query> queries;
  uint64_t seed = 900;
  for (int relations : {3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18}) {
    for (QueryGraphType shape : kAllShapes) {
      queries.push_back(MakeQuery(relations, shape, seed % 2 == 0, seed));
      ++seed;
    }
  }
  for (int predicates : {0, 1, 3, 6}) {
    Rng rng(seed++);
    QueryGenOptions options;
    options.num_relations = 6;
    queries.push_back(
        GenerateQueryWithPredicateCount(options, predicates, rng).value());
  }
  ASSERT_GE(queries.size(), 40u);
  for (const Query& q : queries) {
    auto dp = OptimizeDp(q);
    auto reference = OptimizeDpReference(q);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(dp->order.order(), reference->order.order()) << q.ToString();
    EXPECT_EQ(std::memcmp(&dp->cost, &reference->cost, sizeof(double)), 0)
        << q.ToString() << ": " << dp->cost << " vs " << reference->cost;
  }
}

TEST(ClassicalTest, GreedyPrefersConnectedJoinsOnCardinalityTies) {
  // |R0 x R1| = 100 (cross product, scanned first) ties with
  // |R2 ⋈ R3| = 100 (connected, scanned later); every mixed pair costs
  // 1000. Scan order alone would keep the cross product — the
  // connectivity tie-break must flip the pick to the joined pair.
  Query q;
  q.AddRelation("R0", 10);
  q.AddRelation("R1", 10);
  q.AddRelation("R2", 100);
  q.AddRelation("R3", 100);
  ASSERT_TRUE(q.AddPredicate(2, 3, 0.01).ok());
  auto greedy = OptimizeGreedy(q);
  ASSERT_TRUE(greedy.ok());
  const std::vector<int>& order = greedy->order.order();
  EXPECT_TRUE((order[0] == 2 && order[1] == 3) ||
              (order[0] == 3 && order[1] == 2))
      << greedy->order.ToString(q);
}

TEST(ClassicalTest, GreedyExtensionPrefersConnectedRelationOnTies) {
  // After the forced first join R0 ⋈ R1 (card 10), appending the island
  // R2 (cross product, scanned first) and the connected R3 (predicate to
  // R0) both yield card 100; the predicate-connected extension must win
  // the tie even though the scan reaches it later.
  Query q;
  q.AddRelation("R0", 10);
  q.AddRelation("R1", 10);
  q.AddRelation("R2", 10);
  q.AddRelation("R3", 100);
  ASSERT_TRUE(q.AddPredicate(0, 1, 0.1).ok());
  ASSERT_TRUE(q.AddPredicate(0, 3, 0.1).ok());
  auto greedy = OptimizeGreedy(q);
  ASSERT_TRUE(greedy.ok());
  const std::vector<int>& order = greedy->order.order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[2], 3) << greedy->order.ToString(q);
}

}  // namespace
}  // namespace qjo
