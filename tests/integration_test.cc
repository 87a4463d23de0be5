// Cross-module integration tests: consistency theorems that tie the whole
// Sec. 3 pipeline together.

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/qaoa_builder.h"
#include "codesign/qubit_bound.h"
#include "core/postprocess.h"
#include "core/quantum_optimizer.h"
#include "embedding/embedded_qubo.h"
#include "embedding/minor_embedding.h"
#include "jo/classical.h"
#include "jo/query_generator.h"
#include "lp/bilp.h"
#include "lp/jo_encoder.h"
#include "qubo/bilp_to_qubo.h"
#include "qubo/solvers.h"
#include "sim/sqa.h"
#include "sim/statevector.h"
#include "topology/vendor_topologies.h"
#include "transpiler/transpiler.h"
#include "util/random.h"

namespace qjo {
namespace {

/// Every left-deep order of a 3-relation query: its canonical assignment
/// is MILP-feasible, decodes back to itself, and the MILP objective equals
/// the staircase-approximated cost; moreover the exact QUBO optimum picks
/// (one of) the staircase-minimal orders.
TEST(PipelineConsistencyTest, StaircaseObjectiveMatchesExactQuboOptimum) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    QueryGenOptions gen;
    gen.num_relations = 3;
    gen.graph_type =
        seed % 2 == 0 ? QueryGraphType::kChain : QueryGraphType::kCycle;
    gen.min_log_card = 1.0;
    gen.max_log_card = 1.0;  // keeps the QUBO within brute-force reach
    auto query = GenerateQuery(gen, rng);
    ASSERT_TRUE(query.ok());

    JoMilpOptions options;
    // Cycle queries carry an extra predicate; use one threshold fewer so
    // the brute-force solver (<= 28 variables) stays applicable.
    const int num_thresholds =
        gen.graph_type == QueryGraphType::kCycle ? 1 : 2;
    options.thresholds = MakeGeometricThresholds(*query, num_thresholds);
    auto milp = EncodeJoAsMilp(*query, options);
    ASSERT_TRUE(milp.ok());

    // Enumerate all 6 orders; track the best staircase objective.
    std::vector<int> perm = {0, 1, 2};
    double best_objective = 1e300;
    std::sort(perm.begin(), perm.end());
    do {
      const LeftDeepOrder order(perm);
      auto bits = EncodeOrderAsAssignment(*milp, order);
      ASSERT_TRUE(bits.ok());
      EXPECT_TRUE(milp->model().IsFeasible(*bits))
          << "seed " << seed << " order " << order.ToString(*query);
      auto decoded = DecodeSample(*milp, *bits);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded->order(), perm);
      best_objective = std::min(
          best_objective, milp->model().EvaluateObjective(*bits));
    } while (std::next_permutation(perm.begin(), perm.end()));

    // Exact QUBO optimum achieves exactly that staircase objective.
    auto bilp = LowerToBilp(milp->model(), 1.0);
    ASSERT_TRUE(bilp.ok());
    auto encoding = ConvertBilpToQubo(*bilp, QuboConversionOptions{});
    ASSERT_TRUE(encoding.ok());
    auto ground = SolveQuboBruteForce(encoding->qubo);
    ASSERT_TRUE(ground.ok());
    EXPECT_NEAR(ground->energy, best_objective, 1e-6) << "seed " << seed;
  }
}

/// Transpiled QAOA circuits remain semantically equivalent to the logical
/// circuit under the final qubit layout, across gate sets.
TEST(PipelineConsistencyTest, TranspiledQaoaPreservesDistribution) {
  Rng rng(9);
  Qubo qubo(6);
  for (int i = 0; i < 6; ++i) {
    qubo.AddLinear(i, rng.UniformDouble(-1, 1));
    for (int j = i + 1; j < 6; ++j) {
      if (rng.Bernoulli(0.5)) {
        qubo.AddQuadratic(i, j, rng.UniformDouble(-1, 1));
      }
    }
  }
  auto logical = BuildQaoaCircuit(qubo, QaoaParameters{{0.37}, {0.61}});
  ASSERT_TRUE(logical.ok());
  auto reference = StateVector::Create(6);
  ASSERT_TRUE(reference.ok());
  reference->ApplyCircuit(*logical);

  const CouplingGraph device = MakeGridGraph(3, 3);
  for (NativeGateSet set : {NativeGateSet::kIbm, NativeGateSet::kRigetti,
                            NativeGateSet::kIonq}) {
    TranspileOptions options;
    options.gate_set = set;
    options.seed = 31;
    auto result = Transpile(*logical, device, options);
    ASSERT_TRUE(result.ok());
    auto physical = StateVector::Create(device.num_qubits());
    ASSERT_TRUE(physical.ok());
    physical->ApplyCircuit(result->circuit);
    for (uint64_t x = 0; x < 64; ++x) {
      uint64_t y = 0;
      for (int l = 0; l < 6; ++l) {
        if (x & (uint64_t{1} << l)) {
          y |= uint64_t{1} << result->final_layout[l];
        }
      }
      EXPECT_NEAR(reference->Probability(x), physical->Probability(y), 1e-6)
          << "gate set " << NativeGateSetName(set) << " x=" << x;
    }
  }
}

/// Embedding + SQA recovers the exact logical ground state of a small
/// QUBO end to end (embed -> anneal physical -> unembed -> compare).
TEST(PipelineConsistencyTest, EmbeddedAnnealingFindsLogicalGroundState) {
  Rng rng(17);
  Qubo logical(8);
  for (int i = 0; i < 8; ++i) {
    logical.AddLinear(i, rng.UniformDouble(-1, 1));
    for (int j = i + 1; j < 8; ++j) {
      if (rng.Bernoulli(0.4)) {
        logical.AddQuadratic(i, j, rng.UniformDouble(-1, 1));
      }
    }
  }
  auto exact = SolveQuboBruteForce(logical);
  ASSERT_TRUE(exact.ok());

  auto target = MakePegasus(3);
  ASSERT_TRUE(target.ok());
  auto embedding = FindMinorEmbedding(logical.Edges(), 8, *target,
                                      EmbeddingOptions{}, rng);
  ASSERT_TRUE(embedding.ok());
  auto embedded =
      EmbedQubo(logical, *embedding, *target, EmbedQuboOptions{});
  ASSERT_TRUE(embedded.ok());

  SqaOptions sqa;
  sqa.num_reads = 30;
  sqa.annealing_time_us = 40.0;
  sqa.sweeps_per_us = 10.0;
  auto reads = RunSqa(QuboToIsing(embedded->physical), sqa, rng);
  ASSERT_TRUE(reads.ok());
  double best = 1e300;
  for (const SqaSample& read : *reads) {
    const UnembeddedSample logical_sample =
        UnembedSample(SpinsToBits(read.spins), embedded->embedding, rng);
    best = std::min(best, logical.Energy(logical_sample.logical_bits));
  }
  EXPECT_NEAR(best, exact->energy, 1e-6);
}

/// Theorem 5.3's bound is *tight* when nothing can be pruned: thresholds
/// below every reachable cardinality leave all cto variables alive.
TEST(PipelineConsistencyTest, BoundTightWithoutPruning) {
  Query q;
  q.AddRelation("A", 100);
  q.AddRelation("B", 100);
  q.AddRelation("C", 100);
  q.AddRelation("D", 100);
  JoMilpOptions options;
  options.thresholds = {10.0};  // log 1 < c_jmax for every join
  auto milp = EncodeJoAsMilp(q, options);
  ASSERT_TRUE(milp.ok());
  auto bilp = LowerToBilp(milp->model(), 1.0);
  ASSERT_TRUE(bilp.ok());
  auto bound = QubitUpperBound(q, 1, 1.0);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, bilp->num_variables());
}

/// The noiseless QAOA distribution is biased towards low-energy states
/// relative to uniform sampling.
TEST(PipelineConsistencyTest, QaoaBeatsUniformSamplingNoiselessly) {
  Query q;
  q.AddRelation("R0", 10);
  q.AddRelation("R1", 10);
  q.AddRelation("R2", 10);
  ASSERT_TRUE(q.AddPredicate(0, 1, 0.1).ok());

  QjoConfig qaoa;
  qaoa.backend = QjoBackend::kQaoaSimulator;
  qaoa.thresholds = {10.0};
  qaoa.shots = 2048;
  qaoa.qaoa_iterations = 25;
  qaoa.noiseless = true;
  qaoa.seed = 51;
  auto qaoa_report = OptimizeJoinOrder(q, qaoa);
  ASSERT_TRUE(qaoa_report.ok());

  // Uniform baseline = fully depolarised sampling.
  QjoConfig uniform = qaoa;
  uniform.noiseless = false;
  uniform.qaoa_iterations = 0;
  uniform.device.t1_us = 1e-6;  // fidelity ~ 0 -> uniform output
  uniform.device.t2_us = 1e-6;
  uniform.seed = 52;
  auto uniform_report = OptimizeJoinOrder(q, uniform);
  ASSERT_TRUE(uniform_report.ok());
  EXPECT_LT(uniform_report->gate.fidelity, 1e-3);

  EXPECT_GT(qaoa_report->stats.valid_fraction(),
            uniform_report->stats.valid_fraction());
}

/// EncodeOrderAsAssignment produces MILP-feasible assignments for every
/// order of larger queries too (property sweep).
struct EncodeCase {
  QueryGraphType type;
  int relations;
  int thresholds;
  uint64_t seed;
};

class OrderEncodingTest : public ::testing::TestWithParam<EncodeCase> {};

TEST_P(OrderEncodingTest, CanonicalAssignmentsAreFeasible) {
  const EncodeCase& c = GetParam();
  Rng rng(c.seed);
  QueryGenOptions gen;
  gen.num_relations = c.relations;
  gen.graph_type = c.type;
  gen.min_log_card = 2.0;
  gen.max_log_card = 4.0;
  auto query = GenerateQuery(gen, rng);
  ASSERT_TRUE(query.ok());
  JoMilpOptions options;
  options.thresholds = MakeGeometricThresholds(*query, c.thresholds);
  auto milp = EncodeJoAsMilp(*query, options);
  ASSERT_TRUE(milp.ok());

  std::vector<int> perm(c.relations);
  std::iota(perm.begin(), perm.end(), 0);
  for (int trial = 0; trial < 20; ++trial) {
    rng.Shuffle(perm);
    const LeftDeepOrder order(perm);
    auto bits = EncodeOrderAsAssignment(*milp, order);
    ASSERT_TRUE(bits.ok());
    EXPECT_TRUE(milp->model().IsFeasible(*bits))
        << order.ToString(*query);
    auto decoded = DecodeSample(*milp, *bits);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->order(), perm);
    EXPECT_GE(milp->model().EvaluateObjective(*bits), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OrderEncodingTest,
    ::testing::Values(EncodeCase{QueryGraphType::kChain, 4, 2, 61},
                      EncodeCase{QueryGraphType::kChain, 6, 3, 62},
                      EncodeCase{QueryGraphType::kChain, 9, 4, 63},
                      EncodeCase{QueryGraphType::kStar, 5, 2, 64},
                      EncodeCase{QueryGraphType::kStar, 8, 5, 65},
                      EncodeCase{QueryGraphType::kCycle, 5, 1, 66},
                      EncodeCase{QueryGraphType::kCycle, 7, 3, 67},
                      EncodeCase{QueryGraphType::kCycle, 12, 2, 68}));

/// Report diagnostics are internally consistent across backends.
TEST(PipelineConsistencyTest, ReportInvariants) {
  Query q;
  q.AddRelation("R0", 10);
  q.AddRelation("R1", 10);
  q.AddRelation("R2", 10);
  ASSERT_TRUE(q.AddPredicate(0, 1, 0.1).ok());
  for (QjoBackend backend :
       {QjoBackend::kExact, QjoBackend::kSimulatedAnnealing}) {
    QjoConfig config;
    config.backend = backend;
    config.thresholds = {10.0};
    config.shots = 64;
    auto report = OptimizeJoinOrder(q, config);
    ASSERT_TRUE(report.ok());
    EXPECT_GE(report->stats.total, 1);
    EXPECT_LE(report->stats.optimal, report->stats.valid);
    EXPECT_LE(report->stats.valid, report->stats.total);
    if (report->found_valid) {
      EXPECT_GE(report->best_cost, report->optimal_cost * (1 - 1e-9));
    }
    EXPECT_EQ(report->encoding.milp_variables + /*slack*/ report->encoding.bilp_variables -
                  report->encoding.milp_variables,
              report->encoding.bilp_variables);
  }
}

}  // namespace
}  // namespace qjo
