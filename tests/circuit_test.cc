#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/qaoa_builder.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "sim/statevector.h"
#include "util/random.h"

namespace qjo {
namespace {

TEST(GateTest, TwoQubitClassification) {
  EXPECT_TRUE(IsTwoQubitGate(GateType::kCx));
  EXPECT_TRUE(IsTwoQubitGate(GateType::kRzz));
  EXPECT_TRUE(IsTwoQubitGate(GateType::kMs));
  EXPECT_FALSE(IsTwoQubitGate(GateType::kH));
  EXPECT_FALSE(IsTwoQubitGate(GateType::kRz));
}

TEST(GateTest, ParameterisedClassification) {
  EXPECT_TRUE(IsParameterised(GateType::kRx));
  EXPECT_TRUE(IsParameterised(GateType::kRzz));
  EXPECT_FALSE(IsParameterised(GateType::kH));
  EXPECT_FALSE(IsParameterised(GateType::kCx));
}

TEST(CircuitTest, DepthSingleQubitChain) {
  QuantumCircuit c(2);
  c.H(0);
  c.H(0);
  c.H(0);
  c.H(1);
  EXPECT_EQ(c.Depth(), 3);
  EXPECT_EQ(c.num_gates(), 4);
}

TEST(CircuitTest, DepthParallelGates) {
  QuantumCircuit c(4);
  c.H(0);
  c.H(1);
  c.H(2);
  c.H(3);
  EXPECT_EQ(c.Depth(), 1);
}

TEST(CircuitTest, DepthTwoQubitDependency) {
  QuantumCircuit c(3);
  c.H(0);        // layer 1 on q0
  c.Cx(0, 1);    // layer 2 on q0,q1
  c.Cx(1, 2);    // layer 3 on q1,q2
  c.H(0);        // layer 3 on q0 (parallel with cx(1,2))
  EXPECT_EQ(c.Depth(), 3);
  EXPECT_EQ(c.TwoQubitDepth(), 2);
}

TEST(CircuitTest, GateCounts) {
  QuantumCircuit c(3);
  c.H(0);
  c.Rzz(0, 1, 0.5);
  c.Rzz(1, 2, 0.5);
  c.Rx(2, 0.1);
  EXPECT_EQ(c.CountGates(GateType::kRzz), 2);
  EXPECT_EQ(c.CountGates(GateType::kH), 1);
  EXPECT_EQ(c.CountTwoQubitGates(), 2);
}

TEST(QaoaBuilderTest, StructureMatchesHamiltonian) {
  Qubo qubo(4);
  qubo.AddLinear(0, 1.0);
  qubo.AddLinear(1, -2.0);
  qubo.AddQuadratic(0, 1, 1.0);
  qubo.AddQuadratic(2, 3, -1.0);
  const IsingModel ising = QuboToIsing(qubo);

  QaoaParameters params;
  params.gammas = {0.3};
  params.betas = {0.7};
  auto circuit = BuildQaoaCircuit(ising, params);
  ASSERT_TRUE(circuit.ok());
  EXPECT_EQ(circuit->num_qubits(), 4);
  EXPECT_EQ(circuit->CountGates(GateType::kH), 4);
  EXPECT_EQ(circuit->CountGates(GateType::kRx), 4);
  EXPECT_EQ(circuit->CountGates(GateType::kRzz), 2);
  // Ising fields: h_0 = -1, h_1 = ... all four variables touched by the
  // QUBO->Ising shift, q2/q3 via the coupling.
  EXPECT_GT(circuit->CountGates(GateType::kRz), 0);
}

TEST(QaoaBuilderTest, DepthGrowsLinearlyInP) {
  Qubo qubo(3);
  qubo.AddQuadratic(0, 1, 1.0);
  qubo.AddQuadratic(1, 2, 1.0);
  const IsingModel ising = QuboToIsing(qubo);
  QaoaParameters p1{{0.1}, {0.2}};
  QaoaParameters p2{{0.1, 0.1}, {0.2, 0.2}};
  auto c1 = BuildQaoaCircuit(ising, p1);
  auto c2 = BuildQaoaCircuit(ising, p2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_GT(c2->Depth(), c1->Depth());
  EXPECT_EQ(c2->CountGates(GateType::kRzz), 2 * c1->CountGates(GateType::kRzz));
}

TEST(SchedulingTest, MatchingRoundsTouchEachQubitOnce) {
  // A star: every term shares qubit 0, so no parallelism is possible and
  // the schedule must keep all terms (order free).
  std::vector<std::tuple<int, int, double>> star = {
      {0, 1, 1.0}, {0, 2, 2.0}, {0, 3, 3.0}};
  auto scheduled = ScheduleCommutingTerms(star, 4);
  EXPECT_EQ(scheduled.size(), 3u);
  // A perfect matching schedules in one round, preserving all terms.
  std::vector<std::tuple<int, int, double>> cycle = {
      {0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 0, 1.0}};
  auto cycle_scheduled = ScheduleCommutingTerms(cycle, 4);
  EXPECT_EQ(cycle_scheduled.size(), 4u);
  // First two scheduled terms form a matching: {0,1} then {2,3}.
  const auto& [a0, b0, w0] = cycle_scheduled[0];
  const auto& [a1, b1, w1] = cycle_scheduled[1];
  (void)w0;
  (void)w1;
  EXPECT_TRUE(a0 != a1 && a0 != b1 && b0 != a1 && b0 != b1);
}

TEST(SchedulingTest, ReducesDepthOnDenseProblems) {
  Qubo qubo(8);
  // Adversarial ordering: all edges incident to qubit 0 first would not
  // matter, but an interleaving that serialises by accident does.
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) qubo.AddQuadratic(i, j, 1.0);
  }
  QaoaBuilderOptions scheduled;
  scheduled.schedule_cost_layer = true;
  auto plain = BuildQaoaCircuit(qubo, QaoaParameters{{0.1}, {0.2}});
  auto packed =
      BuildQaoaCircuit(qubo, QaoaParameters{{0.1}, {0.2}}, scheduled);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(packed.ok());
  EXPECT_LT(packed->Depth(), plain->Depth());
  EXPECT_EQ(packed->num_gates(), plain->num_gates());
}

TEST(SchedulingTest, PreservesSemantics) {
  // Cost-layer gates commute: both orders produce the same state.
  Qubo qubo(5);
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    qubo.AddLinear(i, rng.UniformDouble(-1, 1));
    for (int j = i + 1; j < 5; ++j) {
      if (rng.Bernoulli(0.7)) {
        qubo.AddQuadratic(i, j, rng.UniformDouble(-1, 1));
      }
    }
  }
  QaoaBuilderOptions scheduled;
  scheduled.schedule_cost_layer = true;
  QaoaParameters params{{0.31}, {0.77}};
  auto plain = BuildQaoaCircuit(qubo, params);
  auto packed = BuildQaoaCircuit(qubo, params, scheduled);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(packed.ok());
  auto sv_plain = StateVector::Create(5);
  auto sv_packed = StateVector::Create(5);
  ASSERT_TRUE(sv_plain.ok());
  ASSERT_TRUE(sv_packed.ok());
  sv_plain->ApplyCircuit(*plain);
  sv_packed->ApplyCircuit(*packed);
  EXPECT_NEAR(sv_plain->Overlap(*sv_packed), 1.0, 1e-9);
}

TEST(QaoaBuilderTest, RejectsBadParameters) {
  Qubo qubo(2);
  qubo.AddQuadratic(0, 1, 1.0);
  QaoaParameters empty;
  EXPECT_FALSE(BuildQaoaCircuit(qubo, empty).ok());
  QaoaParameters mismatched{{0.1, 0.2}, {0.3}};
  EXPECT_FALSE(BuildQaoaCircuit(qubo, mismatched).ok());
}

TEST(QaoaBuilderTest, RzzAngleEncodesCoupling) {
  Qubo qubo(2);
  qubo.AddQuadratic(0, 1, 2.0);
  const IsingModel ising = QuboToIsing(qubo);  // J_01 = 0.5
  QaoaParameters params{{0.25}, {0.1}};
  auto circuit = BuildQaoaCircuit(ising, params);
  ASSERT_TRUE(circuit.ok());
  for (const Gate& g : circuit->gates()) {
    if (g.type == GateType::kRzz) {
      EXPECT_NEAR(g.parameter, 2.0 * 0.25 * 0.5, 1e-12);
    }
    if (g.type == GateType::kRx) {
      EXPECT_NEAR(g.parameter, 0.2, 1e-12);
    }
  }
}

}  // namespace
}  // namespace qjo
