#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/qaoa_builder.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "sim/statevector.h"
#include "topology/coupling_graph.h"
#include "topology/density.h"
#include "topology/vendor_topologies.h"
#include "transpiler/native_gates.h"
#include "transpiler/routing.h"
#include "transpiler/transpiler.h"
#include "util/random.h"

namespace qjo {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Asserts that decomposing `circuit` to `set` preserves the unitary (up
/// to global phase) and leaves only native gates.
void ExpectEquivalentDecomposition(const QuantumCircuit& circuit,
                                   NativeGateSet set) {
  auto native = DecomposeToNative(circuit, set);
  ASSERT_TRUE(native.ok());
  for (const Gate& g : native->gates()) {
    EXPECT_TRUE(IsNativeGate(set, g.type))
        << GateTypeName(g.type) << " not native on " << NativeGateSetName(set);
  }
  auto u_original = CircuitUnitary(circuit);
  auto u_native = CircuitUnitary(*native);
  ASSERT_TRUE(u_original.ok());
  ASSERT_TRUE(u_native.ok());
  EXPECT_TRUE(UnitariesEqualUpToPhase(*u_original, *u_native, 1e-8))
      << "gate set " << NativeGateSetName(set);
}

QuantumCircuit SingleGateCircuit(int num_qubits, Gate gate) {
  QuantumCircuit c(num_qubits);
  c.Append(std::move(gate));
  return c;
}

class GateDecompositionTest
    : public ::testing::TestWithParam<NativeGateSet> {};

TEST_P(GateDecompositionTest, SingleQubitGates) {
  const NativeGateSet set = GetParam();
  ExpectEquivalentDecomposition(
      SingleGateCircuit(1, Gate::Single(GateType::kH, 0)), set);
  ExpectEquivalentDecomposition(
      SingleGateCircuit(1, Gate::Single(GateType::kX, 0)), set);
  ExpectEquivalentDecomposition(
      SingleGateCircuit(1, Gate::Single(GateType::kSx, 0)), set);
  for (double theta : {0.3, -1.2, kPi / 2, 2.5}) {
    ExpectEquivalentDecomposition(
        SingleGateCircuit(1, Gate::Single(GateType::kRx, 0, theta)), set);
    ExpectEquivalentDecomposition(
        SingleGateCircuit(1, Gate::Single(GateType::kRy, 0, theta)), set);
    ExpectEquivalentDecomposition(
        SingleGateCircuit(1, Gate::Single(GateType::kRz, 0, theta)), set);
  }
}

TEST_P(GateDecompositionTest, TwoQubitGates) {
  const NativeGateSet set = GetParam();
  ExpectEquivalentDecomposition(
      SingleGateCircuit(2, Gate::Two(GateType::kCx, 0, 1)), set);
  ExpectEquivalentDecomposition(
      SingleGateCircuit(2, Gate::Two(GateType::kCx, 1, 0)), set);
  ExpectEquivalentDecomposition(
      SingleGateCircuit(2, Gate::Two(GateType::kCz, 0, 1)), set);
  ExpectEquivalentDecomposition(
      SingleGateCircuit(2, Gate::Two(GateType::kSwap, 0, 1)), set);
  for (double theta : {0.7, -0.4, 1.9}) {
    ExpectEquivalentDecomposition(
        SingleGateCircuit(2, Gate::Two(GateType::kRzz, 0, 1, theta)), set);
    ExpectEquivalentDecomposition(
        SingleGateCircuit(2, Gate::Two(GateType::kMs, 0, 1, theta)), set);
  }
}

TEST_P(GateDecompositionTest, RandomThreeQubitCircuit) {
  const NativeGateSet set = GetParam();
  Rng rng(42);
  QuantumCircuit c(3);
  for (int i = 0; i < 20; ++i) {
    const int choice = static_cast<int>(rng.UniformInt(6));
    const int a = static_cast<int>(rng.UniformInt(3));
    int b = static_cast<int>(rng.UniformInt(3));
    while (b == a) b = static_cast<int>(rng.UniformInt(3));
    const double theta = rng.UniformDouble(-2.0, 2.0);
    switch (choice) {
      case 0: c.H(a); break;
      case 1: c.Rx(a, theta); break;
      case 2: c.Rz(a, theta); break;
      case 3: c.Cx(a, b); break;
      case 4: c.Rzz(a, b, theta); break;
      case 5: c.Ry(a, theta); break;
    }
  }
  ExpectEquivalentDecomposition(c, set);
}

INSTANTIATE_TEST_SUITE_P(AllGateSets, GateDecompositionTest,
                         ::testing::Values(NativeGateSet::kIbm,
                                           NativeGateSet::kRigetti,
                                           NativeGateSet::kIonq,
                                           NativeGateSet::kUnrestricted));

TEST(NativeGatesTest, UnrestrictedIsIdentity) {
  QuantumCircuit c(2);
  c.H(0);
  c.Rzz(0, 1, 0.5);
  auto native = DecomposeToNative(c, NativeGateSet::kUnrestricted);
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(native->num_gates(), 2);
}

TEST(NativeGatesTest, RigettiKeepsQuarterPiRx) {
  QuantumCircuit c(1);
  c.Rx(0, kPi / 2);
  auto native = DecomposeToNative(c, NativeGateSet::kRigetti);
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(native->num_gates(), 1);
  // Arbitrary angles must expand.
  QuantumCircuit c2(1);
  c2.Rx(0, 0.3);
  auto native2 = DecomposeToNative(c2, NativeGateSet::kRigetti);
  ASSERT_TRUE(native2.ok());
  EXPECT_GT(native2->num_gates(), 1);
}

TEST(NativeGatesTest, MergeRotationsCombinesAndCancels) {
  QuantumCircuit c(2);
  c.Rz(0, 0.5);
  c.Rz(0, 0.25);
  c.Rz(1, 1.0);
  c.Rz(1, -1.0);
  c.Rzz(0, 1, 0.3);
  c.Rzz(0, 1, 0.4);
  const QuantumCircuit merged = MergeRotations(c);
  EXPECT_EQ(merged.CountGates(GateType::kRz), 1);
  EXPECT_EQ(merged.CountGates(GateType::kRzz), 1);
  for (const Gate& g : merged.gates()) {
    if (g.type == GateType::kRz) {
      EXPECT_NEAR(g.parameter, 0.75, 1e-12);
    }
    if (g.type == GateType::kRzz) {
      EXPECT_NEAR(g.parameter, 0.7, 1e-12);
    }
  }
}

TEST(NativeGatesTest, MergeDoesNotCrossBlockingGates) {
  QuantumCircuit c(2);
  c.Rz(0, 0.5);
  c.Cx(0, 1);
  c.Rz(0, 0.25);
  const QuantumCircuit merged = MergeRotations(c);
  EXPECT_EQ(merged.CountGates(GateType::kRz), 2);
}

TEST(NativeGatesTest, MergePreservesSemantics) {
  Rng rng(9);
  QuantumCircuit c(3);
  for (int i = 0; i < 30; ++i) {
    const int a = static_cast<int>(rng.UniformInt(3));
    int b = (a + 1) % 3;
    switch (rng.UniformInt(4)) {
      case 0: c.Rz(a, rng.UniformDouble(-1, 1)); break;
      case 1: c.Rx(a, rng.UniformDouble(-1, 1)); break;
      case 2: c.Rzz(a, b, rng.UniformDouble(-1, 1)); break;
      case 3: c.H(a); break;
    }
  }
  const QuantumCircuit merged = MergeRotations(c);
  auto u1 = CircuitUnitary(c);
  auto u2 = CircuitUnitary(merged);
  ASSERT_TRUE(u1.ok());
  ASSERT_TRUE(u2.ok());
  EXPECT_TRUE(UnitariesEqualUpToPhase(*u1, *u2, 1e-8));
  EXPECT_LE(merged.num_gates(), c.num_gates());
}

QuantumCircuit RandomTwoQubitHeavyCircuit(int qubits, int gates, Rng& rng) {
  QuantumCircuit c(qubits);
  for (int q = 0; q < qubits; ++q) c.H(q);
  for (int i = 0; i < gates; ++i) {
    const int a = static_cast<int>(rng.UniformInt(qubits));
    int b = static_cast<int>(rng.UniformInt(qubits));
    while (b == a) b = static_cast<int>(rng.UniformInt(qubits));
    c.Rzz(a, b, rng.UniformDouble(-1.0, 1.0));
  }
  return c;
}

class RoutingStrategyTest
    : public ::testing::TestWithParam<RoutingStrategy> {};

TEST_P(RoutingStrategyTest, ProducesProperlyRoutedCircuits) {
  Rng rng(17);
  const CouplingGraph device = MakeIbmFalcon27();
  for (int trial = 0; trial < 3; ++trial) {
    const QuantumCircuit logical =
        RandomTwoQubitHeavyCircuit(10, 25, rng);
    auto layout = ChooseInitialLayout(logical, device, rng);
    ASSERT_TRUE(layout.ok());
    auto routed =
        RouteCircuit(logical, device, *layout, GetParam(), rng);
    ASSERT_TRUE(routed.ok());
    EXPECT_TRUE(IsProperlyRouted(routed->circuit, device));
    // All original gates survive (SWAPs come on top).
    EXPECT_EQ(routed->circuit.num_gates(),
              logical.num_gates() + routed->num_swaps);
  }
}

TEST_P(RoutingStrategyTest, RoutedCircuitIsEquivalentUnderLayout) {
  Rng rng(23);
  const CouplingGraph device = MakeLineGraph(5);
  const QuantumCircuit logical = RandomTwoQubitHeavyCircuit(4, 10, rng);
  auto layout = ChooseInitialLayout(logical, device, rng);
  ASSERT_TRUE(layout.ok());
  auto routed = RouteCircuit(logical, device, *layout, GetParam(), rng);
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(IsProperlyRouted(routed->circuit, device));

  // Simulate both; relate via the final layout.
  auto logical_state = StateVector::Create(4);
  ASSERT_TRUE(logical_state.ok());
  logical_state->ApplyCircuit(logical);
  auto physical_state = StateVector::Create(5);
  ASSERT_TRUE(physical_state.ok());
  physical_state->ApplyCircuit(routed->circuit);

  // P(logical basis x) must equal P(physical basis y) where
  // y[final_layout[l]] = x[l], other qubits 0.
  for (uint64_t x = 0; x < 16; ++x) {
    uint64_t y = 0;
    for (int l = 0; l < 4; ++l) {
      if (x & (uint64_t{1} << l)) {
        y |= uint64_t{1} << routed->final_layout[l];
      }
    }
    EXPECT_NEAR(logical_state->Probability(x), physical_state->Probability(y),
                1e-9)
        << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, RoutingStrategyTest,
                         ::testing::Values(RoutingStrategy::kLookahead,
                                           RoutingStrategy::kBasic));

TEST(RoutingTest, RejectsOversizedCircuits) {
  Rng rng(31);
  const CouplingGraph device = MakeLineGraph(3);
  const QuantumCircuit logical = RandomTwoQubitHeavyCircuit(5, 4, rng);
  EXPECT_FALSE(ChooseInitialLayout(logical, device, rng).ok());
}

TEST(RoutingTest, CompleteGraphNeedsNoSwaps) {
  Rng rng(37);
  const CouplingGraph device = MakeCompleteGraph(8);
  const QuantumCircuit logical = RandomTwoQubitHeavyCircuit(8, 20, rng);
  auto layout = ChooseInitialLayout(logical, device, rng);
  ASSERT_TRUE(layout.ok());
  auto routed = RouteCircuit(logical, device, *layout,
                             RoutingStrategy::kLookahead, rng);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->num_swaps, 0);
}

TEST(TranspilerTest, EndToEndPipeline) {
  Rng rng(41);
  Qubo qubo(8);
  for (int i = 0; i < 8; ++i) {
    qubo.AddLinear(i, rng.UniformDouble(-1, 1));
    for (int j = i + 1; j < 8; ++j) {
      if (rng.Bernoulli(0.5)) {
        qubo.AddQuadratic(i, j, rng.UniformDouble(-1, 1));
      }
    }
  }
  QaoaParameters params{{0.4}, {0.9}};
  auto logical = BuildQaoaCircuit(qubo, params);
  ASSERT_TRUE(logical.ok());

  TranspileOptions options;
  options.gate_set = NativeGateSet::kIbm;
  options.seed = 5;
  auto result = Transpile(*logical, MakeIbmFalcon27(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsProperlyRouted(result->circuit, MakeIbmFalcon27()));
  for (const Gate& g : result->circuit.gates()) {
    EXPECT_TRUE(IsNativeGate(NativeGateSet::kIbm, g.type));
  }
  EXPECT_EQ(result->depth, result->circuit.Depth());
  EXPECT_GT(result->depth, logical->Depth());  // routing+decomposition cost
}

TEST(TranspilerTest, SeedsChangeOutcome) {
  Rng rng(43);
  const QuantumCircuit logical = RandomTwoQubitHeavyCircuit(12, 40, rng);
  TranspileOptions options;
  options.gate_set = NativeGateSet::kIbm;
  std::set<int> depths;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    options.seed = seed;
    auto result = Transpile(logical, MakeIbmFalcon27(), options);
    ASSERT_TRUE(result.ok());
    depths.insert(result->depth);
  }
  // Transpilation is stochastic: several distinct depths (Fig. 2 variance).
  EXPECT_GT(depths.size(), 1u);
}

TEST(TranspilerTest, RoutesOnDensityExtrapolatedTopologies) {
  Rng rng(53);
  const QuantumCircuit logical = RandomTwoQubitHeavyCircuit(14, 50, rng);
  const CouplingGraph base = MakeIbmFalcon27();
  TranspileOptions options;
  options.gate_set = NativeGateSet::kIbm;
  options.seed = 9;
  int previous_swaps = 1 << 30;
  for (double density : {0.0, 0.25, 1.0}) {
    Rng density_rng(3);
    auto device = ExtrapolateDensity(base, density, density_rng);
    ASSERT_TRUE(device.ok());
    auto result = Transpile(logical, *device, options);
    ASSERT_TRUE(result.ok()) << density;
    EXPECT_TRUE(IsProperlyRouted(result->circuit, *device));
    // More connectivity, (weakly) fewer swaps.
    EXPECT_LE(result->num_swaps, previous_swaps) << density;
    previous_swaps = result->num_swaps;
  }
}

TEST(TranspilerTest, BasicRouterIsWorseButValid) {
  Rng rng(59);
  const QuantumCircuit logical = RandomTwoQubitHeavyCircuit(16, 80, rng);
  const CouplingGraph device = MakeIbmFalcon27();
  TranspileOptions lookahead;
  lookahead.gate_set = NativeGateSet::kUnrestricted;
  lookahead.seed = 2;
  TranspileOptions basic = lookahead;
  basic.routing = RoutingStrategy::kBasic;
  auto fast = Transpile(logical, device, lookahead);
  auto slow = Transpile(logical, device, basic);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  // The naive router needs at least as many swaps on average; allow some
  // slack for single-instance variance but expect a clear gap.
  EXPECT_GT(slow->num_swaps, fast->num_swaps / 2);
  EXPECT_TRUE(IsProperlyRouted(slow->circuit, device));
}

TEST(TranspilerTest, DenserTopologyShrinksDepth) {
  Rng rng(47);
  const QuantumCircuit logical = RandomTwoQubitHeavyCircuit(14, 60, rng);
  TranspileOptions options;
  options.gate_set = NativeGateSet::kIbm;
  options.seed = 3;
  auto sparse = Transpile(logical, MakeIbmFalcon27(), options);
  auto dense = Transpile(logical, MakeCompleteGraph(27), options);
  ASSERT_TRUE(sparse.ok());
  ASSERT_TRUE(dense.ok());
  EXPECT_LT(dense->depth, sparse->depth);
  EXPECT_EQ(dense->num_swaps, 0);
}

}  // namespace
}  // namespace qjo
