// Regression guards for bugs found (and fixed) while building this
// library. Each test pins the exact failure mode so it cannot silently
// reappear.

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "embedding/minor_embedding.h"
#include "qubo/ising.h"
#include "sim/sqa.h"
#include "sim/statevector.h"
#include "topology/vendor_topologies.h"
#include "transpiler/native_gates.h"
#include "transpiler/transpiler.h"
#include "util/random.h"

namespace qjo {
namespace {

constexpr double kPi = 3.14159265358979323846;

// Bug 1: RY was decomposed with the conjugating RZs in matrix order
// instead of circuit order, flipping the rotation axis.
TEST(RegressionTest, RyDecompositionOrientation) {
  QuantumCircuit ry(1);
  ry.Ry(0, kPi / 2);
  auto native = DecomposeToNative(ry, NativeGateSet::kIbm);
  ASSERT_TRUE(native.ok());
  // RY(pi/2)|0> = (|0> + |1>)/sqrt(2) with REAL positive amplitudes.
  auto sv = StateVector::Create(1);
  ASSERT_TRUE(sv.ok());
  sv->ApplyCircuit(*native);
  EXPECT_NEAR(sv->Probability(0), 0.5, 1e-9);
  EXPECT_NEAR(sv->Probability(1), 0.5, 1e-9);
  // The relative phase must match RY, not RY^dagger: applying the ideal
  // inverse rotation must return to |0>.
  sv->Apply(Gate::Single(GateType::kRy, 0, -kPi / 2));
  EXPECT_NEAR(sv->Probability(0), 1.0, 1e-9);
}

// Bug 2: the SQA Metropolis step used dE = +2 s (h + J s) instead of
// -2 s (h + J s), turning the annealer into an energy *maximiser*. A
// ferromagnetic chain then returned the highest-energy staggered state.
TEST(RegressionTest, SqaMinimisesNotMaximises) {
  IsingModel ising;
  const int n = 10;
  ising.h.assign(n, 0.0);
  for (int i = 0; i + 1 < n; ++i) ising.couplings.emplace_back(i, i + 1, -1.0);
  SqaOptions options;
  options.num_reads = 10;
  options.annealing_time_us = 20.0;
  options.sweeps_per_us = 10.0;
  Rng rng(3);
  auto samples = RunSqa(ising, options, {}, rng);
  ASSERT_TRUE(samples.ok());
  double mean = 0.0;
  for (const SqaSample& s : *samples) mean += s.energy;
  mean /= samples->size();
  // The maximiser bug produced mean = +(n-1); the fix gives ~-(n-1).
  EXPECT_LT(mean, 0.0);
}

// Bug 3: the lookahead router could livelock when the extended-window
// term dominated the front-layer term; the escape hatch must guarantee
// termination on any connected device, including extremely sparse lines.
TEST(RegressionTest, RouterTerminatesOnPathologicalInputs) {
  Rng rng(7);
  // Long-range gates on a line: worst case for swap pressure.
  QuantumCircuit c(10);
  for (int i = 0; i < 15; ++i) {
    c.Rzz(i % 10, (i + 5) % 10, 0.3);
  }
  TranspileOptions options;
  options.gate_set = NativeGateSet::kUnrestricted;
  options.seed = 11;
  auto result = Transpile(c, MakeLineGraph(10), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsProperlyRouted(result->circuit, MakeLineGraph(10)));
}

// Bug 4: deterministic path costs made the embedder cycle through the
// same conflicted configurations forever on clique-rich QUBO graphs; the
// jittered costs + best-config tracking must embed a K7 into Pegasus P2
// reliably (it fit physically all along).
TEST(RegressionTest, EmbedderEscapesDeterministicCycles) {
  std::vector<std::pair<int, int>> k7;
  for (int i = 0; i < 7; ++i) {
    for (int j = i + 1; j < 7; ++j) k7.emplace_back(i, j);
  }
  auto pegasus = MakePegasus(2);
  ASSERT_TRUE(pegasus.ok());
  Rng rng(13);
  EmbeddingOptions options;
  auto embedding = FindMinorEmbedding(k7, 7, *pegasus, options, rng);
  ASSERT_TRUE(embedding.ok());
  EXPECT_TRUE(VerifyEmbedding(k7, 7, *pegasus, *embedding));
}

// Bug 5: Gray-code enumeration in the brute-force solver must agree with
// direct evaluation even when quadratic terms cancel to zero (the zero-
// coefficient entries used to linger in the adjacency map).
TEST(RegressionTest, CancelledCouplingsLeaveNoGhostEdges) {
  Qubo qubo(4);
  qubo.AddQuadratic(0, 1, 2.0);
  qubo.AddQuadratic(0, 1, -2.0);  // cancels exactly
  qubo.AddLinear(2, -1.0);
  EXPECT_EQ(qubo.num_quadratic_terms(), 0);
  EXPECT_TRUE(qubo.Edges().empty());
  EXPECT_DOUBLE_EQ(qubo.Energy({1, 1, 1, 0}), -1.0);
}

}  // namespace
}  // namespace qjo
