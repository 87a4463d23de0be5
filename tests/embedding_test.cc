#include <vector>

#include <gtest/gtest.h>

#include "embedding/embedded_qubo.h"
#include "embedding/minor_embedding.h"
#include "topology/coupling_graph.h"
#include "topology/vendor_topologies.h"
#include "util/random.h"

namespace qjo {
namespace {

std::vector<std::pair<int, int>> CompleteEdges(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  return edges;
}

TEST(MinorEmbeddingTest, IdentityOnMatchingGraph) {
  Rng rng(1);
  const CouplingGraph target = MakeGridGraph(3, 3);
  // A path graph embeds with (mostly) single-qubit chains.
  std::vector<std::pair<int, int>> path = {{0, 1}, {1, 2}, {2, 3}};
  auto embedding =
      FindMinorEmbedding(path, 4, target, EmbeddingOptions{}, rng);
  ASSERT_TRUE(embedding.ok());
  EXPECT_TRUE(VerifyEmbedding(path, 4, target, *embedding));
  EXPECT_LE(embedding->NumPhysicalQubits(), 8);
}

TEST(MinorEmbeddingTest, TriangleIntoGridNeedsNoChainOfLengthThree) {
  Rng rng(2);
  const CouplingGraph target = MakeGridGraph(3, 3);
  const auto triangle = CompleteEdges(3);
  auto embedding =
      FindMinorEmbedding(triangle, 3, target, EmbeddingOptions{}, rng);
  ASSERT_TRUE(embedding.ok());
  EXPECT_TRUE(VerifyEmbedding(triangle, 3, target, *embedding));
  // A triangle in a grid requires one chain of length 2: 4 qubits total.
  EXPECT_GE(embedding->NumPhysicalQubits(), 4);
  EXPECT_LE(embedding->NumPhysicalQubits(), 6);
}

TEST(MinorEmbeddingTest, K4IntoGrid) {
  Rng rng(3);
  const CouplingGraph target = MakeGridGraph(4, 4);
  const auto k4 = CompleteEdges(4);
  auto embedding = FindMinorEmbedding(k4, 4, target, EmbeddingOptions{}, rng);
  ASSERT_TRUE(embedding.ok());
  EXPECT_TRUE(VerifyEmbedding(k4, 4, target, *embedding));
}

TEST(MinorEmbeddingTest, K6IntoPegasus) {
  Rng rng(4);
  auto target = MakePegasus(2);
  ASSERT_TRUE(target.ok());
  const auto k6 = CompleteEdges(6);
  auto embedding = FindMinorEmbedding(k6, 6, *target, EmbeddingOptions{}, rng);
  ASSERT_TRUE(embedding.ok());
  EXPECT_TRUE(VerifyEmbedding(k6, 6, *target, *embedding));
  // Pegasus embeds cliques efficiently; expect short chains.
  EXPECT_LE(embedding->MaxChainLength(), 4);
}

TEST(MinorEmbeddingTest, ImpossibleEmbeddingReturnsNotFound) {
  Rng rng(5);
  const CouplingGraph target = MakeLineGraph(4);
  // K4 has treewidth 3, a path cannot host it.
  auto embedding =
      FindMinorEmbedding(CompleteEdges(4), 4, target, EmbeddingOptions{}, rng);
  EXPECT_FALSE(embedding.ok());
  // Oversized source.
  auto too_big = FindMinorEmbedding({}, 10, target, EmbeddingOptions{}, rng);
  EXPECT_FALSE(too_big.ok());
}

TEST(MinorEmbeddingTest, VerifyEmbeddingRejectsDefects) {
  const CouplingGraph target = MakeGridGraph(2, 3);
  const std::vector<std::pair<int, int>> edge = {{0, 1}};
  Embedding overlap;
  overlap.chains = {{0}, {0}};
  EXPECT_FALSE(VerifyEmbedding(edge, 2, target, overlap));
  Embedding disconnected;
  disconnected.chains = {{0, 5}, {1}};  // 0 and 5 are not adjacent in 2x3
  EXPECT_FALSE(VerifyEmbedding(edge, 2, target, disconnected));
  Embedding unrepresentable;
  unrepresentable.chains = {{0}, {5}};
  EXPECT_FALSE(VerifyEmbedding(edge, 2, target, unrepresentable));
  Embedding empty_chain;
  empty_chain.chains = {{0}, {}};
  EXPECT_FALSE(VerifyEmbedding(edge, 2, target, empty_chain));
  Embedding good;
  good.chains = {{0}, {1}};
  EXPECT_TRUE(VerifyEmbedding(edge, 2, target, good));
}

TEST(MinorEmbeddingTest, DeterministicUnderSeed) {
  const CouplingGraph target = MakeGridGraph(4, 4);
  const auto k4 = CompleteEdges(4);
  Rng rng1(77), rng2(77);
  auto e1 = FindMinorEmbedding(k4, 4, target, EmbeddingOptions{}, rng1);
  auto e2 = FindMinorEmbedding(k4, 4, target, EmbeddingOptions{}, rng2);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e1->chains, e2->chains);
}

/// Fixture: a triangle QUBO embedded into a grid.
struct EmbeddedFixture {
  Qubo logical{3};
  CouplingGraph target = MakeGridGraph(3, 3);
  Embedding embedding;
  EmbeddedQubo embedded;

  static EmbeddedFixture Make(uint64_t seed) {
    EmbeddedFixture f;
    f.logical.AddLinear(0, 1.0);
    f.logical.AddLinear(1, -2.0);
    f.logical.AddQuadratic(0, 1, 1.5);
    f.logical.AddQuadratic(1, 2, -0.5);
    f.logical.AddQuadratic(0, 2, 2.0);
    f.logical.AddOffset(0.25);
    Rng rng(seed);
    auto embedding = FindMinorEmbedding(f.logical.Edges(), 3, f.target,
                                        EmbeddingOptions{}, rng);
    EXPECT_TRUE(embedding.ok());
    f.embedding = std::move(embedding).value();
    auto embedded =
        EmbedQubo(f.logical, f.embedding, f.target, EmbedQuboOptions{});
    EXPECT_TRUE(embedded.ok());
    f.embedded = std::move(embedded).value();
    return f;
  }
};

TEST(EmbeddedQuboTest, ConsistentChainsReproduceLogicalEnergy) {
  EmbeddedFixture f = EmbeddedFixture::Make(11);
  // For every logical assignment, setting all chain qubits consistently
  // must give exactly the logical energy (chain penalty contributes 0).
  for (int x = 0; x < 8; ++x) {
    std::vector<int> logical_bits = {x & 1, (x >> 1) & 1, (x >> 2) & 1};
    std::vector<int> physical_bits(f.embedded.qubits.size(), 0);
    for (int v = 0; v < 3; ++v) {
      for (int k : f.embedded.embedding.chains[v]) {
        physical_bits[k] = logical_bits[v];
      }
    }
    EXPECT_NEAR(f.embedded.physical.Energy(physical_bits),
                f.logical.Energy(logical_bits), 1e-9)
        << "x=" << x;
  }
}

/// A random 8-variable QUBO embedded into Pegasus P3 (144 qubits, most
/// of them idle).
struct PegasusFixture {
  Qubo logical{8};
  CouplingGraph target;
  Embedding embedding;
  EmbeddedQubo embedded;

  static PegasusFixture Make(uint64_t seed) {
    PegasusFixture f;
    Rng rng(seed);
    for (int i = 0; i < 8; ++i) {
      f.logical.AddLinear(i, rng.UniformDouble(-1, 1));
      for (int j = i + 1; j < 8; ++j) {
        if (rng.Bernoulli(0.5)) {
          f.logical.AddQuadratic(i, j, rng.UniformDouble(-1, 1));
        }
      }
    }
    auto target = MakePegasus(3);
    EXPECT_TRUE(target.ok());
    f.target = std::move(target).value();
    auto embedding = FindMinorEmbedding(f.logical.Edges(), 8, f.target,
                                        EmbeddingOptions{}, rng);
    EXPECT_TRUE(embedding.ok());
    f.embedding = std::move(embedding).value();
    EmbedQuboOptions opts;
    opts.chain_strength_override = 1.25;
    auto embedded = EmbedQubo(f.logical, f.embedding, f.target, opts);
    EXPECT_TRUE(embedded.ok());
    f.embedded = std::move(embedded).value();
    return f;
  }
};

/// The embedded model spelled out over every hardware qubit of `target`:
/// linear terms split across the chain, couplings split across the
/// inter-chain couplers, cs * (x_p - x_q)^2 on intra-chain couplers.
Qubo HardwareIndexedReference(const Qubo& logical, const Embedding& embedding,
                              const CouplingGraph& target, double cs) {
  Qubo reference(target.num_qubits());
  reference.AddOffset(logical.offset());
  for (int i = 0; i < logical.num_variables(); ++i) {
    const auto& chain = embedding.chains[i];
    for (int q : chain) {
      reference.AddLinear(q, logical.linear(i) / chain.size());
    }
  }
  for (const auto& [i, j, w] : logical.QuadraticTerms()) {
    std::vector<std::pair<int, int>> couplers;
    for (int qa : embedding.chains[i]) {
      for (int qb : embedding.chains[j]) {
        if (target.HasEdge(qa, qb)) couplers.emplace_back(qa, qb);
      }
    }
    for (const auto& [qa, qb] : couplers) {
      reference.AddQuadratic(qa, qb, w / couplers.size());
    }
  }
  for (const auto& chain : embedding.chains) {
    for (int qa : chain) {
      for (int qb : chain) {
        if (qa < qb && target.HasEdge(qa, qb)) {
          reference.AddLinear(qa, cs);
          reference.AddLinear(qb, cs);
          reference.AddQuadratic(qa, qb, -2.0 * cs);
        }
      }
    }
  }
  return reference;
}

TEST(EmbeddedQuboTest, ModelHasOneVariablePerChainQubit) {
  for (uint64_t seed : {31, 37, 41}) {
    PegasusFixture f = PegasusFixture::Make(seed);
    EXPECT_EQ(f.embedded.physical.num_variables(),
              f.embedding.NumPhysicalQubits());
    EXPECT_EQ(static_cast<int>(f.embedded.qubits.size()),
              f.embedding.NumPhysicalQubits());
    EXPECT_LT(f.embedded.physical.num_variables(), f.target.num_qubits());
  }
}

TEST(EmbeddedQuboTest, QubitsAscendAndMapModelChainsBack) {
  for (uint64_t seed : {31, 37, 41}) {
    PegasusFixture f = PegasusFixture::Make(seed);
    const std::vector<int>& qubits = f.embedded.qubits;
    for (size_t k = 1; k < qubits.size(); ++k) {
      EXPECT_LT(qubits[k - 1], qubits[k]);
    }
    ASSERT_EQ(f.embedded.embedding.num_logical(), f.embedding.num_logical());
    for (int v = 0; v < f.embedding.num_logical(); ++v) {
      const auto& model_chain = f.embedded.embedding.chains[v];
      ASSERT_EQ(model_chain.size(), f.embedding.chains[v].size());
      for (size_t a = 0; a < model_chain.size(); ++a) {
        ASSERT_GE(model_chain[a], 0);
        ASSERT_LT(static_cast<size_t>(model_chain[a]), qubits.size());
        EXPECT_EQ(qubits[model_chain[a]], f.embedding.chains[v][a]);
      }
    }
  }
}

TEST(EmbeddedQuboTest, ModelEnergyMatchesHardwareIndexedReference) {
  for (uint64_t seed : {31, 37, 41}) {
    PegasusFixture f = PegasusFixture::Make(seed);
    const Qubo reference = HardwareIndexedReference(
        f.logical, f.embedding, f.target, f.embedded.chain_strength);
    Rng rng(seed + 1000);
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<int> model_bits(f.embedded.qubits.size());
      std::vector<int> hardware_bits(f.target.num_qubits(), 0);
      for (size_t k = 0; k < model_bits.size(); ++k) {
        model_bits[k] = rng.Bernoulli(0.5) ? 1 : 0;
        hardware_bits[f.embedded.qubits[k]] = model_bits[k];
      }
      EXPECT_NEAR(f.embedded.physical.Energy(model_bits),
                  reference.Energy(hardware_bits), 1e-9)
          << "seed=" << seed << " trial=" << trial;
    }
  }
}

TEST(EmbeddedQuboTest, BrokenChainsPayExactPenalty) {
  // Hand-built embedding on a 3-qubit line: chain A = {0,1}, B = {2};
  // logical edge (A,B) of weight 1 lands on coupler (1,2); the chain
  // penalty cs * (x_0 - x_1)^2 sits on coupler (0,1).
  Qubo logical(2);
  logical.AddQuadratic(0, 1, 1.0);
  const CouplingGraph target = MakeLineGraph(3);
  Embedding embedding;
  embedding.chains = {{0, 1}, {2}};
  EmbedQuboOptions opts;
  opts.chain_strength_override = 2.0;
  auto embedded = EmbedQubo(logical, embedding, target, opts);
  ASSERT_TRUE(embedded.ok());
  // Consistent A=1, B=1: energy = logical = 1.
  EXPECT_DOUBLE_EQ(embedded->physical.Energy({1, 1, 1}), 1.0);
  // Consistent A=1, B=0: energy = 0.
  EXPECT_DOUBLE_EQ(embedded->physical.Energy({1, 1, 0}), 0.0);
  // Breaking the chain (qubit 0 disagrees) pays exactly cs = 2 on top of
  // the remaining logical term.
  EXPECT_DOUBLE_EQ(embedded->physical.Energy({0, 1, 1}), 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(embedded->physical.Energy({1, 0, 1}), 2.0);
}

TEST(EmbeddedQuboTest, ChainStrengthOptions) {
  EmbeddedFixture f = EmbeddedFixture::Make(17);
  EXPECT_DOUBLE_EQ(f.embedded.chain_strength, 2.0);  // max |coefficient|
  EmbedQuboOptions opts;
  opts.chain_strength_override = 7.5;
  auto embedded = EmbedQubo(f.logical, f.embedding, f.target, opts);
  ASSERT_TRUE(embedded.ok());
  EXPECT_DOUBLE_EQ(embedded->chain_strength, 7.5);
  opts.chain_strength_override = -1.0;
  opts.chain_strength_multiplier = 2.0;
  embedded = EmbedQubo(f.logical, f.embedding, f.target, opts);
  ASSERT_TRUE(embedded.ok());
  EXPECT_DOUBLE_EQ(embedded->chain_strength, 4.0);
}

TEST(EmbeddedQuboTest, RejectsMismatchedEmbedding) {
  EmbeddedFixture f = EmbeddedFixture::Make(19);
  Embedding wrong;
  wrong.chains = {{0}, {1}};  // only two chains for three variables
  EXPECT_FALSE(EmbedQubo(f.logical, wrong, f.target, EmbedQuboOptions{}).ok());
}

TEST(UnembedTest, MajorityVote) {
  Embedding embedding;
  embedding.chains = {{0, 1, 2}, {3, 4}, {5}};
  Rng rng(23);
  UnembeddedSample s =
      UnembedSample({1, 1, 0, 0, 0, 1}, embedding, rng);
  EXPECT_EQ(s.logical_bits[0], 1);  // 2 of 3
  EXPECT_EQ(s.logical_bits[1], 0);  // unanimous
  EXPECT_EQ(s.logical_bits[2], 1);
  // Chains 0 is broken, chain 1 and 2 are intact.
  EXPECT_NEAR(s.chain_break_fraction, 1.0 / 3.0, 1e-9);
}

TEST(UnembedTest, TieBreaksAreRandomButValid) {
  Embedding embedding;
  embedding.chains = {{0, 1}};
  Rng rng(29);
  int ones = 0;
  for (int i = 0; i < 200; ++i) {
    UnembeddedSample s = UnembedSample({1, 0}, embedding, rng);
    ones += s.logical_bits[0];
    EXPECT_NEAR(s.chain_break_fraction, 1.0, 1e-9);
  }
  EXPECT_GT(ones, 50);
  EXPECT_LT(ones, 150);
}

}  // namespace
}  // namespace qjo
