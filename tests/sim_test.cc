#include <bit>
#include <chrono>
#include <cmath>
#include <complex>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stop_token>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/qaoa_builder.h"
#include "core/qubo_cache.h"
#include "jo/query_generator.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "sim/device.h"
#include "sim/qaoa_analytic.h"
#include "sim/qaoa_reference.h"
#include "sim/qaoa_simulator.h"
#include "sim/sqa.h"
#include "sim/sqa_reference.h"
#include "sim/statevector.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

constexpr double kPi = 3.14159265358979323846;

IsingModel RandomIsing(int n, double edge_probability, Rng& rng,
                       bool with_fields = true) {
  IsingModel ising;
  ising.h.assign(n, 0.0);
  if (with_fields) {
    for (int i = 0; i < n; ++i) ising.h[i] = rng.UniformDouble(-1.0, 1.0);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(edge_probability)) {
        ising.couplings.emplace_back(i, j, rng.UniformDouble(-1.0, 1.0));
      }
    }
  }
  ising.offset = rng.UniformDouble(-0.5, 0.5);
  return ising;
}

TEST(StateVectorTest, BellState) {
  auto sv = StateVector::Create(2);
  ASSERT_TRUE(sv.ok());
  sv->Apply(Gate::Single(GateType::kH, 0));
  sv->Apply(Gate::Two(GateType::kCx, 0, 1));
  EXPECT_NEAR(sv->Probability(0b00), 0.5, 1e-12);
  EXPECT_NEAR(sv->Probability(0b11), 0.5, 1e-12);
  EXPECT_NEAR(sv->Probability(0b01), 0.0, 1e-12);
  EXPECT_NEAR(sv->ExpectationZZ(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(sv->ExpectationZ(0), 0.0, 1e-12);
}

TEST(StateVectorTest, GhzState) {
  auto sv = StateVector::Create(4);
  ASSERT_TRUE(sv.ok());
  sv->Apply(Gate::Single(GateType::kH, 0));
  for (int q = 0; q + 1 < 4; ++q) sv->Apply(Gate::Two(GateType::kCx, q, q + 1));
  EXPECT_NEAR(sv->Probability(0b0000), 0.5, 1e-12);
  EXPECT_NEAR(sv->Probability(0b1111), 0.5, 1e-12);
}

TEST(StateVectorTest, SxSquaredIsX) {
  auto sv = StateVector::Create(1);
  ASSERT_TRUE(sv.ok());
  sv->Apply(Gate::Single(GateType::kSx, 0));
  sv->Apply(Gate::Single(GateType::kSx, 0));
  EXPECT_NEAR(sv->Probability(1), 1.0, 1e-12);
}

TEST(StateVectorTest, RzzIsDiagonalPhase) {
  // On |++>, RZZ must not change probabilities but must change relative
  // phases, visible after a Hadamard basis change.
  auto sv = StateVector::Create(2);
  ASSERT_TRUE(sv.ok());
  sv->Apply(Gate::Single(GateType::kH, 0));
  sv->Apply(Gate::Single(GateType::kH, 1));
  sv->Apply(Gate::Two(GateType::kRzz, 0, 1, kPi));
  for (uint64_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(sv->Probability(b), 0.25, 1e-12);
  }
  sv->Apply(Gate::Single(GateType::kH, 0));
  sv->Apply(Gate::Single(GateType::kH, 1));
  // RZZ(pi) on |++> gives (|01>+|10>)-type correlations after H x H.
  EXPECT_NEAR(sv->Probability(0b00), 0.0, 1e-9);
}

TEST(StateVectorTest, MsOnZeroZero) {
  auto sv = StateVector::Create(2);
  ASSERT_TRUE(sv.ok());
  sv->Apply(Gate::Two(GateType::kMs, 0, 1, kPi / 2));
  // XX(pi/2)|00> = (|00> - i|11>)/sqrt(2).
  EXPECT_NEAR(sv->Probability(0b00), 0.5, 1e-12);
  EXPECT_NEAR(sv->Probability(0b11), 0.5, 1e-12);
}

TEST(StateVectorTest, SwapGate) {
  auto sv = StateVector::Create(2);
  ASSERT_TRUE(sv.ok());
  sv->Apply(Gate::Single(GateType::kX, 0));
  sv->Apply(Gate::Two(GateType::kSwap, 0, 1));
  EXPECT_NEAR(sv->Probability(0b10), 1.0, 1e-12);
}

TEST(StateVectorTest, SamplingMatchesDistribution) {
  auto sv = StateVector::Create(2);
  ASSERT_TRUE(sv.ok());
  sv->Apply(Gate::Single(GateType::kRy, 0, 2.0 * std::asin(std::sqrt(0.3))));
  Rng rng(7);
  const auto samples = sv->Sample(20000, rng);
  int ones = 0;
  for (uint64_t s : samples) ones += static_cast<int>(s & 1);
  EXPECT_NEAR(static_cast<double>(ones) / samples.size(), 0.3, 0.02);
}

TEST(StateVectorTest, RejectsBadSizes) {
  EXPECT_FALSE(StateVector::Create(0).ok());
  EXPECT_FALSE(StateVector::Create(29).ok());
}

using Matrix = std::vector<std::vector<std::complex<double>>>;

/// Textbook matrix of a gate with parameter `t`, rows and columns indexed
/// by the operand bits: b for a single-qubit gate, 2 * b_first + b_second
/// for a two-qubit gate (so for kCx the first operand is the control).
Matrix TextbookMatrix(GateType type, double t) {
  using C = std::complex<double>;
  const double c = std::cos(t / 2.0), s = std::sin(t / 2.0);
  const double r = 1.0 / std::sqrt(2.0);
  const C i(0.0, 1.0);
  const C lo = std::exp(-i * t / 2.0), hi = std::exp(i * t / 2.0);
  switch (type) {
    case GateType::kH:
      return {{r, r}, {r, -r}};
    case GateType::kX:
      return {{0, 1}, {1, 0}};
    case GateType::kSx:
      return {{C(0.5, 0.5), C(0.5, -0.5)}, {C(0.5, -0.5), C(0.5, 0.5)}};
    case GateType::kRx:
      return {{c, -i * s}, {-i * s, c}};
    case GateType::kRy:
      return {{c, -s}, {s, c}};
    case GateType::kRz:
      return {{lo, 0}, {0, hi}};
    case GateType::kCx:
      return {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
    case GateType::kCz:
      return {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, -1}};
    case GateType::kSwap:
      return {{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}};
    case GateType::kRzz:
      return {{lo, 0, 0, 0}, {0, hi, 0, 0}, {0, 0, hi, 0}, {0, 0, 0, lo}};
    case GateType::kMs:
      return {{c, 0, 0, -i * s},
              {0, c, -i * s, 0},
              {0, -i * s, c, 0},
              {-i * s, 0, 0, c}};
  }
  return {};
}

TEST(StateVectorTest, EveryGateMatchesItsMatrix) {
  // Checks amplitudes, not probabilities, so phase errors show. Two-qubit
  // operands are non-adjacent and reversed, (2, 0), and the single-qubit
  // operand is the middle qubit, so the Kronecker expansion is exercised
  // on both sides of every operand.
  constexpr int kQubits = 3;
  constexpr double kTheta = 0.7;
  for (int k = 0; k <= static_cast<int>(GateType::kMs); ++k) {
    const GateType type = static_cast<GateType>(k);
    const std::vector<int> operands =
        IsTwoQubitGate(type) ? std::vector<int>{2, 0} : std::vector<int>{1};
    QuantumCircuit circuit(kQubits);
    circuit.Append(Gate{type, operands, kTheta});
    const auto unitary = CircuitUnitary(circuit);
    ASSERT_TRUE(unitary.ok());
    const Matrix gate = TextbookMatrix(type, kTheta);
    ASSERT_EQ(gate.size(), size_t{1} << operands.size());
    // Operand-bit index of basis state b, first operand most significant.
    auto local = [&](uint64_t b) {
      uint64_t index = 0;
      for (int q : operands) index = 2 * index + ((b >> q) & 1);
      return index;
    };
    uint64_t operand_mask = 0;
    for (int q : operands) operand_mask |= uint64_t{1} << q;
    for (uint64_t col = 0; col < (1u << kQubits); ++col) {
      for (uint64_t row = 0; row < (1u << kQubits); ++row) {
        const std::complex<double> expected =
            (row & ~operand_mask) == (col & ~operand_mask)
                ? gate[local(row)][local(col)]
                : 0.0;
        // CircuitUnitary is column-major: (*unitary)[col][row].
        EXPECT_NEAR(std::abs((*unitary)[col][row] - expected), 0.0, 1e-12)
            << GateTypeName(type) << " row " << row << " col " << col;
      }
    }
  }
}

TEST(StateVectorDeathTest, RejectsGatesThatAppendRejects) {
  StateVector sv = *StateVector::Create(3);
  // Operand count must match the gate type.
  EXPECT_DEATH(sv.Apply(Gate::Single(GateType::kCx, 0)), "CHECK failed");
  EXPECT_DEATH(sv.Apply(Gate::Two(GateType::kH, 0, 1)), "CHECK failed");
  // Two-qubit operands must be distinct.
  EXPECT_DEATH(sv.Apply(Gate::Two(GateType::kMs, 1, 1, 0.3)),
               "CHECK failed");
  EXPECT_DEATH(sv.Apply(Gate::Two(GateType::kRzz, 2, 2, 0.3)),
               "CHECK failed");
  EXPECT_DEATH(sv.Apply(Gate::Two(GateType::kCx, 0, 0)), "CHECK failed");
  EXPECT_DEATH(sv.Apply(Gate::Two(GateType::kSwap, 1, 1)), "CHECK failed");
  // Operands must be in range.
  EXPECT_DEATH(sv.Apply(Gate::Single(GateType::kX, 3)), "CHECK failed");
  EXPECT_DEATH(sv.Apply(Gate::Two(GateType::kCz, -1, 0)), "CHECK failed");
}

TEST(QaoaSimulatorTest, CostSpectrumMatchesIsingEnergy) {
  Rng rng(11);
  const IsingModel ising = RandomIsing(8, 0.5, rng);
  auto sim = QaoaSimulator::Create(ising);
  ASSERT_TRUE(sim.ok());
  for (uint64_t x = 0; x < 256; x += 17) {
    std::vector<int> spins(8);
    for (int i = 0; i < 8; ++i) spins[i] = (x >> i) & 1 ? -1 : 1;
    EXPECT_NEAR(sim->cost_spectrum()[x], ising.Energy(spins), 1e-4);
  }
}

TEST(QaoaSimulatorTest, MatchesDenseSimulatorProbabilities) {
  Rng rng(13);
  const IsingModel ising = RandomIsing(6, 0.5, rng);
  QaoaParameters params{{0.35}, {0.8}};

  auto fast = QaoaSimulator::Create(ising);
  ASSERT_TRUE(fast.ok());
  fast->Run(params);

  auto circuit = BuildQaoaCircuit(ising, params);
  ASSERT_TRUE(circuit.ok());
  auto dense = StateVector::Create(6);
  ASSERT_TRUE(dense.ok());
  dense->ApplyCircuit(*circuit);

  for (uint64_t x = 0; x < 64; ++x) {
    EXPECT_NEAR(fast->Probability(x), dense->Probability(x), 1e-5)
        << "x=" << x;
  }
}

TEST(QaoaSimulatorTest, ExpectationMatchesDense) {
  Rng rng(17);
  const IsingModel ising = RandomIsing(7, 0.4, rng);
  QaoaParameters params{{0.2}, {1.1}};
  auto fast = QaoaSimulator::Create(ising);
  ASSERT_TRUE(fast.ok());
  const double fast_expectation = fast->Run(params);

  auto circuit = BuildQaoaCircuit(ising, params);
  ASSERT_TRUE(circuit.ok());
  auto dense = StateVector::Create(7);
  ASSERT_TRUE(dense.ok());
  dense->ApplyCircuit(*circuit);
  double dense_expectation = ising.offset;
  for (int i = 0; i < 7; ++i) {
    dense_expectation += ising.h[i] * dense->ExpectationZ(i);
  }
  for (const auto& [i, j, w] : ising.couplings) {
    dense_expectation += w * dense->ExpectationZZ(i, j);
  }
  EXPECT_NEAR(fast_expectation, dense_expectation, 1e-4);
}

TEST(QaoaSimulatorTest, MatchesDenseSimulatorAtPTwo) {
  Rng rng(14);
  const IsingModel ising = RandomIsing(5, 0.6, rng);
  QaoaParameters params{{0.3, 0.15}, {0.9, 0.45}};
  auto fast = QaoaSimulator::Create(ising);
  ASSERT_TRUE(fast.ok());
  fast->Run(params);
  auto circuit = BuildQaoaCircuit(ising, params);
  ASSERT_TRUE(circuit.ok());
  auto dense = StateVector::Create(5);
  ASSERT_TRUE(dense.ok());
  dense->ApplyCircuit(*circuit);
  for (uint64_t x = 0; x < 32; ++x) {
    EXPECT_NEAR(fast->Probability(x), dense->Probability(x), 1e-5);
  }
}

TEST(QaoaSimulatorTest, MinCostMatchesEnumeration) {
  Rng rng(15);
  const IsingModel ising = RandomIsing(9, 0.5, rng);
  auto sim = QaoaSimulator::Create(ising);
  ASSERT_TRUE(sim.ok());
  double ground = 1e300;
  for (uint64_t x = 0; x < 512; ++x) {
    std::vector<int> spins(9);
    for (int i = 0; i < 9; ++i) spins[i] = (x >> i) & 1 ? -1 : 1;
    ground = std::min(ground, ising.Energy(spins));
  }
  uint64_t argmin = 0;
  EXPECT_NEAR(sim->MinCost(&argmin), ground, 1e-4);
  EXPECT_NEAR(sim->cost_spectrum()[argmin], ground, 1e-4);
}

TEST(QaoaSimulatorTest, PartialFidelityInterpolates) {
  Rng rng(16);
  // Strongly biased Hamiltonian: optimal QAOA mass concentrates.
  IsingModel ising;
  ising.h = {2.0, 2.0, 2.0, 2.0};  // ground state: all spins -1 (bits 1111)
  auto sim = QaoaSimulator::Create(ising);
  ASSERT_TRUE(sim.ok());
  QaoaParameters params{{0.5}, {0.8}};
  sim->Run(params);
  // Interpolation target: the most likely state of the ideal distribution.
  uint64_t mode = 0;
  for (uint64_t x = 1; x < 16; ++x) {
    if (sim->Probability(x) > sim->Probability(mode)) mode = x;
  }
  auto mass_on_mode = [&](double fidelity, uint64_t seed) {
    Rng local(seed);
    const auto samples = sim->Sample(8000, fidelity, local);
    int hits = 0;
    for (uint64_t s : samples) {
      if (s == mode) ++hits;
    }
    return static_cast<double>(hits) / samples.size();
  };
  const double ideal = mass_on_mode(1.0, 1);
  const double half = mass_on_mode(0.5, 2);
  const double none = mass_on_mode(0.0, 3);
  EXPECT_NEAR(ideal, sim->Probability(mode), 0.02);
  EXPECT_NEAR(none, 1.0 / 16, 0.02);
  EXPECT_NEAR(half, 0.5 * ideal + 0.5 / 16, 0.03);
  EXPECT_GT(ideal, none);
}

TEST(QaoaSimulatorTest, FullDepolarisationIsUniform) {
  Rng rng(19);
  const IsingModel ising = RandomIsing(4, 0.6, rng);
  auto sim = QaoaSimulator::Create(ising);
  ASSERT_TRUE(sim.ok());
  sim->Run(QaoaParameters{{0.3}, {0.4}});
  const auto samples = sim->Sample(16000, 0.0, rng);
  std::map<uint64_t, int> histogram;
  for (uint64_t s : samples) ++histogram[s];
  for (const auto& [basis, count] : histogram) {
    (void)basis;
    EXPECT_NEAR(static_cast<double>(count) / samples.size(), 1.0 / 16, 0.02);
  }
}

/// The central validation: the closed-form p=1 expectations agree with the
/// dense simulator on random Ising instances with fields.
struct AnalyticCase {
  int n;
  double edge_probability;
  bool with_fields;
  uint64_t seed;
};

class AnalyticQaoaTest : public ::testing::TestWithParam<AnalyticCase> {};

TEST_P(AnalyticQaoaTest, MatchesDenseSimulator) {
  const AnalyticCase& c = GetParam();
  Rng rng(c.seed);
  const IsingModel ising =
      RandomIsing(c.n, c.edge_probability, rng, c.with_fields);
  for (const auto& [gamma, beta] :
       std::vector<std::pair<double, double>>{
           {0.3, 0.7}, {0.9, 0.2}, {-0.4, 1.3}, {0.05, 2.7}}) {
    QaoaParameters params{{gamma}, {beta}};
    auto circuit = BuildQaoaCircuit(ising, params);
    ASSERT_TRUE(circuit.ok());
    auto dense = StateVector::Create(c.n);
    ASSERT_TRUE(dense.ok());
    dense->ApplyCircuit(*circuit);

    for (int i = 0; i < c.n; ++i) {
      EXPECT_NEAR(AnalyticExpectationZ(ising, i, gamma, beta),
                  dense->ExpectationZ(i), 1e-9)
          << "Z_" << i << " gamma=" << gamma << " beta=" << beta;
    }
    for (int i = 0; i < c.n; ++i) {
      for (int j = i + 1; j < c.n; ++j) {
        EXPECT_NEAR(AnalyticExpectationZZ(ising, i, j, gamma, beta),
                    dense->ExpectationZZ(i, j), 1e-9)
            << "Z_" << i << "Z_" << j << " gamma=" << gamma
            << " beta=" << beta;
      }
    }
    double dense_expectation = ising.offset;
    for (int i = 0; i < c.n; ++i) {
      dense_expectation += ising.h[i] * dense->ExpectationZ(i);
    }
    for (const auto& [i, j, w] : ising.couplings) {
      dense_expectation += w * dense->ExpectationZZ(i, j);
    }
    EXPECT_NEAR(AnalyticQaoaExpectation(ising, gamma, beta),
                dense_expectation, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnalyticQaoaTest,
    ::testing::Values(AnalyticCase{2, 1.0, true, 21},
                      AnalyticCase{3, 1.0, true, 22},
                      AnalyticCase{4, 0.5, true, 23},
                      AnalyticCase{5, 0.6, true, 24},
                      AnalyticCase{6, 0.4, true, 25},
                      AnalyticCase{6, 0.4, false, 26},
                      AnalyticCase{7, 0.3, true, 27}));

TEST(QaoaOptimizerTest, ImprovesOverRandomAngles) {
  Rng rng(31);
  const IsingModel ising = RandomIsing(8, 0.4, rng);
  const QaoaAngles angles = OptimizeQaoaAngles(ising, 30, rng);
  // Compare against the average over random angles.
  double random_mean = 0.0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    random_mean += AnalyticQaoaExpectation(
        ising, rng.UniformDouble(0.0, 2.0), rng.UniformDouble(0.0, kPi));
  }
  random_mean /= trials;
  EXPECT_LT(angles.expectation, random_mean);
  EXPECT_NEAR(angles.expectation,
              AnalyticQaoaExpectation(ising, angles.gamma, angles.beta),
              1e-9);
}

TEST(DeviceTest, PaperCalibrationValues) {
  const DeviceProperties auckland = IbmAucklandProperties();
  EXPECT_DOUBLE_EQ(auckland.t1_us, 151.13);
  EXPECT_DOUBLE_EQ(auckland.t2_us, 138.72);
  // d = floor(min(T1,T2)/g_avg) = floor(138720/472.51) = 293.
  EXPECT_EQ(auckland.MaxFeasibleDepth(), 293);
  const DeviceProperties washington = IbmWashingtonProperties();
  // floor(92810/550.41) = 168: larger machine, *smaller* feasible depth.
  EXPECT_EQ(washington.MaxFeasibleDepth(), 168);
  EXPECT_LT(washington.MaxFeasibleDepth(), auckland.MaxFeasibleDepth());
}

TEST(DeviceTest, FidelityDecreasesWithDepth) {
  const DeviceProperties device = IbmAucklandProperties();
  QuantumCircuit shallow(2);
  shallow.H(0);
  shallow.Cx(0, 1);
  QuantumCircuit deep(2);
  for (int i = 0; i < 200; ++i) deep.Cx(0, 1);
  const double f_shallow = EstimateCircuitFidelity(shallow, device);
  const double f_deep = EstimateCircuitFidelity(deep, device);
  EXPECT_GT(f_shallow, f_deep);
  EXPECT_GT(f_shallow, 0.95);
  EXPECT_LT(f_deep, 0.5);
  EXPECT_GE(f_deep, 0.0);
}

TEST(DeviceTest, QpuTimingsShapeMatchesPaper) {
  // t_qpu must be orders of magnitude above t_s, and problem size must
  // barely matter (Sec. 4.2.1).
  const DeviceProperties device = IbmAucklandProperties();
  QuantumCircuit small(18);
  for (int i = 0; i < 50; ++i) small.Cx(i % 18, (i + 1) % 18);
  QuantumCircuit large(27);
  for (int i = 0; i < 120; ++i) large.Cx(i % 27, (i + 1) % 27);
  const QpuTimings t_small = EstimateQpuTimings(small, 1024, device);
  const QpuTimings t_large = EstimateQpuTimings(large, 1024, device);
  EXPECT_GT(t_small.total_s * 1000.0, 20.0 * t_small.sampling_ms);
  EXPECT_LT(t_large.total_s / t_small.total_s, 1.2);
  EXPECT_GT(t_large.sampling_ms, t_small.sampling_ms);
}

TEST(SqaTest, SolvesFerromagneticChain) {
  // Ground states of a ferromagnetic chain are all-up / all-down.
  IsingModel ising;
  const int n = 16;
  ising.h.assign(n, 0.0);
  for (int i = 0; i + 1 < n; ++i) ising.couplings.emplace_back(i, i + 1, -1.0);
  SqaOptions options;
  options.num_reads = 20;
  options.annealing_time_us = 20.0;
  options.sweeps_per_us = 10.0;
  Rng rng(37);
  auto samples = RunSqa(ising, options, {}, rng);
  ASSERT_TRUE(samples.ok());
  int ground_hits = 0;
  for (const SqaSample& s : *samples) {
    EXPECT_NEAR(s.energy, ising.Energy(s.spins), 1e-9);
    if (s.energy <= -(n - 1) + 1e-9) ++ground_hits;
  }
  EXPECT_GT(ground_hits, 10);
}

TEST(SqaTest, SolvesSmallFrustratedProblem) {
  Rng rng(41);
  const IsingModel ising = RandomIsing(10, 0.5, rng);
  // Exact ground state by enumeration.
  double ground = 1e300;
  for (uint64_t x = 0; x < 1024; ++x) {
    std::vector<int> spins(10);
    for (int i = 0; i < 10; ++i) spins[i] = (x >> i) & 1 ? -1 : 1;
    ground = std::min(ground, ising.Energy(spins));
  }
  SqaOptions options;
  options.num_reads = 30;
  options.annealing_time_us = 50.0;
  options.sweeps_per_us = 10.0;
  auto samples = RunSqa(ising, options, {}, rng);
  ASSERT_TRUE(samples.ok());
  double best = 1e300;
  for (const SqaSample& s : *samples) best = std::min(best, s.energy);
  EXPECT_NEAR(best, ground, 1e-6);
}

TEST(SqaTest, IceNoiseDegradesSolutionQuality) {
  Rng rng(43);
  const IsingModel ising = RandomIsing(14, 0.4, rng);
  SqaOptions clean;
  clean.num_reads = 40;
  clean.annealing_time_us = 30.0;
  SqaOptions noisy = clean;
  noisy.ice_sigma = 0.5;  // heavy control noise
  Rng rng_clean(47), rng_noisy(47);
  auto clean_samples = RunSqa(ising, clean, {}, rng_clean);
  auto noisy_samples = RunSqa(ising, noisy, {}, rng_noisy);
  ASSERT_TRUE(clean_samples.ok());
  ASSERT_TRUE(noisy_samples.ok());
  double clean_mean = 0.0, noisy_mean = 0.0;
  for (const auto& s : *clean_samples) clean_mean += s.energy;
  for (const auto& s : *noisy_samples) noisy_mean += s.energy;
  EXPECT_LT(clean_mean, noisy_mean);
}

TEST(SqaTest, DeterministicAcrossParallelism) {
  Rng make_rng(59);
  const IsingModel ising = RandomIsing(12, 0.4, make_rng);
  SqaOptions options;
  options.num_reads = 12;
  options.annealing_time_us = 10.0;
  options.sweeps_per_us = 5.0;
  options.trotter_slices = 6;
  options.ice_sigma = 0.02;  // per-read noise draws must fork too
  std::vector<std::vector<SqaSample>> runs;
  for (int parallelism : {1, 2, 8}) {
    ThreadPool pool(parallelism);
    RunContext run;
    run.pool = &pool;
    Rng rng(61);
    auto samples = RunSqa(ising, options, run, rng);
    ASSERT_TRUE(samples.ok());
    runs.push_back(*std::move(samples));
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].energy, runs[0][i].energy)
          << "run " << run << " read " << i;
      EXPECT_EQ(runs[run][i].spins, runs[0][i].spins);
    }
  }
}

TEST(SqaTest, RejectsBadOptions) {
  IsingModel empty;
  SqaOptions options;
  Rng rng(53);
  EXPECT_FALSE(RunSqa(empty, options, {}, rng).ok());
  IsingModel one;
  one.h = {1.0};
  options.num_reads = 0;
  EXPECT_FALSE(RunSqa(one, options, {}, rng).ok());
  options.num_reads = 1;
  options.trotter_slices = 1;
  EXPECT_FALSE(RunSqa(one, options, {}, rng).ok());
}

// Schedules RunSqa must reject: a zero temperature gives the last sweep
// a 0/0 (NaN) replica coupling, a negative one accepts every uphill move,
// and NaN or infinite values slip past `<= 0` checks.
void ExpectSqaRejects(const SqaOptions& options, const char* what) {
  IsingModel ising;
  ising.h = {0.5, -0.25, 1.0};
  ising.couplings = {{0, 1, -1.0}, {1, 2, 0.75}};
  EXPECT_EQ(ValidateSqaOptions(options).code(), StatusCode::kInvalidArgument)
      << what;
  Rng rng(59);
  const auto samples = RunSqa(ising, options, {}, rng);
  EXPECT_EQ(samples.status().code(), StatusCode::kInvalidArgument) << what;
}

SqaOptions SmallSqaOptions() {
  SqaOptions options;
  options.num_reads = 2;
  options.annealing_time_us = 2.0;
  return options;
}

TEST(SqaTest, RejectsZeroTemperature) {
  SqaOptions options = SmallSqaOptions();
  ASSERT_TRUE(ValidateSqaOptions(options).ok());
  options.relative_temperature = 0.0;
  ExpectSqaRejects(options, "relative_temperature = 0");
}

TEST(SqaTest, RejectsNegativeTemperature) {
  SqaOptions options = SmallSqaOptions();
  options.relative_temperature = -0.03;
  ExpectSqaRejects(options, "relative_temperature < 0");
}

TEST(SqaTest, RejectsNegativeInitialFieldAndIceSigma) {
  SqaOptions options = SmallSqaOptions();
  options.relative_initial_field = -1.5;
  ExpectSqaRejects(options, "relative_initial_field < 0");
  options = SmallSqaOptions();
  options.ice_sigma = -0.01;
  ExpectSqaRejects(options, "ice_sigma < 0");
  // Zero is a valid field (no tunnelling) and a valid sigma (no noise).
  options = SmallSqaOptions();
  options.relative_initial_field = 0.0;
  options.ice_sigma = 0.0;
  EXPECT_TRUE(ValidateSqaOptions(options).ok());
}

TEST(SqaTest, RejectsNonFiniteScheduleValues) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNaN, kInf}) {
    SqaOptions options = SmallSqaOptions();
    options.relative_temperature = bad;
    ExpectSqaRejects(options, "relative_temperature");
    options = SmallSqaOptions();
    options.relative_initial_field = bad;
    ExpectSqaRejects(options, "relative_initial_field");
    options = SmallSqaOptions();
    options.ice_sigma = bad;
    ExpectSqaRejects(options, "ice_sigma");
    options = SmallSqaOptions();
    options.annealing_time_us = bad;
    ExpectSqaRejects(options, "annealing_time_us");
    options = SmallSqaOptions();
    options.sweeps_per_us = bad;
    ExpectSqaRejects(options, "sweeps_per_us");
  }
}

TEST(SqaTest, RejectsSweepCountPastIntRange) {
  // annealing_time_us * sweeps_per_us is cast to int, which is undefined
  // past INT_MAX.
  SqaOptions options = SmallSqaOptions();
  options.annealing_time_us = 1e12;
  ExpectSqaRejects(options, "1e12 us x 5 sweeps/us");
}

/// Random Ising model whose coefficients are multiples of 1/64: all field
/// sums are exact, so production's per-slice local fields must equal the
/// scanning reference's O(degree) sums bit for bit (see the dyadic QUBO
/// kernel tests for the same argument).
IsingModel DyadicRandomIsing(int n, double edge_probability, Rng& rng) {
  IsingModel ising;
  const auto dyadic = [&rng] {
    return (static_cast<double>(rng.UniformInt(129)) - 64.0) / 64.0;
  };
  ising.h.assign(n, 0.0);
  for (int i = 0; i < n; ++i) ising.h[i] = dyadic();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(edge_probability)) {
        ising.couplings.emplace_back(i, j, dyadic());
      }
    }
  }
  return ising;
}

// The SQA and QAOA parity tests below run production (null pool, then
// pools of 1, 4 and 8 threads) against the serial oracles of
// sim/sqa_reference.h and sim/qaoa_reference.h, which run once.

TEST(SqaTest, KernelsBitIdenticalOnDyadicProblems) {
  // The scanning reference sums each classical field over the
  // neighbourhood, production keeps it in persistent field planes: on
  // dyadic coefficients both sums are exact.
  Rng make_rng(67);
  const IsingModel ising = DyadicRandomIsing(20, 0.4, make_rng);
  SqaOptions options;
  options.num_reads = 6;
  options.annealing_time_us = 10.0;
  options.sweeps_per_us = 4.0;
  options.trotter_slices = 8;
  options.ice_sigma = 0.0;  // noise would perturb the dyadic coefficients
  Rng rng_ref(71);
  auto reference =
      RunSqaReference(ising, options, rng_ref, ReferenceDelta::kScan);
  ASSERT_TRUE(reference.ok());
  for (int parallelism : {0, 1, 4, 8}) {
    std::optional<ThreadPool> pool;
    if (parallelism > 0) pool.emplace(parallelism);
    RunContext run;
    run.pool = pool ? &*pool : nullptr;
    Rng rng_inc(71);
    auto incremental = RunSqa(ising, options, run, rng_inc);
    ASSERT_TRUE(incremental.ok());
    ASSERT_EQ(incremental->size(), reference->size());
    for (size_t i = 0; i < incremental->size(); ++i) {
      EXPECT_EQ((*incremental)[i].energy, (*reference)[i].energy)
          << "parallelism " << parallelism << " read " << i;
      EXPECT_EQ((*incremental)[i].spins, (*reference)[i].spins);
    }
  }
}

TEST(SqaTest, BatchedKernelsBitIdenticalToScalarReads) {
  // The batched SoA kernel mirrors the scalar local-field read's
  // per-replica operand order exactly (exact +-2 * J products, same
  // per-lane draw sequence including the ICE Gaussians), so bit-identity
  // holds on continuous coefficients *with* noise, for full groups,
  // partial tail lanes, and a single lane, at every parallelism.
  Rng make_rng(67);
  const IsingModel ising = RandomIsing(15, 0.4, make_rng);
  SqaOptions options;
  options.annealing_time_us = 4.0;
  options.sweeps_per_us = 4.0;
  options.trotter_slices = 5;
  options.ice_sigma = 0.02;
  for (int num_reads : {1, 4, 17}) {
    options.num_reads = num_reads;
    Rng rng_ref(71);
    auto scalar =
        RunSqaReference(ising, options, rng_ref, ReferenceDelta::kLocalFields);
    ASSERT_TRUE(scalar.ok());
    for (int parallelism : {0, 1, 4, 8}) {
      std::optional<ThreadPool> pool;
      if (parallelism > 0) pool.emplace(parallelism);
      RunContext run;
      run.pool = pool ? &*pool : nullptr;
      Rng rng_bat(71);
      auto batched = RunSqa(ising, options, run, rng_bat);
      ASSERT_TRUE(batched.ok());
      ASSERT_EQ(scalar->size(), batched->size());
      for (size_t i = 0; i < scalar->size(); ++i) {
        EXPECT_EQ((*scalar)[i].energy, (*batched)[i].energy)
            << "reads " << num_reads << " parallelism " << parallelism
            << " read " << i;
        EXPECT_EQ((*scalar)[i].spins, (*batched)[i].spins);
      }
    }
  }
}

TEST(QaoaSimulatorTest, DeterministicAcrossParallelism) {
  Rng make_rng(73);
  const IsingModel ising = RandomIsing(16, 0.3, make_rng);
  QaoaParameters params;
  params.gammas = {0.4, 0.15};
  params.betas = {0.9, 0.35};

  auto serial = QaoaSimulator::Create(ising);
  ASSERT_TRUE(serial.ok());
  const double serial_expectation = serial->Run(params);

  ThreadPool pool(4);
  auto parallel = QaoaSimulator::Create(ising);
  ASSERT_TRUE(parallel.ok());
  parallel->set_pool(&pool);
  const double parallel_expectation = parallel->Run(params);

  EXPECT_EQ(serial_expectation, parallel_expectation);
  const uint64_t size = uint64_t{1} << 16;
  for (uint64_t basis = 0; basis < size; basis += 257) {
    ASSERT_EQ(serial->Probability(basis), parallel->Probability(basis))
        << "basis " << basis;
  }
}


// --- Fused fast path: kernel parity and batched evaluation. ---

TEST(QaoaSimulatorTest, FusedKernelsBitIdenticalToReference) {
  // 16 qubits exercises both halves of the fused layer (qubits 0..13 in
  // the in-block sweep, 14..15 in the tiled high-qubit sweep); 10 qubits
  // stays entirely in-block. Amplitudes must compare equal with
  // operator== at every depth (IEEE zero signs may differ, values not).
  for (int n : {10, 16}) {
    for (int p : {1, 2, 3}) {
      Rng make_rng(1000 + 10 * n + p);
      const IsingModel ising = RandomIsing(n, 0.4, make_rng);
      QaoaParameters params;
      for (int rep = 0; rep < p; ++rep) {
        params.gammas.push_back(0.3 + 0.17 * rep);
        params.betas.push_back(0.8 - 0.21 * rep);
      }

      auto fused = QaoaSimulator::Create(ising);
      ASSERT_TRUE(fused.ok());
      std::vector<std::complex<float>> reference;
      const double er =
          RunQaoaReference(fused->cost_spectrum(), params, reference);
      for (int parallelism : {0, 1, 4, 8}) {
        std::optional<ThreadPool> pool;
        if (parallelism > 0) pool.emplace(parallelism);
        fused->set_pool(pool ? &*pool : nullptr);
        const double ef = fused->Run(params);
        EXPECT_EQ(ef, er) << "n=" << n << " p=" << p
                          << " parallelism=" << parallelism;
        ASSERT_EQ(fused->amplitudes().size(), reference.size());
        for (size_t i = 0; i < reference.size(); ++i) {
          ASSERT_EQ(fused->amplitudes()[i], reference[i])
              << "n=" << n << " p=" << p << " parallelism=" << parallelism
              << " amp " << i;
        }
      }
      fused->set_pool(nullptr);
    }
  }
}

TEST(QaoaSimulatorTest, MixerLayerKernelsBitIdentical) {
  Rng make_rng(421);
  const IsingModel ising = RandomIsing(16, 0.3, make_rng);
  QaoaParameters params{{0.37}, {0.52}};

  auto fused = QaoaSimulator::Create(ising);
  ASSERT_TRUE(fused.ok());
  // Identical starting states (layer parity is covered above).
  fused->Run(params);
  const auto loaded = fused->amplitudes();
  std::vector<std::complex<float>> reference(loaded.begin(), loaded.end());
  ApplyQaoaMixerReference(0.23, reference);
  for (int parallelism : {0, 1, 4, 8}) {
    std::optional<ThreadPool> pool;
    if (parallelism > 0) pool.emplace(parallelism);
    fused->set_pool(pool ? &*pool : nullptr);
    fused->Run(params);
    fused->ApplyMixerLayer(0.23);
    for (size_t i = 0; i < fused->amplitudes().size(); ++i) {
      ASSERT_EQ(fused->amplitudes()[i], reference[i])
          << "parallelism " << parallelism << " amp " << i;
    }
  }
  fused->set_pool(nullptr);
}

TEST(QaoaSimulatorTest, EvaluateBatchMatchesRun) {
  Rng make_rng(97);
  const IsingModel ising = RandomIsing(12, 0.4, make_rng);
  auto sim = QaoaSimulator::Create(ising);
  ASSERT_TRUE(sim.ok());

  // Gamma-major grid, the phase-table-friendly order.
  std::vector<QaoaParameters> batch;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      QaoaParameters params;
      params.gammas = {0.2 + 0.15 * i, 0.45};
      params.betas = {0.7 - 0.1 * j, 0.3};
      batch.push_back(std::move(params));
    }
  }
  const std::vector<float> spectrum = sim->cost_spectrum();
  std::vector<std::complex<float>> scratch;
  const std::vector<double> energies = sim->EvaluateBatch(batch);
  ASSERT_EQ(energies.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(energies[i], sim->Run(batch[i])) << "entry " << i;
    EXPECT_EQ(energies[i], RunQaoaReference(spectrum, batch[i], scratch))
        << "entry " << i;
  }
}

TEST(QaoaSimulatorTest, EvaluateBatchDeterministicAcrossParallelism) {
  Rng make_rng(131);
  const IsingModel ising = RandomIsing(14, 0.35, make_rng);
  std::vector<QaoaParameters> batch;
  for (int i = 0; i < 10; ++i) {
    QaoaParameters params;
    params.gammas = {0.1 + 0.08 * i};
    params.betas = {0.9 - 0.06 * i};
    batch.push_back(std::move(params));
  }

  auto serial = QaoaSimulator::Create(ising);
  ASSERT_TRUE(serial.ok());
  const std::vector<double> baseline = serial->EvaluateBatch(batch);
  ASSERT_EQ(baseline.size(), batch.size());

  for (int parallelism : {2, 8}) {
    ThreadPool pool(parallelism);
    auto sim = QaoaSimulator::Create(ising);
    ASSERT_TRUE(sim.ok());
    sim->set_pool(&pool);
    // Twice on the same simulator: the second call reuses the scratch
    // statevectors and must still reproduce the serial bits.
    for (int round = 0; round < 2; ++round) {
      const std::vector<double> energies = sim->EvaluateBatch(batch);
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(energies[i], baseline[i])
            << "parallelism " << parallelism << " round " << round
            << " entry " << i;
      }
    }
  }
}

TEST(QaoaSimulatorTest, EvaluateBatchLeavesLoadedStateUntouched) {
  Rng make_rng(61);
  const IsingModel ising = RandomIsing(10, 0.5, make_rng);
  auto sim = QaoaSimulator::Create(ising);
  ASSERT_TRUE(sim.ok());
  QaoaParameters params{{0.4}, {0.6}};
  sim->Run(params);
  const auto loaded = sim->amplitudes();
  const std::vector<std::complex<float>> before(loaded.begin(), loaded.end());

  std::vector<QaoaParameters> batch(3, QaoaParameters{{0.9}, {0.1}});
  sim->EvaluateBatch(batch);
  const auto after = sim->amplitudes();
  EXPECT_EQ(before,
            std::vector<std::complex<float>>(after.begin(), after.end()));
}

TEST(QaoaSimulatorTest, RunOverwritesEveryAmplitude) {
  // The first layer writes the state instead of scaling a uniform one,
  // so a buffer left holding NaNs by an earlier evaluation must not show
  // through. 18 qubits (2 MiB) is large enough for the pooled sweeps.
  Rng make_rng(733);
  const IsingModel ising = RandomIsing(18, 0.2, make_rng);
  const QaoaParameters poison{{std::numeric_limits<double>::quiet_NaN()},
                              {0.4}};
  std::vector<QaoaParameters> valid;
  valid.push_back(QaoaParameters{{0.33}, {0.61}});
  valid.push_back(QaoaParameters{{0.29, 0.47, 0.12}, {0.72, 0.38, 0.55}});

  auto reference_sim = QaoaSimulator::Create(ising);
  ASSERT_TRUE(reference_sim.ok());
  const std::vector<float> spectrum = reference_sim->cost_spectrum();
  std::vector<std::vector<std::complex<float>>> reference(valid.size());
  std::vector<double> reference_energy(valid.size());
  for (size_t k = 0; k < valid.size(); ++k) {
    reference_energy[k] = RunQaoaReference(spectrum, valid[k], reference[k]);
  }

  for (int parallelism : {0, 2, 4}) {
    std::optional<ThreadPool> pool;
    if (parallelism > 0) pool.emplace(parallelism);
    for (size_t k = 0; k < valid.size(); ++k) {
      auto fresh = QaoaSimulator::Create(ising);
      auto reused = QaoaSimulator::Create(ising);
      ASSERT_TRUE(fresh.ok() && reused.ok());
      fresh->set_pool(pool ? &*pool : nullptr);
      reused->set_pool(pool ? &*pool : nullptr);
      EXPECT_TRUE(std::isnan(reused->Run(poison)));
      const double energy = reused->Run(valid[k]);
      EXPECT_EQ(energy, fresh->Run(valid[k]))
          << "parallelism " << parallelism << " p " << valid[k].p();
      EXPECT_EQ(energy, reference_energy[k])
          << "parallelism " << parallelism << " p " << valid[k].p();
      const auto amps = reused->amplitudes();
      const auto fresh_amps = fresh->amplitudes();
      ASSERT_EQ(amps.size(), reference[k].size());
      for (size_t i = 0; i < amps.size(); ++i) {
        ASSERT_EQ(amps[i], fresh_amps[i])
            << "parallelism " << parallelism << " p " << valid[k].p()
            << " amp " << i;
        ASSERT_EQ(amps[i], reference[k][i])
            << "parallelism " << parallelism << " p " << valid[k].p()
            << " amp " << i;
      }
    }

    // EvaluateBatch on scratch that a poisoned batch of the same size
    // left behind.
    auto fresh = QaoaSimulator::Create(ising);
    auto reused = QaoaSimulator::Create(ising);
    ASSERT_TRUE(fresh.ok() && reused.ok());
    fresh->set_pool(pool ? &*pool : nullptr);
    reused->set_pool(pool ? &*pool : nullptr);
    const std::vector<QaoaParameters> poisoned(valid.size(), poison);
    for (double e : reused->EvaluateBatch(poisoned)) {
      EXPECT_TRUE(std::isnan(e));
    }
    const std::vector<double> energies = reused->EvaluateBatch(valid);
    const std::vector<double> fresh_energies = fresh->EvaluateBatch(valid);
    ASSERT_EQ(energies.size(), valid.size());
    for (size_t k = 0; k < valid.size(); ++k) {
      EXPECT_EQ(energies[k], fresh_energies[k])
          << "parallelism " << parallelism << " p " << valid[k].p();
      EXPECT_EQ(energies[k], reference_energy[k])
          << "parallelism " << parallelism << " p " << valid[k].p();
    }
  }
}

TEST(QaoaSimulatorTest, MinCostArgminMatchesLinearScan) {
  // The O(1) argmin is maintained by the Gray-code spectrum walk, which
  // does not visit basis states in ascending order; the tie-break must
  // still pick the smallest index, as the linear scan it replaced did.
  for (uint64_t seed : {15u, 44u, 91u}) {
    Rng rng(seed);
    const IsingModel ising = RandomIsing(9, 0.5, rng);
    auto sim = QaoaSimulator::Create(ising);
    ASSERT_TRUE(sim.ok());
    const std::vector<float>& spectrum = sim->cost_spectrum();
    uint64_t expected = 0;
    for (uint64_t x = 1; x < spectrum.size(); ++x) {
      if (spectrum[x] < spectrum[expected]) expected = x;
    }
    uint64_t argmin = ~uint64_t{0};
    EXPECT_EQ(sim->MinCost(&argmin),
              static_cast<double>(spectrum[expected]));
    EXPECT_EQ(argmin, expected);
  }
}

TEST(QaoaSimulatorTest, MinCostBreaksTiesTowardsSmallestBasisState) {
  // Field-free, coupling-free model: every basis state has the same
  // cost, so the argmin must be 0 by the ascending tie-break.
  IsingModel ising;
  ising.h.assign(6, 0.0);
  ising.offset = -2.5;
  auto sim = QaoaSimulator::Create(ising);
  ASSERT_TRUE(sim.ok());
  uint64_t argmin = ~uint64_t{0};
  EXPECT_EQ(sim->MinCost(&argmin), -2.5);
  EXPECT_EQ(argmin, 0u);
}

// --- Level palette: one test per level-id width. ---

// Checks every contract the palette encoding must keep on `ising`:
// cost_spectrum() matches IsingModel::Energy state by state, the palette
// holds each distinct float bit pattern exactly once, MinCost/argmin
// equal a linear scan with the smallest-index tie-break, and the fused
// amplitudes equal the gate-at-a-time oracle's. Reports the palette size.
void ExpectPaletteContracts(const IsingModel& ising, size_t* num_levels) {
  const int n = ising.num_spins();
  auto fused = QaoaSimulator::Create(ising);
  ASSERT_TRUE(fused.ok());

  const std::vector<float> spectrum = fused->cost_spectrum();
  ASSERT_EQ(spectrum.size(), uint64_t{1} << n);
  std::set<uint32_t> distinct;
  uint64_t expected_argmin = 0;
  int energy_mismatches = 0;
  std::vector<int> spins(n);
  for (uint64_t x = 0; x < spectrum.size(); ++x) {
    for (int i = 0; i < n; ++i) spins[i] = (x >> i) & 1 ? -1 : 1;
    const double energy = ising.Energy(spins);
    const double tolerance = 1e-4 * std::max(1.0, std::abs(energy));
    if (std::abs(spectrum[x] - energy) > tolerance) ++energy_mismatches;
    distinct.insert(std::bit_cast<uint32_t>(spectrum[x]));
    if (spectrum[x] < spectrum[expected_argmin]) expected_argmin = x;
  }
  EXPECT_EQ(energy_mismatches, 0);
  *num_levels = fused->num_levels();
  EXPECT_EQ(*num_levels, distinct.size());
  uint64_t argmin = ~uint64_t{0};
  EXPECT_EQ(fused->MinCost(&argmin),
            static_cast<double>(spectrum[expected_argmin]));
  EXPECT_EQ(argmin, expected_argmin);

  QaoaParameters params{{0.41, 0.17}, {0.63, 0.29}};
  std::vector<std::complex<float>> ar;
  EXPECT_EQ(fused->Run(params), RunQaoaReference(spectrum, params, ar));
  const auto& af = fused->amplitudes();
  ASSERT_EQ(af.size(), ar.size());
  for (size_t i = 0; i < af.size(); ++i) {
    ASSERT_EQ(af[i], ar[i]) << "amp " << i;
  }
}

TEST(QaoaSimulatorTest, PaletteWithUint8Ids) {
  // Integer h and J in {-1, 0, 1}: energies are integers in [-55, 55],
  // so the palette stays within 256 levels.
  Rng rng(5);
  const int n = 10;
  IsingModel ising;
  ising.h.assign(n, 0.0);
  for (int i = 0; i < n; ++i) {
    ising.h[i] = static_cast<double>(rng.UniformInt(3)) - 1.0;
    for (int j = i + 1; j < n; ++j) {
      const double w = static_cast<double>(rng.UniformInt(3)) - 1.0;
      if (w != 0.0) ising.couplings.emplace_back(i, j, w);
    }
  }
  size_t levels = 0;
  ExpectPaletteContracts(ising, &levels);
  EXPECT_GT(levels, 1u);
  EXPECT_LE(levels, 256u);
}

TEST(QaoaSimulatorTest, PaletteWidensToUint16Ids) {
  Rng rng(23);
  const IsingModel ising = RandomIsing(11, 0.5, rng);
  size_t levels = 0;
  ExpectPaletteContracts(ising, &levels);
  EXPECT_GT(levels, 256u);
  EXPECT_LE(levels, 65536u);
}

TEST(QaoaSimulatorTest, PaletteWidensToUint32Ids) {
  Rng rng(29);
  const IsingModel ising = RandomIsing(17, 0.4, rng);
  size_t levels = 0;
  ExpectPaletteContracts(ising, &levels);
  EXPECT_GT(levels, 65536u);
}

TEST(QaoaSimulatorTest, JoChainEncodingHasFewLevels) {
  // The served QAOA encoding: a 3-relation chain at omega 3 with one
  // threshold. Its energy is a few penalty levels plus the objective, so
  // its 2^n states share a handful of float levels — the assumption the
  // palette phase tables rest on.
  JoEncodingOptions options;
  options.num_thresholds = 1;
  options.omega = 3.0;
  QueryGenOptions query_options;
  query_options.num_relations = 3;
  query_options.graph_type = QueryGraphType::kChain;
  Rng rng(7);
  std::shared_ptr<const JoQuboEncoding> encoding;
  do {
    auto query = GenerateQuery(query_options, rng);
    ASSERT_TRUE(query.ok());
    auto built = BuildJoQuboEncoding(*query, options);
    ASSERT_TRUE(built.ok());
    encoding = *built;
  } while (encoding->bilp.num_variables() > 23);
  auto sim = QaoaSimulator::Create(QuboToIsing(encoding->encoding.qubo));
  ASSERT_TRUE(sim.ok());
  EXPECT_GE(sim->num_qubits(), 20);
  EXPECT_LT(sim->num_levels(), 64u);
}

// --- Cooperative cancellation (the portfolio stop token). ---

TEST(SqaTest, StopTokenCancelsLongRun) {
  Rng make_rng(157);
  const IsingModel ising = RandomIsing(48, 0.5, make_rng);
  SqaOptions options;
  options.num_reads = 2;
  options.annealing_time_us = 1e7;  // ~1e7 sweeps: hours if uncancelled
  std::stop_source stop;
  RunContext run;
  run.stop = stop.get_token();
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.request_stop();
  });
  Rng rng(53);
  const auto samples = RunSqa(ising, options, run, rng);
  canceller.join();
  ASSERT_TRUE(samples.ok());
  // Cancelled reads still report their best Trotter slice with a
  // consistent energy.
  ASSERT_EQ(samples->size(), 2u);
  for (const auto& sample : *samples) {
    ASSERT_EQ(sample.spins.size(), 48u);
    EXPECT_DOUBLE_EQ(sample.energy, ising.Energy(sample.spins));
  }
}

TEST(SqaTest, UnsetStopTokenMatchesNoToken) {
  Rng make_rng(163);
  const IsingModel ising = RandomIsing(20, 0.5, make_rng);
  SqaOptions options;
  options.num_reads = 4;
  options.annealing_time_us = 20.0;
  Rng rng_plain(59);
  const auto plain = RunSqa(ising, options, {}, rng_plain);
  ASSERT_TRUE(plain.ok());
  std::stop_source stop;
  RunContext run;
  run.stop = stop.get_token();
  Rng rng_token(59);
  const auto with_token = RunSqa(ising, options, run, rng_token);
  ASSERT_TRUE(with_token.ok());
  ASSERT_EQ(plain->size(), with_token->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*plain)[i].energy, (*with_token)[i].energy);
    EXPECT_EQ((*plain)[i].spins, (*with_token)[i].spins);
  }
}

}  // namespace
}  // namespace qjo
