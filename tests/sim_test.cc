#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
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
#include "sim/qaoa_simulator.h"
#include "sim/sqa.h"
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
  auto samples = RunSqa(ising, options, rng);
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
  auto samples = RunSqa(ising, options, rng);
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
  auto clean_samples = RunSqa(ising, clean, rng_clean);
  auto noisy_samples = RunSqa(ising, noisy, rng_noisy);
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
    options.control.pool = &pool;
    Rng rng(61);
    auto samples = RunSqa(ising, options, rng);
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
  EXPECT_FALSE(RunSqa(empty, options, rng).ok());
  IsingModel one;
  one.h = {1.0};
  options.num_reads = 0;
  EXPECT_FALSE(RunSqa(one, options, rng).ok());
  options.num_reads = 1;
  options.trotter_slices = 1;
  EXPECT_FALSE(RunSqa(one, options, rng).ok());
}

/// Random Ising model whose coefficients are multiples of 1/64: all field
/// sums are exact, so the incremental per-slice local fields must equal
/// the reference O(degree) scans bit for bit (see the dyadic QUBO kernel
/// tests for the same argument).
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

TEST(SqaTest, KernelsBitIdenticalOnDyadicProblems) {
  Rng make_rng(67);
  const IsingModel ising = DyadicRandomIsing(20, 0.4, make_rng);
  SqaOptions options;
  options.num_reads = 6;
  options.annealing_time_us = 10.0;
  options.sweeps_per_us = 4.0;
  options.trotter_slices = 8;
  options.ice_sigma = 0.0;  // noise would perturb the dyadic coefficients
  for (int parallelism : {1, 4}) {
    ThreadPool pool(parallelism);
    options.control.pool = &pool;
    options.kernel = SolverKernel::kIncremental;
    Rng rng_inc(71);
    auto incremental = RunSqa(ising, options, rng_inc);
    options.kernel = SolverKernel::kReference;
    Rng rng_ref(71);
    auto reference = RunSqa(ising, options, rng_ref);
    ASSERT_TRUE(incremental.ok());
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(incremental->size(), reference->size());
    for (size_t i = 0; i < incremental->size(); ++i) {
      EXPECT_EQ((*incremental)[i].energy, (*reference)[i].energy)
          << "parallelism " << parallelism << " read " << i;
      EXPECT_EQ((*incremental)[i].spins, (*reference)[i].spins);
    }
  }
}

TEST(SqaTest, BatchedKernelsBitIdenticalToScalarReads) {
  // The batched SoA kernel mirrors the incremental kernel's per-replica
  // operand order exactly (exact +-2 * J products, same per-lane draw
  // sequence including the ICE Gaussians), so bit-identity holds on
  // continuous coefficients *with* noise, for full groups, partial tail
  // lanes, and a single lane, at every parallelism.
  Rng make_rng(67);
  const IsingModel ising = RandomIsing(15, 0.4, make_rng);
  SqaOptions options;
  options.annealing_time_us = 4.0;
  options.sweeps_per_us = 4.0;
  options.trotter_slices = 5;
  options.ice_sigma = 0.02;
  for (int num_reads : {1, 4, 17}) {
    options.num_reads = num_reads;
    for (int parallelism : {1, 4, 8}) {
      ThreadPool pool(parallelism);
      options.control.pool = &pool;
      options.kernel = SolverKernel::kIncremental;
      Rng rng_inc(71);
      auto scalar = RunSqa(ising, options, rng_inc);
      options.kernel = SolverKernel::kBatched;
      Rng rng_bat(71);
      auto batched = RunSqa(ising, options, rng_bat);
      ASSERT_TRUE(scalar.ok());
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

TEST(StateVectorTest, DeterministicAcrossParallelism) {
  // 15 qubits = 32768 amplitudes = two blocks: the blocked kernels and
  // reductions must produce the same bits with and without a pool.
  const int n = 15;
  QuantumCircuit circuit(n);
  for (int q = 0; q < n; ++q) circuit.H(q);
  for (int q = 0; q + 1 < n; ++q) circuit.Rzz(q, q + 1, 0.3 + 0.01 * q);
  for (int q = 0; q < n; ++q) circuit.Rx(q, 0.7 - 0.02 * q);
  circuit.Cx(0, n - 1);
  circuit.Swap(2, 9);
  circuit.Ms(3, 11, 0.4);

  StateVector serial = *StateVector::Create(n);
  serial.ApplyCircuit(circuit);

  ThreadPool pool(4);
  StateVector parallel = *StateVector::Create(n);
  parallel.set_pool(&pool);
  parallel.ApplyCircuit(circuit);

  ASSERT_EQ(serial.amplitudes().size(), parallel.amplitudes().size());
  for (size_t i = 0; i < serial.amplitudes().size(); ++i) {
    ASSERT_EQ(serial.amplitudes()[i], parallel.amplitudes()[i]) << "amp " << i;
  }
  EXPECT_EQ(serial.ExpectationZ(4), parallel.ExpectationZ(4));
  EXPECT_EQ(serial.ExpectationZZ(1, 13), parallel.ExpectationZZ(1, 13));
  EXPECT_EQ(serial.Probabilities(), parallel.Probabilities());
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
      auto reference = QaoaSimulator::Create(ising);
      ASSERT_TRUE(fused.ok());
      ASSERT_TRUE(reference.ok());
      const double ef = fused->Run(params, SimKernel::kFused);
      const double er = reference->Run(params, SimKernel::kReference);
      EXPECT_EQ(ef, er) << "n=" << n << " p=" << p;
      ASSERT_EQ(fused->amplitudes().size(), reference->amplitudes().size());
      for (size_t i = 0; i < fused->amplitudes().size(); ++i) {
        ASSERT_EQ(fused->amplitudes()[i], reference->amplitudes()[i])
            << "n=" << n << " p=" << p << " amp " << i;
      }
    }
  }
}

TEST(QaoaSimulatorTest, MixerLayerKernelsBitIdentical) {
  Rng make_rng(421);
  const IsingModel ising = RandomIsing(16, 0.3, make_rng);
  QaoaParameters params{{0.37}, {0.52}};

  auto fused = QaoaSimulator::Create(ising);
  auto reference = QaoaSimulator::Create(ising);
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(reference.ok());
  // Identical starting states (kernel parity is covered above).
  fused->Run(params, SimKernel::kFused);
  reference->Run(params, SimKernel::kFused);
  fused->ApplyMixerLayer(0.23, SimKernel::kFused);
  reference->ApplyMixerLayer(0.23, SimKernel::kReference);
  for (size_t i = 0; i < fused->amplitudes().size(); ++i) {
    ASSERT_EQ(fused->amplitudes()[i], reference->amplitudes()[i])
        << "amp " << i;
  }
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
  for (SimKernel kernel : {SimKernel::kFused, SimKernel::kReference}) {
    const std::vector<double> energies = sim->EvaluateBatch(batch, kernel);
    ASSERT_EQ(energies.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(energies[i], sim->Run(batch[i], kernel)) << "entry " << i;
    }
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
  const std::vector<std::complex<float>> before = sim->amplitudes();

  std::vector<QaoaParameters> batch(3, QaoaParameters{{0.9}, {0.1}});
  sim->EvaluateBatch(batch);
  EXPECT_EQ(before, sim->amplitudes());
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
// equal a linear scan with the smallest-index tie-break, and fused and
// reference amplitudes compare equal. Reports the palette size.
void ExpectPaletteContracts(const IsingModel& ising, size_t* num_levels) {
  const int n = ising.num_spins();
  auto fused = QaoaSimulator::Create(ising);
  auto reference = QaoaSimulator::Create(ising);
  ASSERT_TRUE(fused.ok());
  ASSERT_TRUE(reference.ok());

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
  EXPECT_EQ(fused->Run(params, SimKernel::kFused),
            reference->Run(params, SimKernel::kReference));
  const auto& af = fused->amplitudes();
  const auto& ar = reference->amplitudes();
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

TEST(StateVectorTest, FusedCircuitKernelsBitIdentical) {
  // Random circuit over every gate type, including single-qubit gates on
  // qubit 14 (outside the fusable block) and interleaved two-qubit
  // gates: the fused pass must reproduce the reference bits exactly.
  const int n = 15;
  Rng rng(777);
  QuantumCircuit circuit(n);
  for (int q = 0; q < n; ++q) circuit.H(q);
  for (int step = 0; step < 60; ++step) {
    const int q = static_cast<int>(rng.UniformInt(n));
    int r = static_cast<int>(rng.UniformInt(n - 1));
    if (r >= q) ++r;
    switch (rng.UniformInt(9)) {
      case 0: circuit.H(q); break;
      case 1: circuit.X(q); break;
      case 2: circuit.Sx(q); break;
      case 3: circuit.Rx(q, rng.UniformDouble(-1.5, 1.5)); break;
      case 4: circuit.Ry(q, rng.UniformDouble(-1.5, 1.5)); break;
      case 5: circuit.Rz(q, rng.UniformDouble(-1.5, 1.5)); break;
      case 6: circuit.Cx(q, r); break;
      case 7: circuit.Rzz(q, r, rng.UniformDouble(-1.5, 1.5)); break;
      default: circuit.Cz(q, r); break;
    }
  }
  circuit.Swap(2, 9);
  circuit.Ms(3, 11, 0.4);

  StateVector fused = *StateVector::Create(n);
  StateVector reference = *StateVector::Create(n);
  fused.ApplyCircuit(circuit, SimKernel::kFused);
  reference.ApplyCircuit(circuit, SimKernel::kReference);
  for (size_t i = 0; i < fused.amplitudes().size(); ++i) {
    ASSERT_EQ(fused.amplitudes()[i], reference.amplitudes()[i]) << "amp " << i;
  }
}

// --- Cooperative cancellation (the portfolio stop token). ---

TEST(SqaTest, StopTokenCancelsLongRun) {
  Rng make_rng(157);
  const IsingModel ising = RandomIsing(48, 0.5, make_rng);
  SqaOptions options;
  options.num_reads = 2;
  options.annealing_time_us = 1e7;  // ~1e7 sweeps: hours if uncancelled
  std::atomic<bool> stop{false};
  options.control.stop = &stop;
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true, std::memory_order_relaxed);
  });
  Rng rng(53);
  const auto samples = RunSqa(ising, options, rng);
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
  const auto plain = RunSqa(ising, options, rng_plain);
  ASSERT_TRUE(plain.ok());
  std::atomic<bool> stop{false};
  options.control.stop = &stop;
  Rng rng_token(59);
  const auto with_token = RunSqa(ising, options, rng_token);
  ASSERT_TRUE(with_token.ok());
  ASSERT_EQ(plain->size(), with_token->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*plain)[i].energy, (*with_token)[i].energy);
    EXPECT_EQ((*plain)[i].spins, (*with_token)[i].spins);
  }
}

}  // namespace
}  // namespace qjo
