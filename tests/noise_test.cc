#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "circuit/qaoa_builder.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "sim/device.h"
#include "sim/noisy_sampler.h"
#include "sim/qaoa_analytic.h"
#include "sim/qaoa_simulator.h"
#include "sim/statevector.h"
#include "util/random.h"

namespace qjo {
namespace {

NoiseModel Noiseless() {
  NoiseModel noise;
  noise.one_qubit_pauli = 0.0;
  noise.two_qubit_pauli = 0.0;
  noise.readout_flip = 0.0;
  noise.t1_us = 1e12;
  noise.t2_us = 1e12;
  return noise;
}

TEST(NoiseModelTest, FromDeviceCopiesCalibration) {
  const NoiseModel noise = NoiseModel::FromDevice(IbmAucklandProperties());
  EXPECT_DOUBLE_EQ(noise.t1_us, 151.13);
  EXPECT_DOUBLE_EQ(noise.t2_us, 138.72);
  EXPECT_DOUBLE_EQ(noise.one_qubit_pauli, 2.6e-4);
}

TEST(NoiseModelTest, DecoherenceProbabilitiesScaleWithLayerTime) {
  NoiseModel fast = Noiseless();
  fast.t2_us = 100.0;
  fast.t1_us = 100.0;
  fast.layer_time_ns = 100.0;
  NoiseModel slow = fast;
  slow.layer_time_ns = 1000.0;
  EXPECT_GT(slow.DephasingProbability(), fast.DephasingProbability());
  EXPECT_GT(slow.RelaxationProbability(), fast.RelaxationProbability());
  EXPECT_LT(slow.DephasingProbability(), 0.5);
}

TEST(TrajectorySamplerTest, NoiselessMatchesIdealDistribution) {
  QuantumCircuit circuit(3);
  circuit.H(0);
  circuit.Cx(0, 1);
  circuit.Cx(1, 2);  // GHZ
  Rng rng(3);
  auto samples = SampleWithTrajectories(circuit, Noiseless(), 4000, rng);
  ASSERT_TRUE(samples.ok());
  int zeros = 0, ones = 0, other = 0;
  for (uint64_t s : *samples) {
    if (s == 0) {
      ++zeros;
    } else if (s == 7) {
      ++ones;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(other, 0);
  EXPECT_NEAR(static_cast<double>(zeros) / samples->size(), 0.5, 0.03);
  EXPECT_NEAR(static_cast<double>(ones) / samples->size(), 0.5, 0.03);
}

TEST(TrajectorySamplerTest, GateNoiseCorruptsGhz) {
  QuantumCircuit circuit(4);
  circuit.H(0);
  for (int q = 0; q + 1 < 4; ++q) circuit.Cx(q, q + 1);
  NoiseModel noise = Noiseless();
  noise.two_qubit_pauli = 0.2;
  Rng rng(5);
  auto samples = SampleWithTrajectories(circuit, noise, 2000, rng);
  ASSERT_TRUE(samples.ok());
  int ghz = 0;
  for (uint64_t s : *samples) {
    if (s == 0 || s == 15) ++ghz;
  }
  // With heavy noise a noticeable fraction of shots leaves the GHZ pair.
  EXPECT_LT(ghz, 1900);
  EXPECT_GT(ghz, 500);  // ... but not everything
}

TEST(TrajectorySamplerTest, DeeperCircuitsDegradeMore) {
  NoiseModel noise = Noiseless();
  noise.one_qubit_pauli = 0.02;
  auto ghz_rate = [&](int extra_layers) {
    QuantumCircuit circuit(3);
    circuit.H(0);
    circuit.Cx(0, 1);
    circuit.Cx(1, 2);
    for (int i = 0; i < extra_layers; ++i) {
      for (int q = 0; q < 3; ++q) circuit.Rz(q, 0.0);  // idle padding
    }
    Rng rng(7);
    auto samples = SampleWithTrajectories(circuit, noise, 1500, rng);
    EXPECT_TRUE(samples.ok());
    int hits = 0;
    for (uint64_t s : *samples) {
      if (s == 0 || s == 7) ++hits;
    }
    return static_cast<double>(hits) / samples->size();
  };
  EXPECT_GT(ghz_rate(0), ghz_rate(40) + 0.05);
}

TEST(TrajectorySamplerTest, ReadoutErrorFlipsBits) {
  QuantumCircuit circuit(4);  // stays in |0000>
  circuit.Rz(0, 0.0);
  NoiseModel noise = Noiseless();
  noise.readout_flip = 0.25;
  Rng rng(9);
  auto samples = SampleWithTrajectories(circuit, noise, 4000, rng);
  ASSERT_TRUE(samples.ok());
  double flipped_bits = 0;
  for (uint64_t s : *samples) flipped_bits += __builtin_popcountll(s);
  EXPECT_NEAR(flipped_bits / (4.0 * samples->size()), 0.25, 0.03);
}

TEST(TrajectorySamplerTest, RejectsOversizedCircuits) {
  QuantumCircuit circuit(kMaxTrajectoryQubits + 1);
  circuit.H(0);
  Rng rng(11);
  EXPECT_FALSE(SampleWithTrajectories(circuit, Noiseless(), 1, rng).ok());
  QuantumCircuit at_cap(kMaxTrajectoryQubits);
  at_cap.H(0);
  EXPECT_TRUE(SampleWithTrajectories(at_cap, Noiseless(), 1, rng).ok());
  QuantumCircuit small(2);
  small.H(0);
  EXPECT_FALSE(SampleWithTrajectories(small, Noiseless(), 0, rng).ok());
}

TEST(ApplyReadoutErrorTest, ZeroProbabilityIsIdentity) {
  Rng rng(13);
  EXPECT_EQ(ApplyReadoutError(0b1010, 4, 0.0, rng), 0b1010u);
  // Probability one flips every bit.
  EXPECT_EQ(ApplyReadoutError(0b1010, 4, 1.0, rng), 0b0101u);
}

/// Cross-validation: on a QAOA instance small enough for trajectories,
/// the cheap global-depolarising model and the trajectory model agree on
/// the *fraction of low-energy samples* within loose bounds.
TEST(NoiseCrossValidationTest, GlobalDepolarisingTracksTrajectories) {
  Rng rng(17);
  Qubo qubo(8);
  for (int i = 0; i < 8; ++i) {
    qubo.AddLinear(i, rng.UniformDouble(-1, 1));
    for (int j = i + 1; j < 8; ++j) {
      if (rng.Bernoulli(0.35)) {
        qubo.AddQuadratic(i, j, rng.UniformDouble(-1, 1));
      }
    }
  }
  const IsingModel ising = QuboToIsing(qubo);
  Rng opt_rng(29);
  const QaoaAngles angles = OptimizeQaoaAngles(ising, 30, opt_rng);
  QaoaParameters params{{angles.gamma}, {angles.beta}};
  auto circuit = BuildQaoaCircuit(ising, params);
  ASSERT_TRUE(circuit.ok());

  auto sim = QaoaSimulator::Create(ising);
  ASSERT_TRUE(sim.ok());
  sim->Run(params);
  // Energy threshold: lower quartile of the spectrum.
  std::vector<float> spectrum = sim->cost_spectrum();
  std::nth_element(spectrum.begin(), spectrum.begin() + spectrum.size() / 4,
                   spectrum.end());
  const float threshold = spectrum[spectrum.size() / 4];
  auto low_energy_fraction = [&](const std::vector<uint64_t>& samples) {
    int hits = 0;
    for (uint64_t s : samples) {
      if (sim->cost_spectrum()[s] <= threshold) ++hits;
    }
    return static_cast<double>(hits) / samples.size();
  };

  const DeviceProperties device = IbmAucklandProperties();
  const double fidelity = EstimateCircuitFidelity(*circuit, device);
  Rng rng_global(19), rng_traj(23);
  const double global =
      low_energy_fraction(sim->Sample(4000, fidelity, rng_global));
  NoiseModel noise = NoiseModel::FromDevice(device);
  noise.readout_flip = 0.0;
  auto trajectories =
      SampleWithTrajectories(*circuit, noise, 1500, rng_traj);
  ASSERT_TRUE(trajectories.ok());
  const double trajectory = low_energy_fraction(*trajectories);

  // Same ballpark: both clearly above the uniform 25% baseline and within
  // a factor of ~1.5 of each other.
  EXPECT_GT(global, 0.25);
  EXPECT_GT(trajectory, 0.25);
  EXPECT_LT(std::abs(global - trajectory),
            0.5 * std::max(global, trajectory));
}

}  // namespace
}  // namespace qjo
