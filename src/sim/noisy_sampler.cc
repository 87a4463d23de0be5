#include "sim/noisy_sampler.h"

#include <cmath>

#include "sim/statevector.h"
#include "util/check.h"

namespace qjo {
namespace {

/// Appends a uniformly random non-identity Pauli on `qubit` to the
/// trajectory circuit.
void AppendRandomPauli(QuantumCircuit& trajectory, int qubit, Rng& rng) {
  switch (rng.UniformInt(3)) {
    case 0:
      trajectory.X(qubit);
      break;
    case 1:
      // Y = i X Z: global phase is irrelevant for sampling.
      trajectory.Rz(qubit, 3.14159265358979323846);
      trajectory.X(qubit);
      break;
    default:
      trajectory.Rz(qubit, 3.14159265358979323846);
      break;
  }
}

/// Builds one stochastic trajectory: the base circuit with the drawn
/// gate-error Paulis and idle-decoherence flips spliced in after each
/// gate.
QuantumCircuit BuildTrajectory(const QuantumCircuit& circuit,
                               const NoiseModel& noise, double pz, double px,
                               Rng& rng) {
  QuantumCircuit trajectory(circuit.num_qubits());
  // Track layer boundaries the same way Depth() does; when a qubit's
  // layer advances, it idles for one layer -> decoherence channel.
  std::vector<int> level(circuit.num_qubits(), 0);
  for (const Gate& gate : circuit.gates()) {
    trajectory.Append(gate);
    // Gate error.
    const double error_rate = gate.qubits.size() == 2 ? noise.two_qubit_pauli
                                                      : noise.one_qubit_pauli;
    for (int q : gate.qubits) {
      if (rng.Bernoulli(error_rate)) AppendRandomPauli(trajectory, q, rng);
    }
    // Idle decoherence for the layer each operand just spent.
    int layer = 0;
    for (int q : gate.qubits) layer = std::max(layer, level[q]);
    ++layer;
    for (int q : gate.qubits) {
      level[q] = layer;
      if (pz > 0.0 && rng.Bernoulli(pz)) {
        trajectory.Rz(q, 3.14159265358979323846);
      }
      if (px > 0.0 && rng.Bernoulli(px)) {
        trajectory.X(q);
      }
    }
  }
  return trajectory;
}

}  // namespace

NoiseModel NoiseModel::FromDevice(const DeviceProperties& device) {
  NoiseModel noise;
  noise.one_qubit_pauli = device.one_qubit_error;
  noise.two_qubit_pauli = device.two_qubit_error;
  noise.t1_us = device.t1_us;
  noise.t2_us = device.t2_us;
  noise.layer_time_ns = device.avg_gate_time_ns;
  return noise;
}

double NoiseModel::DephasingProbability() const {
  const double dt_us = layer_time_ns / 1000.0;
  return 0.5 * (1.0 - std::exp(-dt_us / t2_us));
}

double NoiseModel::RelaxationProbability() const {
  const double dt_us = layer_time_ns / 1000.0;
  return 0.25 * (1.0 - std::exp(-dt_us / t1_us));
}

uint64_t ApplyReadoutError(uint64_t basis, int num_qubits, double flip_prob,
                           Rng& rng) {
  if (flip_prob <= 0.0) return basis;
  for (int q = 0; q < num_qubits; ++q) {
    if (rng.Bernoulli(flip_prob)) basis ^= uint64_t{1} << q;
  }
  return basis;
}

StatusOr<std::vector<uint64_t>> SampleWithTrajectories(
    const QuantumCircuit& circuit, const NoiseModel& noise, int shots,
    Rng& rng) {
  if (circuit.num_qubits() > kMaxTrajectoryQubits) {
    return Status::ResourceExhausted(
        "trajectory sampling is capped; use the global depolarising model "
        "for larger circuits");
  }
  if (shots <= 0) return Status::InvalidArgument("shots must be positive");

  const double pz = noise.DephasingProbability();
  const double px = noise.RelaxationProbability();

  std::vector<uint64_t> samples;
  samples.reserve(shots);
  for (int shot = 0; shot < shots; ++shot) {
    QJO_ASSIGN_OR_RETURN(StateVector state,
                         StateVector::Create(circuit.num_qubits()));
    const QuantumCircuit trajectory =
        BuildTrajectory(circuit, noise, pz, px, rng);
    state.ApplyCircuit(trajectory);
    const std::vector<uint64_t> outcome = state.Sample(1, rng);
    samples.push_back(ApplyReadoutError(outcome[0], circuit.num_qubits(),
                                        noise.readout_flip, rng));
  }
  return samples;
}

}  // namespace qjo
