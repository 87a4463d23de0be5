#ifndef QJO_SIM_NOISY_SAMPLER_H_
#define QJO_SIM_NOISY_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "sim/device.h"
#include "util/random.h"
#include "util/statusor.h"

namespace qjo {

/// Stochastic (quantum-trajectory) noise model: after every gate a random
/// Pauli hits the operand qubits with the per-gate error probability, and
/// between circuit layers every qubit dephases/relaxes according to
/// T2/T1. Measurement suffers independent readout bit flips. This is the
/// high-fidelity counterpart of the global depolarising channel used for
/// the large Table 2 instances; the two are cross-validated in the test
/// suite and the ablation bench.
struct NoiseModel {
  double one_qubit_pauli = 3e-4;
  double two_qubit_pauli = 1e-2;
  double readout_flip = 1.5e-2;
  double t1_us = 150.0;
  double t2_us = 140.0;
  double layer_time_ns = 470.0;  ///< wall time per circuit layer

  /// Derives error rates and relaxation times from a device sheet.
  static NoiseModel FromDevice(const DeviceProperties& device);

  /// Per-layer dephasing probability (phase-flip approximation of T2).
  double DephasingProbability() const;
  /// Per-layer relaxation probability (bit-flip approximation of T1).
  double RelaxationProbability() const;
};

/// Largest circuit SampleWithTrajectories accepts.
inline constexpr int kMaxTrajectoryQubits = 16;

/// Samples `shots` measurement outcomes of `circuit` under `noise`, one
/// stochastic trajectory per shot. Exact but expensive: each shot is a
/// full StateVector run of the base gates with the drawn Pauli errors
/// spliced in, so circuits above kMaxTrajectoryQubits are rejected. A
/// test oracle for the depolarising model; only tests link it.
StatusOr<std::vector<uint64_t>> SampleWithTrajectories(
    const QuantumCircuit& circuit, const NoiseModel& noise, int shots,
    Rng& rng);

/// Applies independent readout bit flips to a sampled basis state.
uint64_t ApplyReadoutError(uint64_t basis, int num_qubits, double flip_prob,
                           Rng& rng);

}  // namespace qjo

#endif  // QJO_SIM_NOISY_SAMPLER_H_
