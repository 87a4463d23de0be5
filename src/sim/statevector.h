#ifndef QJO_SIM_STATEVECTOR_H_
#define QJO_SIM_STATEVECTOR_H_

#include <complex>
#include <vector>

#include "circuit/circuit.h"
#include "util/random.h"
#include "util/statusor.h"

namespace qjo {

/// Dense state-vector simulator: the serial, gate-by-gate test oracle for
/// QaoaSimulator, the transpiler's equivalence checks and the trajectory
/// sampler. Only tests link it (library qjo_sim_reference); the served
/// QAOA path runs on QaoaSimulator.
class StateVector {
 public:
  /// Initialises |0...0> over `num_qubits` qubits (<= 28).
  static StatusOr<StateVector> Create(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  const std::vector<std::complex<double>>& amplitudes() const {
    return amplitudes_;
  }

  /// Applies one gate in place; aborts on a gate that
  /// QuantumCircuit::Append would reject (see CheckGate).
  void Apply(const Gate& gate);

  /// Applies all gates of a circuit in order (sizes must match).
  void ApplyCircuit(const QuantumCircuit& circuit);

  /// Probability of measuring basis state `basis`.
  double Probability(uint64_t basis) const;

  /// All basis-state probabilities.
  std::vector<double> Probabilities() const;

  /// Samples `shots` basis states from the current distribution.
  std::vector<uint64_t> Sample(int shots, Rng& rng) const;

  /// <state|Z_q|state>.
  double ExpectationZ(int qubit) const;

  /// <state|Z_a Z_b|state>.
  double ExpectationZZ(int a, int b) const;

  /// Fidelity |<this|other>|^2 (sizes must match).
  double Overlap(const StateVector& other) const;

  /// L2-normalises (guards against accumulated rounding).
  void Normalize();

 private:
  explicit StateVector(int num_qubits);

  void ApplySingleQubitMatrix(int qubit, const std::complex<double> m[2][2]);
  void ApplyCx(int control, int target);
  void ApplyCz(int a, int b);
  void ApplySwap(int a, int b);
  void ApplyRzz(int a, int b, double theta);
  void ApplyMs(int a, int b, double theta);

  int num_qubits_;
  std::vector<std::complex<double>> amplitudes_;
};

/// Unitary of a small circuit (n <= 10) as a dense column-major matrix of
/// size 2^n x 2^n: column b is the state the circuit maps |b> to. Used by
/// the decomposition-equivalence tests.
StatusOr<std::vector<std::vector<std::complex<double>>>> CircuitUnitary(
    const QuantumCircuit& circuit);

/// True if two unitaries are equal up to a global phase within `tolerance`.
bool UnitariesEqualUpToPhase(
    const std::vector<std::vector<std::complex<double>>>& a,
    const std::vector<std::vector<std::complex<double>>>& b,
    double tolerance = 1e-9);

}  // namespace qjo

#endif  // QJO_SIM_STATEVECTOR_H_
