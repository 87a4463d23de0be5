#ifndef QJO_CIRCUIT_CIRCUIT_H_
#define QJO_CIRCUIT_CIRCUIT_H_

#include <string>
#include <vector>

#include "circuit/gate.h"
#include "util/status.h"

namespace qjo {

/// An ordered sequence of gates over `num_qubits` qubits. Depth is the
/// length of the longest dependency chain (gates on disjoint qubits
/// parallelise), matching the circuit-depth metric of the paper's Fig. 2
/// and Fig. 5.
class QuantumCircuit {
 public:
  explicit QuantumCircuit(int num_qubits = 0) : num_qubits_(num_qubits) {}

  int num_qubits() const { return num_qubits_; }
  const std::vector<Gate>& gates() const { return gates_; }
  int num_gates() const { return static_cast<int>(gates_.size()); }

  /// Appends a gate; aborts on a malformed one (see CheckGate).
  void Append(Gate gate);

  /// Convenience wrappers.
  void H(int q) { Append(Gate::Single(GateType::kH, q)); }
  void X(int q) { Append(Gate::Single(GateType::kX, q)); }
  void Sx(int q) { Append(Gate::Single(GateType::kSx, q)); }
  void Rx(int q, double theta) {
    Append(Gate::Single(GateType::kRx, q, theta));
  }
  void Ry(int q, double theta) {
    Append(Gate::Single(GateType::kRy, q, theta));
  }
  void Rz(int q, double theta) {
    Append(Gate::Single(GateType::kRz, q, theta));
  }
  void Cx(int control, int target) {
    Append(Gate::Two(GateType::kCx, control, target));
  }
  void Cz(int a, int b) { Append(Gate::Two(GateType::kCz, a, b)); }
  void Swap(int a, int b) { Append(Gate::Two(GateType::kSwap, a, b)); }
  void Rzz(int a, int b, double theta) {
    Append(Gate::Two(GateType::kRzz, a, b, theta));
  }
  void Ms(int a, int b, double theta) {
    Append(Gate::Two(GateType::kMs, a, b, theta));
  }

  /// Longest dependency chain over the qubits.
  int Depth() const;

  /// Depth counting two-qubit gates only (the error-dominating layer count
  /// on superconducting hardware).
  int TwoQubitDepth() const;

  /// Number of gates of the given type.
  int CountGates(GateType type) const;

  /// Number of two-qubit gates of any type.
  int CountTwoQubitGates() const;

  /// Multi-line textual rendering (for examples and debugging).
  std::string ToString() const;

 private:
  int num_qubits_;
  std::vector<Gate> gates_;
};

}  // namespace qjo

#endif  // QJO_CIRCUIT_CIRCUIT_H_
