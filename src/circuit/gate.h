#ifndef QJO_CIRCUIT_GATE_H_
#define QJO_CIRCUIT_GATE_H_

#include <string>
#include <vector>

namespace qjo {

/// Gate vocabulary covering the QAOA circuits we build plus the native
/// gate sets of the modelled vendors (IBM: RZ/SX/X/CX; Rigetti: RX/RZ/CZ;
/// IonQ: single-qubit rotations + MS).
enum class GateType {
  // Single-qubit.
  kH,
  kX,
  kSx,       ///< sqrt(X)
  kRx,       ///< exp(-i theta X / 2)
  kRy,       ///< exp(-i theta Y / 2)
  kRz,       ///< exp(-i theta Z / 2)
  // Two-qubit.
  kCx,
  kCz,
  kSwap,
  kRzz,      ///< exp(-i theta Z(x)Z / 2)
  kMs,       ///< Moelmer-Soerensen XX(theta) = exp(-i theta X(x)X / 2)
};

/// Name of a gate type, e.g. "rzz".
const char* GateTypeName(GateType type);

/// True for two-qubit gate types.
bool IsTwoQubitGate(GateType type);

/// True for parameterised (rotation) gates.
bool IsParameterised(GateType type);

/// One gate application. Two-qubit gates use qubits[0] (control / first)
/// and qubits[1] (target / second).
struct Gate {
  GateType type = GateType::kH;
  std::vector<int> qubits;
  double parameter = 0.0;

  static Gate Single(GateType type, int qubit, double parameter = 0.0) {
    return Gate{type, {qubit}, parameter};
  }
  static Gate Two(GateType type, int a, int b, double parameter = 0.0) {
    return Gate{type, {a, b}, parameter};
  }

  std::string ToString() const;
};

/// Aborts unless `gate` is well formed on `num_qubits` qubits: one operand
/// for a single-qubit type and two for a two-qubit type, each in
/// [0, num_qubits), and the two operands distinct.
void CheckGate(const Gate& gate, int num_qubits);

}  // namespace qjo

#endif  // QJO_CIRCUIT_GATE_H_
