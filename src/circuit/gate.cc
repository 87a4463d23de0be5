#include "circuit/gate.h"

#include <sstream>

#include "util/check.h"

namespace qjo {

const char* GateTypeName(GateType type) {
  switch (type) {
    case GateType::kH:
      return "h";
    case GateType::kX:
      return "x";
    case GateType::kSx:
      return "sx";
    case GateType::kRx:
      return "rx";
    case GateType::kRy:
      return "ry";
    case GateType::kRz:
      return "rz";
    case GateType::kCx:
      return "cx";
    case GateType::kCz:
      return "cz";
    case GateType::kSwap:
      return "swap";
    case GateType::kRzz:
      return "rzz";
    case GateType::kMs:
      return "ms";
  }
  return "unknown";
}

bool IsTwoQubitGate(GateType type) {
  switch (type) {
    case GateType::kCx:
    case GateType::kCz:
    case GateType::kSwap:
    case GateType::kRzz:
    case GateType::kMs:
      return true;
    default:
      return false;
  }
}

bool IsParameterised(GateType type) {
  switch (type) {
    case GateType::kRx:
    case GateType::kRy:
    case GateType::kRz:
    case GateType::kRzz:
    case GateType::kMs:
      return true;
    default:
      return false;
  }
}

std::string Gate::ToString() const {
  std::ostringstream os;
  os << GateTypeName(type);
  if (IsParameterised(type)) os << "(" << parameter << ")";
  os << " ";
  for (size_t i = 0; i < qubits.size(); ++i) {
    if (i > 0) os << ",";
    os << "q" << qubits[i];
  }
  return os.str();
}

void CheckGate(const Gate& gate, int num_qubits) {
  QJO_CHECK_EQ(gate.qubits.size(), IsTwoQubitGate(gate.type) ? 2u : 1u)
      << GateTypeName(gate.type);
  for (int q : gate.qubits) {
    QJO_CHECK_GE(q, 0) << gate.ToString();
    QJO_CHECK_LT(q, num_qubits) << gate.ToString();
  }
  if (gate.qubits.size() == 2) {
    QJO_CHECK_NE(gate.qubits[0], gate.qubits[1]) << gate.ToString();
  }
}

}  // namespace qjo
