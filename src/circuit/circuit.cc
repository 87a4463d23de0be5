#include "circuit/circuit.h"

#include <algorithm>
#include <sstream>

namespace qjo {

void QuantumCircuit::Append(Gate gate) {
  CheckGate(gate, num_qubits_);
  gates_.push_back(std::move(gate));
}

int QuantumCircuit::Depth() const {
  std::vector<int> level(num_qubits_, 0);
  int depth = 0;
  for (const Gate& g : gates_) {
    int d = 0;
    for (int q : g.qubits) d = std::max(d, level[q]);
    ++d;
    for (int q : g.qubits) level[q] = d;
    depth = std::max(depth, d);
  }
  return depth;
}

int QuantumCircuit::TwoQubitDepth() const {
  std::vector<int> level(num_qubits_, 0);
  int depth = 0;
  for (const Gate& g : gates_) {
    if (!IsTwoQubitGate(g.type)) continue;
    const int d = std::max(level[g.qubits[0]], level[g.qubits[1]]) + 1;
    level[g.qubits[0]] = d;
    level[g.qubits[1]] = d;
    depth = std::max(depth, d);
  }
  return depth;
}

int QuantumCircuit::CountGates(GateType type) const {
  int count = 0;
  for (const Gate& g : gates_) {
    if (g.type == type) ++count;
  }
  return count;
}

int QuantumCircuit::CountTwoQubitGates() const {
  int count = 0;
  for (const Gate& g : gates_) {
    if (IsTwoQubitGate(g.type)) ++count;
  }
  return count;
}

std::string QuantumCircuit::ToString() const {
  std::ostringstream os;
  os << "circuit(" << num_qubits_ << " qubits, " << gates_.size()
     << " gates, depth " << Depth() << ")\n";
  for (const Gate& g : gates_) os << "  " << g.ToString() << "\n";
  return os.str();
}

}  // namespace qjo
