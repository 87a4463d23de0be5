#ifndef QJO_TRANSPILER_ROUTING_H_
#define QJO_TRANSPILER_ROUTING_H_

#include <vector>

#include "circuit/circuit.h"
#include "topology/coupling_graph.h"
#include "util/random.h"
#include "util/statusor.h"

namespace qjo {

/// SWAP-insertion strategies. `kLookahead` is a SABRE-flavoured heuristic
/// (cost of the front layer plus a discounted extended window) standing in
/// for the Qiskit transpiler; `kBasic` greedily walks each non-adjacent
/// gate's operands together along a shortest path, a simpler router whose
/// ~2x depth overhead matches what the paper observed for tket.
enum class RoutingStrategy { kLookahead, kBasic };

/// Result of routing a logical circuit onto a device.
struct RoutingResult {
  /// Physical circuit over device qubits; every two-qubit gate acts on a
  /// coupled pair. Inserted SWAPs are explicit kSwap gates.
  QuantumCircuit circuit;
  /// initial_layout[logical] = physical qubit before the first gate.
  std::vector<int> initial_layout;
  /// final_layout[logical] = physical qubit after the last gate.
  std::vector<int> final_layout;
  int num_swaps = 0;
};

/// Chooses an initial layout: a dense connected region of the device,
/// with interaction-heavy logical qubits placed near each other.
StatusOr<std::vector<int>> ChooseInitialLayout(const QuantumCircuit& logical,
                                               const CouplingGraph& device,
                                               Rng& rng);

/// Routes `logical` onto `device` starting from `initial_layout`,
/// inserting SWAPs per the chosen strategy. Fails if the device has fewer
/// qubits than the circuit or the layout is invalid.
StatusOr<RoutingResult> RouteCircuit(const QuantumCircuit& logical,
                                     const CouplingGraph& device,
                                     const std::vector<int>& initial_layout,
                                     RoutingStrategy strategy, Rng& rng);

/// True if every two-qubit gate of `circuit` acts on an edge of `device`.
bool IsProperlyRouted(const QuantumCircuit& circuit,
                      const CouplingGraph& device);

}  // namespace qjo

#endif  // QJO_TRANSPILER_ROUTING_H_
