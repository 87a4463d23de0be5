#include "transpiler/routing.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.h"

namespace qjo {
namespace {

/// Gate-dependency DAG over the logical circuit: gate g depends on the
/// previous gate touching each of its qubits.
struct GateDag {
  explicit GateDag(const QuantumCircuit& circuit) {
    const auto& gates = circuit.gates();
    successors.resize(gates.size());
    pending_deps.assign(gates.size(), 0);
    std::vector<int> last(circuit.num_qubits(), -1);
    for (size_t g = 0; g < gates.size(); ++g) {
      for (int q : gates[g].qubits) {
        if (last[q] >= 0) {
          successors[last[q]].push_back(static_cast<int>(g));
          ++pending_deps[g];
        }
        last[q] = static_cast<int>(g);
      }
    }
    for (size_t g = 0; g < gates.size(); ++g) {
      if (pending_deps[g] == 0) front.push_back(static_cast<int>(g));
    }
  }

  void MarkExecuted(int gate, std::vector<int>& newly_ready) {
    for (int next : successors[gate]) {
      if (--pending_deps[next] == 0) newly_ready.push_back(next);
    }
  }

  std::vector<std::vector<int>> successors;
  std::vector<int> pending_deps;
  std::vector<int> front;
};

}  // namespace

StatusOr<std::vector<int>> ChooseInitialLayout(const QuantumCircuit& logical,
                                               const CouplingGraph& device,
                                               Rng& rng) {
  const int l = logical.num_qubits();
  const int n = device.num_qubits();
  if (l > n) return Status::InvalidArgument("circuit larger than device");
  if (l == 0) return std::vector<int>{};
  if (!device.IsConnected()) {
    return Status::InvalidArgument("device graph must be connected");
  }

  // 1. Pick a dense connected physical region of size l, BFS-grown from a
  //    random high-degree seed (randomness models transpiler run-to-run
  //    variance, cf. Fig. 2's 20 transpilations).
  std::vector<int> seeds(n);
  std::iota(seeds.begin(), seeds.end(), 0);
  std::sort(seeds.begin(), seeds.end(), [&](int a, int b) {
    return device.Degree(a) > device.Degree(b);
  });
  const int top = std::max(1, n / 8);
  const int seed = seeds[rng.UniformInt(top)];

  std::vector<bool> selected(n, false);
  std::vector<int> region = {seed};
  selected[seed] = true;
  while (static_cast<int>(region.size()) < l) {
    // Candidate = neighbour of the region; prefer max edges into region.
    int best = -1;
    int best_links = -1;
    for (int node : region) {
      for (int next : device.Neighbors(node)) {
        if (selected[next]) continue;
        int links = 0;
        for (int nb : device.Neighbors(next)) {
          if (selected[nb]) ++links;
        }
        // Random tie-break.
        if (links > best_links || (links == best_links && rng.Bernoulli(0.5))) {
          best_links = links;
          best = next;
        }
      }
    }
    QJO_CHECK_GE(best, 0);
    selected[best] = true;
    region.push_back(best);
  }

  // 2. Place interaction-heavy logical qubits first, each on the free
  //    region slot closest to its already-placed interaction partners.
  std::vector<std::vector<int>> interactions(l);
  for (const Gate& g : logical.gates()) {
    if (g.qubits.size() == 2) {
      interactions[g.qubits[0]].push_back(g.qubits[1]);
      interactions[g.qubits[1]].push_back(g.qubits[0]);
    }
  }
  std::vector<int> logical_order(l);
  std::iota(logical_order.begin(), logical_order.end(), 0);
  std::sort(logical_order.begin(), logical_order.end(), [&](int a, int b) {
    return interactions[a].size() > interactions[b].size();
  });

  // Precompute BFS distances from every region slot once.
  std::vector<std::vector<int>> slot_dist(n);
  for (int slot : region) slot_dist[slot] = device.BfsDistances(slot);

  std::vector<int> layout(l, -1);
  std::vector<bool> used(n, false);
  for (int lq : logical_order) {
    int best_slot = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int slot : region) {
      if (used[slot]) continue;
      double cost = 0.0;
      const std::vector<int>& dist = slot_dist[slot];
      for (int partner : interactions[lq]) {
        if (layout[partner] >= 0) cost += dist[layout[partner]];
      }
      cost += rng.UniformDouble() * 0.1;  // tie-break jitter
      if (cost < best_cost) {
        best_cost = cost;
        best_slot = slot;
      }
    }
    QJO_CHECK_GE(best_slot, 0);
    layout[lq] = best_slot;
    used[best_slot] = true;
  }
  return layout;
}

StatusOr<RoutingResult> RouteCircuit(const QuantumCircuit& logical,
                                     const CouplingGraph& device,
                                     const std::vector<int>& initial_layout,
                                     RoutingStrategy strategy, Rng& rng) {
  const int l = logical.num_qubits();
  const int n = device.num_qubits();
  if (static_cast<int>(initial_layout.size()) != l) {
    return Status::InvalidArgument("layout size mismatch");
  }
  std::vector<bool> used(n, false);
  for (int p : initial_layout) {
    if (p < 0 || p >= n || used[p]) {
      return Status::InvalidArgument("invalid initial layout");
    }
    used[p] = true;
  }

  const std::vector<std::vector<int>> dist = device.AllPairsDistances();

  RoutingResult result;
  result.circuit = QuantumCircuit(n);
  result.initial_layout = initial_layout;

  // mapping[logical] = physical; inverse[physical] = logical or -1.
  std::vector<int> mapping = initial_layout;
  std::vector<int> inverse(n, -1);
  for (int lq = 0; lq < l; ++lq) inverse[mapping[lq]] = lq;

  auto apply_swap = [&](int pa, int pb) {
    result.circuit.Swap(pa, pb);
    ++result.num_swaps;
    const int la = inverse[pa];
    const int lb = inverse[pb];
    if (la >= 0) mapping[la] = pb;
    if (lb >= 0) mapping[lb] = pa;
    std::swap(inverse[pa], inverse[pb]);
  };
  auto emit_gate = [&](const Gate& g) {
    Gate physical = g;
    for (int& q : physical.qubits) q = mapping[q];
    result.circuit.Append(std::move(physical));
  };

  const auto& gates = logical.gates();
  if (strategy == RoutingStrategy::kBasic) {
    for (const Gate& g : gates) {
      if (g.qubits.size() == 2) {
        // Walk the first operand toward the second along a shortest path.
        while (!device.HasEdge(mapping[g.qubits[0]], mapping[g.qubits[1]])) {
          const int pa = mapping[g.qubits[0]];
          const int pb = mapping[g.qubits[1]];
          int step = -1;
          for (int nb : device.Neighbors(pa)) {
            if (dist[nb][pb] == dist[pa][pb] - 1) {
              step = nb;
              break;
            }
          }
          QJO_CHECK_GE(step, 0);
          apply_swap(pa, step);
        }
      }
      emit_gate(g);
    }
    result.final_layout = mapping;
    return result;
  }

  // Lookahead (SABRE-flavoured) routing.
  GateDag dag(logical);
  std::vector<int> front = std::move(dag.front);
  // Decay discourages ping-ponging the same physical qubits.
  std::vector<double> decay(n, 1.0);
  int steps_since_progress = 0;

  auto front_cost = [&](const std::vector<int>& gate_ids) {
    double cost = 0.0;
    for (int gid : gate_ids) {
      const Gate& g = gates[gid];
      if (g.qubits.size() == 2) {
        cost += dist[mapping[g.qubits[0]]][mapping[g.qubits[1]]];
      }
    }
    return cost;
  };

  while (!front.empty()) {
    // Execute everything executable.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      std::vector<int> still_blocked;
      std::vector<int> newly_ready;
      for (int gid : front) {
        const Gate& g = gates[gid];
        const bool ready =
            g.qubits.size() == 1 ||
            device.HasEdge(mapping[g.qubits[0]], mapping[g.qubits[1]]);
        if (ready) {
          emit_gate(g);
          dag.MarkExecuted(gid, newly_ready);
          progressed = true;
        } else {
          still_blocked.push_back(gid);
        }
      }
      front = std::move(still_blocked);
      front.insert(front.end(), newly_ready.begin(), newly_ready.end());
      if (progressed) {
        std::fill(decay.begin(), decay.end(), 1.0);
        steps_since_progress = 0;
      }
    }
    if (front.empty()) break;

    // Extended window: the next two-qubit gates reachable from the front.
    std::vector<int> extended;
    {
      std::vector<int> frontier = front;
      std::vector<bool> seen(gates.size(), false);
      while (!frontier.empty() && extended.size() < 20) {
        std::vector<int> next_frontier;
        for (int gid : frontier) {
          for (int succ : dag.successors[gid]) {
            if (seen[succ]) continue;
            seen[succ] = true;
            if (gates[succ].qubits.size() == 2) extended.push_back(succ);
            next_frontier.push_back(succ);
          }
        }
        frontier = std::move(next_frontier);
      }
    }

    // Candidate swaps: device edges incident to the physical qubits of
    // blocked front gates.
    std::vector<std::pair<int, int>> candidates;
    for (int gid : front) {
      const Gate& g = gates[gid];
      for (int lq : g.qubits) {
        const int p = mapping[lq];
        for (int nb : device.Neighbors(p)) {
          candidates.emplace_back(std::min(p, nb), std::max(p, nb));
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    QJO_CHECK(!candidates.empty());

    if (++steps_since_progress > n + 20) {
      // Escape hatch: force progress by walking the first blocked
      // two-qubit gate's operands together along a shortest path.
      int gid = -1;
      for (int f : front) {
        if (gates[f].qubits.size() == 2) {
          gid = f;
          break;
        }
      }
      QJO_CHECK_GE(gid, 0);
      const Gate& g = gates[gid];
      while (!device.HasEdge(mapping[g.qubits[0]], mapping[g.qubits[1]])) {
        const int pa = mapping[g.qubits[0]];
        const int pb = mapping[g.qubits[1]];
        int step = -1;
        for (int nb : device.Neighbors(pa)) {
          if (dist[nb][pb] == dist[pa][pb] - 1) {
            step = nb;
            break;
          }
        }
        QJO_CHECK_GE(step, 0);
        apply_swap(pa, step);
      }
      continue;
    }

    double best_score = std::numeric_limits<double>::infinity();
    std::pair<int, int> best_swap = candidates[0];
    for (const auto& [pa, pb] : candidates) {
      // Tentatively apply.
      const int la = inverse[pa];
      const int lb = inverse[pb];
      if (la >= 0) mapping[la] = pb;
      if (lb >= 0) mapping[lb] = pa;
      // SABRE-style heuristic: average front distance plus a discounted
      // extended-window term.
      double score =
          front_cost(front) / std::max<size_t>(front.size(), 1) +
          0.5 * front_cost(extended) / std::max<size_t>(extended.size(), 1);
      score *= std::max(decay[pa], decay[pb]);
      score += rng.UniformDouble() * 1e-6;  // random tie-break
      if (score < best_score) {
        best_score = score;
        best_swap = {pa, pb};
      }
      // Undo.
      if (la >= 0) mapping[la] = pa;
      if (lb >= 0) mapping[lb] = pb;
    }
    apply_swap(best_swap.first, best_swap.second);
    decay[best_swap.first] += 0.1;
    decay[best_swap.second] += 0.1;
  }
  result.final_layout = mapping;
  return result;
}

bool IsProperlyRouted(const QuantumCircuit& circuit,
                      const CouplingGraph& device) {
  for (const Gate& g : circuit.gates()) {
    if (g.qubits.size() == 2 && !device.HasEdge(g.qubits[0], g.qubits[1])) {
      return false;
    }
  }
  return true;
}

}  // namespace qjo
