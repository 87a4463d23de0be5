#include "embedding/minor_embedding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_set>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Base of the exponential overuse penalty during chain construction.
constexpr double kAlpha = 4.0;

using HeapItem = std::pair<double, int>;

/// Min-priority queue of qubits keyed on (distance, qubit) with
/// decrease-key, so each qubit is queued at most once. Keys are distinct,
/// so it pops in exactly the order a lazy binary heap of (distance, qubit)
/// pairs would (skipping that heap's stale entries). 4-ary: half the
/// depth of a binary heap.
class QubitQueue {
 public:
  void Reset(int num_qubits) {
    slot_.assign(num_qubits, -1);
    heap_.clear();
  }
  bool empty() const { return heap_.empty(); }

  /// Queues `q` with key `dist`, or lowers its key to `dist`.
  void Push(double dist, int q) {
    int i = slot_[q];
    if (i < 0) {
      i = static_cast<int>(heap_.size());
      heap_.emplace_back(dist, q);
    } else {
      heap_[i].first = dist;
    }
    SiftUp(i);
  }

  HeapItem Pop() {
    const HeapItem top = heap_.front();
    slot_[top.second] = -1;
    const HeapItem last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(last);
    return top;
  }

 private:
  static constexpr int kArity = 4;

  void Place(int i, const HeapItem& item) {
    heap_[i] = item;
    slot_[item.second] = i;
  }

  void SiftUp(int i) {
    const HeapItem item = heap_[i];
    while (i > 0) {
      const int up = (i - 1) / kArity;
      if (!(item < heap_[up])) break;
      Place(i, heap_[up]);
      i = up;
    }
    Place(i, item);
  }

  /// Moves `item` down from the root into its place.
  void SiftDown(const HeapItem& item) {
    const int size = static_cast<int>(heap_.size());
    int i = 0;
    for (;;) {
      const int first = i * kArity + 1;
      if (first >= size) break;
      int least = first;
      const int end = std::min(first + kArity, size);
      for (int c = first + 1; c < end; ++c) {
        if (heap_[c] < heap_[least]) least = c;
      }
      if (!(heap_[least] < item)) break;
      Place(i, heap_[least]);
      i = least;
    }
    Place(i, item);
  }

  std::vector<HeapItem> heap_;
  std::vector<int> slot_;  ///< heap index of each queued qubit, else -1
};

/// Buffers of one try's routing, reused by every route it makes (a try
/// routes hundreds of times, each over the whole target graph).
struct RouteScratch {
  std::vector<double> node_cost;
  std::vector<int> embedded_neighbors;
  /// One distance field and Dijkstra tree per embedded neighbour; only
  /// the first embedded_neighbors.size() entries are live.
  std::vector<std::vector<double>> dists;
  std::vector<std::vector<int>> parents;
  QubitQueue queue;
  std::vector<int> chain;
};

/// Working state of one embedding try.
struct Attempt {
  Attempt(int num_logical, const CouplingGraph& target)
      : chains(num_logical),
        usage(target.num_qubits(), 0),
        target(&target) {}

  /// Cost of routing *through* physical qubit q: exponential in how many
  /// chains already occupy it (the CMR diffusion penalty).
  double NodeCost(int q, double alpha) const {
    if (usage[q] == 0) return 1.0;
    return std::pow(alpha, std::min(usage[q], 12));
  }

  void AssignChain(int node, std::vector<int> chain) {
    for (int q : chains[node]) --usage[q];
    chains[node] = std::move(chain);
    for (int q : chains[node]) ++usage[q];
  }

  void ClearChain(int node) { AssignChain(node, {}); }

  int OverusedQubits() const {
    int count = 0;
    for (int u : usage) {
      if (u > 1) ++count;
    }
    return count;
  }

  std::vector<std::vector<int>> chains;
  std::vector<int> usage;
  const CouplingGraph* target;
  RouteScratch scratch;
};

/// Multi-source Dijkstra from a chain; node weights (precomputed in
/// `node_cost`, all >= 1 or infinite) are paid on entry. dist[q] =
/// cheapest cost of a path chain -> q (excluding the chain's own qubits,
/// which cost 0); parent[q] = predecessor towards the chain. Qubits settle
/// in (dist, qubit) order, so every tie resolves the same way.
void DijkstraFromChain(const CouplingGraph& g, const std::vector<int>& chain,
                       const std::vector<double>& node_cost,
                       std::vector<double>& dist, std::vector<int>& parent,
                       QubitQueue& queue) {
  dist.assign(g.num_qubits(), kInf);
  parent.assign(g.num_qubits(), -1);
  queue.Reset(g.num_qubits());
  for (int q : chain) {
    dist[q] = 0.0;
    queue.Push(0.0, q);
  }
  while (!queue.empty()) {
    const auto [d, q] = queue.Pop();
    for (int next : g.Neighbors(q)) {
      const double nd = d + node_cost[next];
      if (nd < dist[next]) {
        dist[next] = nd;
        parent[next] = q;
        queue.Push(nd, next);
      }
    }
  }
}

/// (Re-)routes `node`: places a root minimising the summed distance to all
/// embedded neighbours and connects it to each neighbour chain along the
/// Dijkstra tree. Returns false if no placement exists.
void PruneChain(Attempt& attempt, int node,
                const std::vector<std::vector<int>>& source_adj);

enum class RouteMode {
  kCapped,  ///< doubly-used qubits blocked (keeps the packing loose)
  kSoft,    ///< any qubit usable at exponential cost
  kHard,    ///< only free qubits usable
};

/// Routes `node` under the given occupancy policy.
bool RouteNodeImpl(Attempt& attempt, int node,
                   const std::vector<std::vector<int>>& source_adj,
                   double alpha, Rng& rng, RouteMode mode);

/// Routes `node`: optionally capped first (CMR occupancy bound), falling
/// back to the soft exponential-cost policy when the cap makes a
/// neighbour chain unreachable. In `hard` mode occupied qubits are
/// forbidden entirely, so a successful hard re-route can never introduce
/// a new overlap. The cap keeps large instances loosely packed but can
/// lock up tiny targets, so improvement passes alternate it on and off.
bool RouteNode(Attempt& attempt, int node,
               const std::vector<std::vector<int>>& source_adj, double alpha,
               Rng& rng, bool hard = false, bool capped = true) {
  if (hard) {
    return RouteNodeImpl(attempt, node, source_adj, alpha, rng,
                         RouteMode::kHard);
  }
  if (capped && RouteNodeImpl(attempt, node, source_adj, alpha, rng,
                              RouteMode::kCapped)) {
    return true;
  }
  return RouteNodeImpl(attempt, node, source_adj, alpha, rng,
                       RouteMode::kSoft);
}

bool RouteNodeImpl(Attempt& attempt, int node,
                   const std::vector<std::vector<int>>& source_adj,
                   double alpha, Rng& rng, RouteMode mode) {
  const bool hard = mode == RouteMode::kHard;
  const CouplingGraph& g = *attempt.target;
  attempt.ClearChain(node);

  // Usage costs are fixed for the duration of this call; precompute them
  // (pow() per edge relaxation would dominate otherwise). The multiplicative
  // jitter randomises path choices so successive re-routes explore
  // different configurations instead of deterministically recreating the
  // same conflicts. Qubits already shared by two chains are blocked
  // outright (the CMR occupancy cap), which keeps the packing loose enough
  // for conflicts to resolve.
  RouteScratch& scratch = attempt.scratch;
  std::vector<double>& node_cost = scratch.node_cost;
  node_cost.resize(g.num_qubits());
  for (int q = 0; q < g.num_qubits(); ++q) {
    if (hard) {
      node_cost[q] = attempt.usage[q] > 0 ? kInf : 1.0;
    } else if (mode == RouteMode::kCapped && attempt.usage[q] >= 2) {
      node_cost[q] = kInf;
    } else {
      node_cost[q] = attempt.NodeCost(q, alpha) *
                     (1.0 + 0.5 * rng.UniformDouble());
    }
  }

  std::vector<int>& embedded_neighbors = scratch.embedded_neighbors;
  embedded_neighbors.clear();
  for (int nb : source_adj[node]) {
    if (!attempt.chains[nb].empty()) embedded_neighbors.push_back(nb);
  }

  if (embedded_neighbors.empty()) {
    // First node of a component: place on a random least-used qubit.
    int best = -1;
    double best_cost = kInf;
    for (int q = 0; q < g.num_qubits(); ++q) {
      const double cost = node_cost[q] + rng.UniformDouble() * 0.01;
      if (cost < best_cost) {
        best_cost = cost;
        best = q;
      }
    }
    // Every qubit blocked (hard mode on a full target, or capped mode
    // with every qubit doubly used).
    if (best < 0) return false;
    attempt.AssignChain(node, {best});
    return true;
  }

  // Distance fields from every embedded neighbour chain.
  const size_t num_fields = embedded_neighbors.size();
  if (scratch.dists.size() < num_fields) {
    scratch.dists.resize(num_fields);
    scratch.parents.resize(num_fields);
  }
  auto& dists = scratch.dists;
  auto& parents = scratch.parents;
  for (size_t i = 0; i < num_fields; ++i) {
    DijkstraFromChain(g, attempt.chains[embedded_neighbors[i]], node_cost,
                      dists[i], parents[i], scratch.queue);
  }

  // Root choice: minimise sum of distances plus own cost.
  int root = -1;
  double best_total = kInf;
  for (int q = 0; q < g.num_qubits(); ++q) {
    double total = node_cost[q];
    bool reachable = true;
    for (size_t i = 0; i < num_fields; ++i) {
      if (dists[i][q] == kInf) {
        reachable = false;
        break;
      }
      total += dists[i][q];
    }
    if (!reachable) continue;
    total += rng.UniformDouble() * 1e-3;  // tie-break
    if (total < best_total) {
      best_total = total;
      root = q;
    }
  }
  if (root < 0) return false;

  // Chain = root plus the interior of each root->neighbour-chain path, in
  // the order the walks first reach each qubit.
  std::vector<int>& chain = scratch.chain;
  chain.assign(1, root);
  for (size_t i = 0; i < num_fields; ++i) {
    int q = root;
    // Walk towards the neighbour chain; stop at its first qubit.
    while (dists[i][q] > 0.0) {
      const int prev = parents[i][q];
      QJO_CHECK_GE(prev, 0);
      if (dists[i][prev] > 0.0 &&
          std::find(chain.begin(), chain.end(), prev) == chain.end()) {
        chain.push_back(prev);
      }
      q = prev;
    }
  }
  attempt.AssignChain(node, chain);
  PruneChain(attempt, node, source_adj);
  return true;
}

/// Minimises one chain: keeps only qubits needed for connectivity to the
/// node's neighbour chains (prunes leaves of the chain's induced subtree
/// that touch no neighbour chain). Called after every (re-)route so the
/// working embedding stays lean; blob-shaped intermediate chains would
/// otherwise pack the hardware so densely that conflicts cannot resolve.
void PruneChain(Attempt& attempt, int node,
                const std::vector<std::vector<int>>& source_adj) {
  const CouplingGraph& g = *attempt.target;
  {
    std::vector<int> chain = attempt.chains[node];
    if (chain.size() <= 1) return;
    std::unordered_set<int> members(chain.begin(), chain.end());

    // Mark qubits adjacent to some neighbour chain as required anchors.
    std::unordered_set<int> anchors;
    for (int nb : source_adj[node]) {
      for (int q : attempt.chains[nb]) {
        for (int adj : g.Neighbors(q)) {
          if (members.count(adj)) {
            anchors.insert(adj);
          }
        }
      }
    }
    if (anchors.empty()) anchors.insert(chain[0]);

    // Repeatedly drop non-anchor leaves of the induced subgraph.
    bool changed = true;
    while (changed && members.size() > 1) {
      changed = false;
      for (auto it = members.begin(); it != members.end();) {
        const int q = *it;
        if (anchors.count(q)) {
          ++it;
          continue;
        }
        int internal_degree = 0;
        for (int adj : g.Neighbors(q)) {
          if (members.count(adj)) ++internal_degree;
        }
        if (internal_degree <= 1) {
          it = members.erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
    }
    attempt.AssignChain(
        node, std::vector<int>(members.begin(), members.end()));
  }
}

/// Minimises every chain.
void PruneChains(Attempt& attempt,
                 const std::vector<std::vector<int>>& source_adj) {
  for (int node = 0; node < static_cast<int>(attempt.chains.size()); ++node) {
    PruneChain(attempt, node, source_adj);
  }
}

/// One randomised embedding try: greedy construction, improvement passes,
/// then hard-mode conflict resolution. Draws only from its own `rng`, so
/// the result depends on nothing but its inputs and that stream. Returns
/// the try's valid embedding, or nullopt if it ends with overlaps.
std::optional<Embedding> RunTry(
    const std::vector<std::pair<int, int>>& source_edges,
    const std::vector<std::vector<int>>& source_adj,
    const CouplingGraph& target, const EmbeddingOptions& options, Rng rng) {
  const int num_source_nodes = static_cast<int>(source_adj.size());
  Attempt attempt(num_source_nodes, target);

  // Construction order: descending source degree with random jitter.
  std::vector<int> order(num_source_nodes);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return source_adj[a].size() > source_adj[b].size();
  });

  bool feasible = true;
  for (int node : order) {
    if (!RouteNode(attempt, node, source_adj, kAlpha, rng)) {
      feasible = false;
      break;
    }
  }
  // Improvement passes: re-route only the nodes whose chains touch
  // overused qubits (plus their source neighbours, to open up space).
  // The best configuration seen is kept; the random exploration can
  // transiently worsen things.
  std::vector<std::vector<int>> best_chains = attempt.chains;
  int best_overused = attempt.OverusedQubits();
  for (int pass = 0; feasible && pass < options.max_passes; ++pass) {
    const int overused_now = attempt.OverusedQubits();
    if (overused_now < best_overused) {
      best_overused = overused_now;
      best_chains = attempt.chains;
    }
    if (attempt.OverusedQubits() == 0) break;
    std::vector<bool> needs_reroute(num_source_nodes, false);
    for (int node = 0; node < num_source_nodes; ++node) {
      for (int q : attempt.chains[node]) {
        if (attempt.usage[q] > 1) {
          needs_reroute[node] = true;
          for (int nb : source_adj[node]) needs_reroute[nb] = true;
          break;
        }
      }
    }
    // Every fourth pass re-packs the full embedding; in between only the
    // conflicted neighbourhood is re-routed (cheaper, and the jittered
    // costs keep exploring new configurations).
    const bool full_pass = pass % 4 == 3;
    rng.Shuffle(order);
    // Escalate the overuse penalty across passes so persistent
    // contention is eventually forced out (CMR-style annealed weights).
    const double alpha_pass = kAlpha * std::pow(1.5, std::min(pass, 12));
    for (int node : order) {
      if (!full_pass && !needs_reroute[node]) continue;
      if (!RouteNode(attempt, node, source_adj, alpha_pass, rng,
                     /*hard=*/false, /*capped=*/pass % 2 == 0)) {
        feasible = false;
        break;
      }
    }
  }
  // Restore the least-conflicted configuration before the final phase.
  if (feasible && attempt.OverusedQubits() > best_overused) {
    for (int node = 0; node < num_source_nodes; ++node) {
      attempt.AssignChain(node, best_chains[node]);
    }
  }

  // Final conflict resolution: re-route the remaining conflicted nodes
  // with occupied qubits forbidden outright. Each successful hard
  // re-route removes that node's overlaps without creating new ones, so
  // several shuffled rounds suffice whenever the hardware has room.
  for (int round = 0; feasible && round < 10; ++round) {
    const int overused_now = attempt.OverusedQubits();
    if (overused_now == 0) break;
    if (overused_now < best_overused) {
      best_overused = overused_now;
      best_chains = attempt.chains;
    } else if (overused_now > best_overused) {
      for (int node = 0; node < num_source_nodes; ++node) {
        attempt.AssignChain(node, best_chains[node]);
      }
    }
    std::vector<int> conflicted;
    for (int node = 0; node < num_source_nodes; ++node) {
      for (int q : attempt.chains[node]) {
        if (attempt.usage[q] > 1) {
          conflicted.push_back(node);
          break;
        }
      }
    }
    rng.Shuffle(conflicted);
    for (int node : conflicted) {
      if (!RouteNode(attempt, node, source_adj, kAlpha, rng, /*hard=*/true)) {
        // No free-qubit route exists; fall back to a soft re-route so
        // the chain at least stays valid for the next round.
        if (!RouteNode(attempt, node, source_adj, kAlpha, rng)) {
          feasible = false;
          break;
        }
      }
    }
  }
  if (!feasible || attempt.OverusedQubits() != 0) return std::nullopt;

  PruneChains(attempt, source_adj);
  Embedding candidate;
  candidate.chains = attempt.chains;
  if (!VerifyEmbedding(source_edges, num_source_nodes, target, candidate)) {
    return std::nullopt;
  }
  return candidate;
}

}  // namespace

int Embedding::NumPhysicalQubits() const {
  int total = 0;
  for (const auto& chain : chains) total += static_cast<int>(chain.size());
  return total;
}

int Embedding::MaxChainLength() const {
  int max_len = 0;
  for (const auto& chain : chains) {
    max_len = std::max(max_len, static_cast<int>(chain.size()));
  }
  return max_len;
}

StatusOr<Embedding> FindMinorEmbedding(
    const std::vector<std::pair<int, int>>& source_edges, int num_source_nodes,
    const CouplingGraph& target, const EmbeddingOptions& options, Rng& rng,
    ThreadPool* pool) {
  if (num_source_nodes <= 0) {
    return Status::InvalidArgument("need at least one source node");
  }
  if (num_source_nodes > target.num_qubits()) {
    return Status::NotFound("source larger than target");
  }
  std::vector<std::vector<int>> source_adj(num_source_nodes);
  for (const auto& [a, b] : source_edges) {
    if (a < 0 || b < 0 || a >= num_source_nodes || b >= num_source_nodes ||
        a == b) {
      return Status::InvalidArgument("bad source edge");
    }
    source_adj[a].push_back(b);
    source_adj[b].push_back(a);
  }

  // Every try forks its own stream off one base fork, so try t computes
  // the same chains whichever thread runs it, and the caller's stream
  // advances by one Fork() whatever `tries` and the pool are.
  const Rng base = rng.Fork();
  std::vector<std::optional<Embedding>> results(std::max(options.tries, 0));
  ParallelFor(pool, 0, static_cast<int64_t>(results.size()), [&](int64_t t) {
    results[t] =
        RunTry(source_edges, source_adj, target, options, base.Fork(t));
  });
  // Fewest physical qubits wins; ties go to the lowest try index.
  int best = -1;
  for (int t = 0; t < static_cast<int>(results.size()); ++t) {
    if (results[t].has_value() &&
        (best < 0 || results[t]->NumPhysicalQubits() <
                         results[best]->NumPhysicalQubits())) {
      best = t;
    }
  }
  if (best < 0) return Status::NotFound("no valid embedding found");
  return std::move(*results[best]);
}

bool VerifyEmbedding(const std::vector<std::pair<int, int>>& source_edges,
                     int num_source_nodes, const CouplingGraph& target,
                     const Embedding& embedding) {
  if (embedding.num_logical() != num_source_nodes) return false;
  std::vector<int> owner(target.num_qubits(), -1);
  for (int node = 0; node < num_source_nodes; ++node) {
    const auto& chain = embedding.chains[node];
    if (chain.empty()) return false;
    for (int q : chain) {
      if (q < 0 || q >= target.num_qubits()) return false;
      if (owner[q] != -1) return false;  // overlap
      owner[q] = node;
    }
    // Chain connectivity: BFS within the chain.
    std::unordered_set<int> members(chain.begin(), chain.end());
    std::vector<int> stack{chain[0]};
    std::unordered_set<int> seen{chain[0]};
    while (!stack.empty()) {
      const int q = stack.back();
      stack.pop_back();
      for (int adj : target.Neighbors(q)) {
        if (members.count(adj) && !seen.count(adj)) {
          seen.insert(adj);
          stack.push_back(adj);
        }
      }
    }
    if (seen.size() != members.size()) return false;
  }
  // Every source edge needs a physical coupler between the chains.
  for (const auto& [a, b] : source_edges) {
    bool coupled = false;
    for (int qa : embedding.chains[a]) {
      for (int qb : embedding.chains[b]) {
        if (target.HasEdge(qa, qb)) {
          coupled = true;
          break;
        }
      }
      if (coupled) break;
    }
    if (!coupled) return false;
  }
  return true;
}

}  // namespace qjo
