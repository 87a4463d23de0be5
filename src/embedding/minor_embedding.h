#ifndef QJO_EMBEDDING_MINOR_EMBEDDING_H_
#define QJO_EMBEDDING_MINOR_EMBEDDING_H_

#include <vector>

#include "topology/coupling_graph.h"
#include "util/random.h"
#include "util/statusor.h"

namespace qjo {

class ThreadPool;

/// A minor embedding: each logical (source) node is represented by a chain
/// of physical qubits. Valid embeddings have non-empty, pairwise-disjoint,
/// connected chains, and every source edge is representable by at least one
/// physical coupler between the two chains (Sec. 2.2.2).
struct Embedding {
  std::vector<std::vector<int>> chains;

  int num_logical() const { return static_cast<int>(chains.size()); }
  /// Total number of physical qubits used (the Fig. 3 metric).
  int NumPhysicalQubits() const;
  int MaxChainLength() const;
};

/// Options for the heuristic embedder (a Cai-Macready-Roy-style algorithm,
/// standing in for D-Wave's minorminer).
struct EmbeddingOptions {
  /// Independent randomised tries. Try t draws from its own stream
  /// (`rng.Fork().Fork(t)`), so tries can run in parallel; the valid
  /// embedding with the fewest physical qubits wins, ties going to the
  /// lowest t. The first k tries therefore compute the same chains at
  /// every value of `tries` >= k.
  int tries = 5;
  /// Improvement passes per attempt after the initial construction.
  int max_passes = 40;
};

/// Finds a minor embedding of the source graph (given as an edge list over
/// `num_source_nodes` nodes) into `target`. Returns NotFound if no valid
/// embedding was found within the configured tries. The tries run on
/// `pool` (null = serial); the result is the same at every pool size, and
/// `rng` advances by exactly one Fork() whatever the tries do.
StatusOr<Embedding> FindMinorEmbedding(
    const std::vector<std::pair<int, int>>& source_edges, int num_source_nodes,
    const CouplingGraph& target, const EmbeddingOptions& options, Rng& rng,
    ThreadPool* pool = nullptr);

/// Validates chain disjointness, connectivity, and edge representability.
bool VerifyEmbedding(const std::vector<std::pair<int, int>>& source_edges,
                     int num_source_nodes, const CouplingGraph& target,
                     const Embedding& embedding);

}  // namespace qjo

#endif  // QJO_EMBEDDING_MINOR_EMBEDDING_H_
