#ifndef QJO_EMBEDDING_EMBEDDED_QUBO_H_
#define QJO_EMBEDDING_EMBEDDED_QUBO_H_

#include <vector>

#include "embedding/minor_embedding.h"
#include "qubo/qubo.h"
#include "topology/coupling_graph.h"
#include "util/random.h"
#include "util/statusor.h"

namespace qjo {

/// A logical QUBO mapped onto hardware: linear terms split across chain
/// qubits, couplings distributed over the available inter-chain couplers,
/// and ferromagnetic chain penalties cs * (x_p - x_q)^2 on intra-chain
/// couplers (Sec. 2.2.2 / Sec. 4.1 "chain strength").
///
/// Like the QPU, the model programs only the chain qubits: idle qubits of
/// the target graph (zero field, no couplings) are left out, so an
/// annealer never simulates them.
struct EmbeddedQubo {
  /// One variable per chain qubit; variable k is hardware qubit qubits[k].
  Qubo physical;
  /// Hardware id of each model variable, strictly ascending.
  std::vector<int> qubits;
  /// The input embedding with chains rewritten into model variable
  /// indices, i.e. the embedding to unembed samples of `physical` with.
  Embedding embedding;
  double chain_strength = 0.0;
};

/// Options controlling the embedding of coefficients.
struct EmbedQuboOptions {
  /// Chain strength = multiplier * max |logical coefficient|; the paper
  /// determines suitable values per problem size experimentally.
  double chain_strength_multiplier = 1.0;
  /// Explicit chain strength; takes precedence when > 0.
  double chain_strength_override = -1.0;
};

/// Maps `logical` onto the hardware graph using `embedding`. Fails if the
/// embedding is invalid for the QUBO's graph.
StatusOr<EmbeddedQubo> EmbedQubo(const Qubo& logical,
                                 const Embedding& embedding,
                                 const CouplingGraph& target,
                                 const EmbedQuboOptions& options);

/// Result of mapping a physical sample back to logical variables by
/// majority vote over each chain.
struct UnembeddedSample {
  std::vector<int> logical_bits;
  /// Fraction of chains whose qubits disagreed (chain breaks).
  double chain_break_fraction = 0.0;
};

/// Majority-vote unembedding; ties are broken randomly via `rng`.
UnembeddedSample UnembedSample(const std::vector<int>& physical_bits,
                               const Embedding& embedding, Rng& rng);

}  // namespace qjo

#endif  // QJO_EMBEDDING_EMBEDDED_QUBO_H_
