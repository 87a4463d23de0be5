#include "embedding/embedded_qubo.h"

#include <algorithm>

#include "util/check.h"

namespace qjo {

StatusOr<EmbeddedQubo> EmbedQubo(const Qubo& logical,
                                 const Embedding& embedding,
                                 const CouplingGraph& target,
                                 const EmbedQuboOptions& options) {
  if (embedding.num_logical() != logical.num_variables()) {
    return Status::InvalidArgument("embedding does not match QUBO size");
  }
  if (!VerifyEmbedding(logical.Edges(), logical.num_variables(), target,
                       embedding)) {
    return Status::InvalidArgument("invalid embedding for this QUBO");
  }

  EmbeddedQubo out;
  out.chain_strength =
      options.chain_strength_override > 0.0
          ? options.chain_strength_override
          : options.chain_strength_multiplier * logical.MaxAbsCoefficient();

  // Model variables: the chain qubits (disjoint, as verified above) in
  // ascending hardware order.
  for (const auto& chain : embedding.chains) {
    out.qubits.insert(out.qubits.end(), chain.begin(), chain.end());
  }
  std::sort(out.qubits.begin(), out.qubits.end());
  const auto model_index = [&out](int qubit) {
    return static_cast<int>(
        std::lower_bound(out.qubits.begin(), out.qubits.end(), qubit) -
        out.qubits.begin());
  };
  out.embedding.chains.reserve(embedding.chains.size());
  for (const auto& chain : embedding.chains) {
    std::vector<int>& model_chain = out.embedding.chains.emplace_back();
    model_chain.reserve(chain.size());
    for (int q : chain) model_chain.push_back(model_index(q));
  }

  Qubo physical(static_cast<int>(out.qubits.size()));
  physical.AddOffset(logical.offset());

  // Linear terms: split evenly across the chain.
  for (int i = 0; i < logical.num_variables(); ++i) {
    const auto& chain = out.embedding.chains[i];
    const double share =
        logical.linear(i) / static_cast<double>(chain.size());
    for (int k : chain) {
      if (share != 0.0) physical.AddLinear(k, share);
    }
  }

  // Couplings: split evenly across all physical couplers between chains.
  for (const auto& [i, j, w] : logical.QuadraticTerms()) {
    std::vector<std::pair<int, int>> couplers;
    for (int ka : out.embedding.chains[i]) {
      for (int kb : out.embedding.chains[j]) {
        if (target.HasEdge(out.qubits[ka], out.qubits[kb])) {
          couplers.emplace_back(ka, kb);
        }
      }
    }
    QJO_CHECK(!couplers.empty());
    const double share = w / static_cast<double>(couplers.size());
    for (const auto& [ka, kb] : couplers) {
      physical.AddQuadratic(ka, kb, share);
    }
  }

  // Chain penalties: cs * (x_p - x_q)^2 on every intra-chain coupler.
  const double cs = out.chain_strength;
  for (const auto& chain : out.embedding.chains) {
    for (size_t a = 0; a < chain.size(); ++a) {
      for (size_t b = a + 1; b < chain.size(); ++b) {
        if (target.HasEdge(out.qubits[chain[a]], out.qubits[chain[b]])) {
          physical.AddLinear(chain[a], cs);
          physical.AddLinear(chain[b], cs);
          physical.AddQuadratic(chain[a], chain[b], -2.0 * cs);
        }
      }
    }
  }

  out.physical = std::move(physical);
  return out;
}

UnembeddedSample UnembedSample(const std::vector<int>& physical_bits,
                               const Embedding& embedding, Rng& rng) {
  UnembeddedSample out;
  out.logical_bits.resize(embedding.num_logical());
  int broken = 0;
  for (int i = 0; i < embedding.num_logical(); ++i) {
    const auto& chain = embedding.chains[i];
    QJO_CHECK(!chain.empty());
    int ones = 0;
    for (int q : chain) {
      QJO_CHECK_LT(static_cast<size_t>(q), physical_bits.size());
      ones += physical_bits[q];
    }
    const int zeros = static_cast<int>(chain.size()) - ones;
    if (ones != 0 && zeros != 0) ++broken;
    if (ones > zeros) {
      out.logical_bits[i] = 1;
    } else if (ones < zeros) {
      out.logical_bits[i] = 0;
    } else {
      out.logical_bits[i] = rng.Bernoulli(0.5) ? 1 : 0;
    }
  }
  out.chain_break_fraction =
      embedding.num_logical() == 0
          ? 0.0
          : static_cast<double>(broken) /
                static_cast<double>(embedding.num_logical());
  return out;
}

}  // namespace qjo
