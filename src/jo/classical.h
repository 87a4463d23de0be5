#ifndef QJO_JO_CLASSICAL_H_
#define QJO_JO_CLASSICAL_H_

#include <cstdint>
#include <vector>

#include "jo/join_tree.h"
#include "jo/query.h"
#include "util/random.h"
#include "util/statusor.h"

namespace qjo {

/// Exhaustive enumeration of all T! left-deep orders. Exact but only
/// feasible for small T; fails beyond `max_relations` (default 10).
StatusOr<JoResult> OptimizeExhaustive(const Query& query,
                                      int max_relations = 10);

/// Relation cap of OptimizeDp. Its tables take 8 + 1 bytes per relation
/// subset (the dp cost and the parent relation) plus 8 per subset without
/// the last relation (CardinalityTable's products): 13 bytes x 2^T, 52 MiB
/// at the cap. Past it OptimizeDp returns ResourceExhausted with the byte
/// estimate instead of silently allocating hundreds of megabytes.
inline constexpr int kMaxDpRelations = 22;

/// Join cardinalities of relation subsets, each bit-identical to
/// Query::JoinCardinality, for queries of 1 to kMaxDpRelations relations,
/// handed out in blocks of kBlock consecutive masks.
///  - Products: the table stores the base-cardinality product of every
///    subset of the first T - 1 relations, built as
///    rel[m] = rel[m ^ hi] * card[hi] with hi the highest relation in m:
///    JoinCardinality's product in its ascending order. A subset with the
///    last relation multiplies its lower part's product by that
///    relation's cardinality.
///  - Predicates: multiply in list order, by their selectivity when both
///    endpoints are in the mask and by 1.0 (exact, so skipped) otherwise.
///    Within a block only the low log2(kBlock) bits vary, so a predicate
///    whose high endpoint bits are missing from the block skips it whole,
///    and one with a low endpoint multiplies by a precomputed row of
///    selectivity-or-1.0 factors.
class CardinalityTable {
 public:
  static constexpr int kBlock = 64;

  explicit CardinalityTable(const Query& query);

  /// 2^T.
  uint64_t num_masks() const { return half_ * 2; }

  /// Writes JoinCardinality(first + i) into out[i] for
  /// 0 <= i < min(kBlock, num_masks() - first). `first` must be a
  /// multiple of kBlock below num_masks().
  void FillBlock(uint64_t first, double* out) const;

 private:
  struct PredicateFactor {
    uint64_t high_endpoints;  // endpoint bits at or above log2(kBlock)
    double selectivity;
    int row;  // offset into factor_rows_, or -1 without a low endpoint
  };
  uint64_t half_;     // 2^(T-1): the first mask holding the last relation
  double last_card_;  // cardinality of relation T - 1
  std::vector<double> lower_;  // products of the masks below half_
  std::vector<PredicateFactor> predicates_;
  std::vector<double> factor_rows_;  // kBlock factors per low-endpoint row
};

/// Dynamic programming over relation subsets (DPsub restricted to left-deep
/// trees with cross products): O(2^T * T). Exact; fails beyond
/// kMaxDpRelations relations to bound memory. This is the ground-truth
/// oracle used to label "optimal" quantum samples in the Table 2/3
/// reproductions. Serial; masks are visited in ascending order, each
/// mask's candidate last relations in ascending order, and the first
/// strictly cheapest one wins.
StatusOr<JoResult> OptimizeDp(const Query& query);

/// Greedy construction: start from the pair with the cheapest join result,
/// then repeatedly append the relation minimising the next intermediate
/// cardinality (minimum-selectivity flavour of Steinbrunn et al.).
/// Cardinality ties prefer predicate-connected joins over cross products,
/// so the plans it seeds (e.g. the decomposition repair loop) avoid
/// avoidable cross joins.
StatusOr<JoResult> OptimizeGreedy(const Query& query);

/// The classical answer: OptimizeDp up to kMaxDpRelations relations (exact),
/// OptimizeGreedy past it, where the DP tables would not fit.
StatusOr<JoResult> OptimizeClassical(const Query& query);

/// Iterative improvement (Steinbrunn et al.): random restarts followed by
/// best-improvement swap moves until a local optimum is reached.
StatusOr<JoResult> OptimizeIterativeImprovement(const Query& query, Rng& rng,
                                                int restarts = 10);

}  // namespace qjo

#endif  // QJO_JO_CLASSICAL_H_
