#ifndef QJO_JO_QUERY_GENERATOR_H_
#define QJO_JO_QUERY_GENERATOR_H_

#include "jo/query.h"
#include "util/random.h"
#include "util/statusor.h"

namespace qjo {

/// Options for the Steinbrunn-style random query generator used throughout
/// the paper's evaluation (Sec. 4.1). In `integer_log_values` mode (the
/// paper's relaxed scenario), base-10 logarithmic cardinalities and
/// selectivities are integers, which keeps the MILP/QUBO coefficients
/// integral and avoids discretisation artefacts.
struct QueryGenOptions {
  int num_relations = 3;
  QueryGraphType graph_type = QueryGraphType::kChain;

  /// Integer log10 cardinalities/selectivities (paper's Sec. 4.1 setup).
  bool integer_log_values = true;

  /// Cardinality range as log10 exponents: Card(t) = 10^u,
  /// u ~ U[min_log_card, max_log_card]. Selectivities are Sel(p) = 10^-u
  /// with u ~ U[1, 2], the Sec. 4.1 range.
  double min_log_card = 1.0;
  double max_log_card = 4.0;
};

/// Generates a random query with the requested graph type:
///  chain : predicates (0,1), (1,2), ..., (T-2, T-1)        — T-1 predicates
///  star  : predicates (0,i) for i = 1..T-1                  — T-1 predicates
///  cycle : chain plus closing predicate (T-1, 0)            — T   predicates
///  clique: all pairs                                        — T(T-1)/2
/// Fails for fewer than 2 relations (cycle needs >= 3).
StatusOr<Query> GenerateQuery(const QueryGenOptions& options, Rng& rng);

/// Generates a query with an explicit number of predicates placed greedily
/// chain-first (the Sec. 4.1 "varying number of predicates" scenario for
/// three-relation queries: 0..3 predicates; fewer than T-1 predicates force
/// cross products). Fails if num_predicates exceeds T(T-1)/2.
StatusOr<Query> GenerateQueryWithPredicateCount(const QueryGenOptions& options,
                                                int num_predicates, Rng& rng);

}  // namespace qjo

#endif  // QJO_JO_QUERY_GENERATOR_H_
