#ifndef QJO_JO_QUERY_H_
#define QJO_JO_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace qjo {

/// A base relation with its (estimated) cardinality.
struct Relation {
  std::string name;
  double cardinality = 1.0;  // Card(t) >= 1, as required by the paper.
};

/// An (uncorrelated) binary join predicate between two relations, following
/// Sec. 3.2 of the paper: T1(p), T2(p) and selectivity Sel(p) in (0, 1].
struct Predicate {
  int left = 0;
  int right = 0;
  double selectivity = 1.0;
};

/// Shape of the join (query) graph, as in Steinbrunn et al. / Sec. 4.1.
enum class QueryGraphType { kChain, kStar, kCycle, kClique };

/// Name of a query graph type ("chain", "star", ...).
const char* QueryGraphTypeName(QueryGraphType type);

/// A join query: a set of relations plus binary join predicates. Left-deep
/// join trees over the query may require cross products when the query
/// graph is disconnected (the formulation explicitly allows them).
class Query {
 public:
  Query() = default;

  /// Adds a relation; returns its index.
  int AddRelation(std::string name, double cardinality);

  /// Adds a predicate between existing relations. Fails if indices are out
  /// of range, equal, or selectivity is outside (0, 1].
  Status AddPredicate(int left, int right, double selectivity);

  int num_relations() const { return static_cast<int>(relations_.size()); }
  int num_predicates() const { return static_cast<int>(predicates_.size()); }
  /// Number of joins in a left-deep tree: T - 1.
  int num_joins() const { return num_relations() - 1; }

  const Relation& relation(int t) const { return relations_[t]; }
  const Predicate& predicate(int p) const { return predicates_[p]; }
  const std::vector<Relation>& relations() const { return relations_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }

  /// Combined selectivity of all predicates connecting relation `t` with
  /// any relation in `joined` (a bitmask over relation indices). 1.0 if no
  /// predicate applies (cross product).
  double SelectivityBetween(uint64_t joined_mask, int t) const;

  /// Cardinality of the join of all relations in `mask`: the product of
  /// base cardinalities times the selectivity of every predicate with both
  /// endpoints inside the mask (uncorrelated-predicate model).
  double JoinCardinality(uint64_t mask) const;

  /// Human-readable description for logs/examples.
  std::string ToString() const;

 private:
  std::vector<Relation> relations_;
  std::vector<Predicate> predicates_;
};

}  // namespace qjo

#endif  // QJO_JO_QUERY_H_
