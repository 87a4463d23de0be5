#include "jo/query_generator.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace qjo {
namespace {

double DrawLogCard(const QueryGenOptions& options, Rng& rng) {
  if (options.integer_log_values) {
    return static_cast<double>(
        rng.UniformRange(static_cast<int64_t>(options.min_log_card),
                         static_cast<int64_t>(options.max_log_card)));
  }
  return rng.UniformDouble(options.min_log_card, options.max_log_card);
}

/// Selectivity range as log10 exponents (Sec. 4.1): Sel(p) = 10^-u,
/// u ~ U[kMinNegLogSel, kMaxNegLogSel].
constexpr int kMinNegLogSel = 1;
constexpr int kMaxNegLogSel = 2;

double DrawNegLogSel(const QueryGenOptions& options, Rng& rng) {
  if (options.integer_log_values) {
    return static_cast<double>(rng.UniformRange(kMinNegLogSel, kMaxNegLogSel));
  }
  return rng.UniformDouble(kMinNegLogSel, kMaxNegLogSel);
}

std::string RelationName(int index) {
  std::string name;
  name.push_back(static_cast<char>('R'));
  name += std::to_string(index);
  return name;
}

Query MakeRelations(const QueryGenOptions& options, Rng& rng) {
  Query query;
  for (int t = 0; t < options.num_relations; ++t) {
    query.AddRelation(RelationName(t),
                      std::pow(10.0, DrawLogCard(options, rng)));
  }
  return query;
}

/// Edge list of the requested graph type, chain-first ordering so a prefix
/// of the list is always a connected chain.
StatusOr<std::vector<std::pair<int, int>>> GraphEdges(QueryGraphType type,
                                                      int t) {
  std::vector<std::pair<int, int>> edges;
  switch (type) {
    case QueryGraphType::kChain:
      for (int i = 0; i + 1 < t; ++i) edges.emplace_back(i, i + 1);
      break;
    case QueryGraphType::kStar:
      for (int i = 1; i < t; ++i) edges.emplace_back(0, i);
      break;
    case QueryGraphType::kCycle:
      if (t < 3) {
        return Status::InvalidArgument("cycle queries need >= 3 relations");
      }
      for (int i = 0; i + 1 < t; ++i) edges.emplace_back(i, i + 1);
      edges.emplace_back(t - 1, 0);
      break;
    case QueryGraphType::kClique:
      for (int i = 0; i < t; ++i)
        for (int j = i + 1; j < t; ++j) edges.emplace_back(i, j);
      break;
  }
  return edges;
}

}  // namespace

StatusOr<Query> GenerateQuery(const QueryGenOptions& options, Rng& rng) {
  if (options.num_relations < 2) {
    return Status::InvalidArgument("need at least 2 relations");
  }
  Query query = MakeRelations(options, rng);
  auto edges_or = GraphEdges(options.graph_type, options.num_relations);
  if (!edges_or.ok()) return edges_or.status();
  for (const auto& [l, r] : *edges_or) {
    QJO_RETURN_IF_ERROR(query.AddPredicate(
        l, r, std::pow(10.0, -DrawNegLogSel(options, rng))));
  }
  return query;
}

StatusOr<Query> GenerateQueryWithPredicateCount(const QueryGenOptions& options,
                                                int num_predicates, Rng& rng) {
  if (options.num_relations < 2) {
    return Status::InvalidArgument("need at least 2 relations");
  }
  const int t = options.num_relations;
  if (num_predicates < 0 || num_predicates > t * (t - 1) / 2) {
    return Status::InvalidArgument("predicate count out of range");
  }
  Query query = MakeRelations(options, rng);
  // Chain edges first, then the cycle-closing edge, then remaining pairs:
  // matches the paper's progression chain -> cycle -> denser graphs.
  auto edges_or = GraphEdges(QueryGraphType::kClique, t);
  if (!edges_or.ok()) return edges_or.status();
  const std::vector<std::pair<int, int>>& edges = *edges_or;
  std::vector<std::pair<int, int>> ordered;
  for (int i = 0; i + 1 < t; ++i) ordered.emplace_back(i, i + 1);
  if (t >= 3) ordered.emplace_back(0, t - 1);
  for (const auto& e : edges) {
    bool present = false;
    for (const auto& o : ordered) {
      if ((o.first == e.first && o.second == e.second) ||
          (o.first == e.second && o.second == e.first)) {
        present = true;
        break;
      }
    }
    if (!present) ordered.push_back(e);
  }
  for (int p = 0; p < num_predicates; ++p) {
    QJO_RETURN_IF_ERROR(
        query.AddPredicate(ordered[p].first, ordered[p].second,
                           std::pow(10.0, -DrawNegLogSel(options, rng))));
  }
  return query;
}

}  // namespace qjo
