#include "jo/join_tree.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "util/check.h"

namespace qjo {

StatusOr<LeftDeepOrder> LeftDeepOrder::Create(std::vector<int> order,
                                              const Query& query) {
  if (static_cast<int>(order.size()) != query.num_relations()) {
    return Status::InvalidArgument("order must cover all relations");
  }
  std::vector<bool> seen(order.size(), false);
  for (int t : order) {
    if (t < 0 || t >= query.num_relations()) {
      return Status::InvalidArgument("order references unknown relation");
    }
    if (seen[t]) return Status::InvalidArgument("order repeats a relation");
    seen[t] = true;
  }
  return LeftDeepOrder(std::move(order));
}

std::string LeftDeepOrder::ToString(const Query& query) const {
  std::ostringstream os;
  for (int i = 0; i < size(); ++i) {
    if (i == 0) {
      os << query.relation(order_[0]).name;
    } else {
      os << " ⋈ " << query.relation(order_[i]).name;
    }
    if (i >= 1 && i + 1 < size()) {
      // Wrap the prefix for the next join.
      std::string prefix = os.str();
      os.str("");
      os << "(" << prefix << ")";
    }
  }
  return os.str();
}

CostBreakdown EvaluateCost(const Query& query, const LeftDeepOrder& order) {
  QJO_CHECK_EQ(order.size(), query.num_relations());
  CostBreakdown result;
  if (order.size() < 2) return result;
  uint64_t joined = uint64_t{1} << order[0];
  double card = query.relation(order[0]).cardinality;
  for (int i = 1; i < order.size(); ++i) {
    const int t = order[i];
    const double sel = query.SelectivityBetween(joined, t);
    card = card * query.relation(t).cardinality * sel;
    result.intermediate_cardinalities.push_back(card);
    result.total_cost += card;
    joined |= uint64_t{1} << t;
  }
  return result;
}

double Cost(const Query& query, const LeftDeepOrder& order) {
  return EvaluateCost(query, order).total_cost;
}

bool ReachesCost(double cost, double target) {
  constexpr double kRelativeTolerance = 1e-12;
  if (target == -std::numeric_limits<double>::infinity()) return false;
  return cost <= target + kRelativeTolerance * std::abs(target);
}

}  // namespace qjo
