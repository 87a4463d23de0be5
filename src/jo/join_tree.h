#ifndef QJO_JO_JOIN_TREE_H_
#define QJO_JO_JOIN_TREE_H_

#include <string>
#include <vector>

#include "jo/query.h"
#include "util/statusor.h"

namespace qjo {

/// A left-deep join order: a permutation of relation indices where order[0]
/// is the outer operand of the first join and order[i] (i >= 1) is the
/// inner operand of join i-1. This is exactly the solution space of the
/// paper's formulation (left-deep trees, cross products allowed).
class LeftDeepOrder {
 public:
  LeftDeepOrder() = default;
  explicit LeftDeepOrder(std::vector<int> order) : order_(std::move(order)) {}

  /// Validates that `order` is a permutation of 0..T-1 for `query`.
  static StatusOr<LeftDeepOrder> Create(std::vector<int> order,
                                        const Query& query);

  const std::vector<int>& order() const { return order_; }
  int size() const { return static_cast<int>(order_.size()); }
  int operator[](int i) const { return order_[i]; }

  /// Renders "((R ⋈ S) ⋈ T)"-style text using relation names.
  std::string ToString(const Query& query) const;

  bool operator==(const LeftDeepOrder& other) const = default;

 private:
  std::vector<int> order_;
};

/// Cost-model evaluation of a left-deep order.
struct CostBreakdown {
  /// |s_1 ... s_i| for i = 2..n — the intermediate result cardinalities.
  std::vector<double> intermediate_cardinalities;
  /// C(s) = sum of intermediate cardinalities (C_out model, Eq. 2).
  double total_cost = 0.0;
};

/// Evaluates the C_out cost function of Eq. (2) on a left-deep order.
/// Requires `order` to cover all relations of `query`.
CostBreakdown EvaluateCost(const Query& query, const LeftDeepOrder& order);

/// Shorthand: just the scalar cost.
double Cost(const Query& query, const LeftDeepOrder& order);

/// Whether `cost` reaches `target`: at most target + 1e-12 * |target|.
/// Two equally cheap orders' Cost values may differ in their last bits, so
/// a cost that matches a known optimum counts as reaching it. A target of
/// -infinity ("no target") is never reached.
bool ReachesCost(double cost, double target);

/// Result of any (classical or quantum) join-ordering optimisation.
struct JoResult {
  LeftDeepOrder order;
  double cost = 0.0;
};

}  // namespace qjo

#endif  // QJO_JO_JOIN_TREE_H_
