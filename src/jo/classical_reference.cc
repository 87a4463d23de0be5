#include "jo/classical_reference.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "jo/classical.h"
#include "util/check.h"

namespace qjo {

StatusOr<JoResult> OptimizeDpReference(const Query& query) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int t = query.num_relations();
  if (t < 2) return Status::InvalidArgument("need at least 2 relations");
  if (t > kMaxDpRelations) {
    return Status::ResourceExhausted("too many relations for the DP");
  }

  const uint64_t full = (uint64_t{1} << t) - 1;
  // dp[mask] = minimum sum of intermediate cardinalities to left-deep-join
  // exactly the relations in mask; parent[mask] = last (inner) relation.
  std::vector<double> dp(full + 1, kInf);
  std::vector<int> parent(full + 1, -1);
  for (int r = 0; r < t; ++r) dp[uint64_t{1} << r] = 0.0;

  for (uint64_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singleton
    const double mask_card = query.JoinCardinality(mask);
    for (int r = 0; r < t; ++r) {
      const uint64_t bit = uint64_t{1} << r;
      if (!(mask & bit)) continue;
      const uint64_t rest = mask ^ bit;
      if (dp[rest] == kInf) continue;
      // Appending r to any order of `rest` adds intermediate result
      // |rest ⋈ r| = JoinCardinality(mask) — order-independent.
      const double cost = dp[rest] + mask_card;
      if (cost < dp[mask]) {
        dp[mask] = cost;
        parent[mask] = r;
      }
    }
  }

  std::vector<int> order;
  uint64_t mask = full;
  while ((mask & (mask - 1)) != 0) {
    const int r = parent[mask];
    QJO_CHECK_GE(r, 0);
    order.push_back(r);
    mask ^= uint64_t{1} << r;
  }
  // The remaining singleton is the outer operand of the first join.
  for (int r = 0; r < t; ++r) {
    if (mask & (uint64_t{1} << r)) order.push_back(r);
  }
  std::reverse(order.begin(), order.end());
  return JoResult{LeftDeepOrder(std::move(order)), dp[full]};
}

}  // namespace qjo
