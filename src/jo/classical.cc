#include "jo/classical.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "util/check.h"

namespace qjo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

StatusOr<JoResult> OptimizeExhaustive(const Query& query, int max_relations) {
  const int t = query.num_relations();
  if (t < 2) return Status::InvalidArgument("need at least 2 relations");
  if (t > max_relations) {
    return Status::ResourceExhausted("too many relations for exhaustive");
  }
  std::vector<int> perm(t);
  std::iota(perm.begin(), perm.end(), 0);
  double best_cost = kInf;
  std::vector<int> best = perm;
  do {
    const double cost = Cost(query, LeftDeepOrder(perm));
    if (cost < best_cost) {
      best_cost = cost;
      best = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return JoResult{LeftDeepOrder(std::move(best)), best_cost};
}

CardinalityTable::CardinalityTable(const Query& query) {
  const int t = query.num_relations();
  QJO_CHECK_GE(t, 1);
  QJO_CHECK_LE(t, kMaxDpRelations);
  half_ = uint64_t{1} << (t - 1);
  last_card_ = query.relation(t - 1).cardinality;
  lower_.resize(half_);
  lower_[0] = 1.0;
  for (int hi = 0; hi < t - 1; ++hi) {
    const uint64_t bit = uint64_t{1} << hi;
    const double card = query.relation(hi).cardinality;
    for (uint64_t m = 0; m < bit; ++m) lower_[bit | m] = lower_[m] * card;
  }
  constexpr uint64_t kLowBits = kBlock - 1;
  for (const Predicate& p : query.predicates()) {
    const uint64_t endpoints =
        (uint64_t{1} << p.left) | (uint64_t{1} << p.right);
    const uint64_t low = endpoints & kLowBits;
    int row = -1;
    if (low != 0) {
      row = static_cast<int>(factor_rows_.size());
      for (uint64_t j = 0; j < kBlock; ++j) {
        factor_rows_.push_back((j & low) == low ? p.selectivity : 1.0);
      }
    }
    predicates_.push_back({endpoints & ~kLowBits, p.selectivity, row});
  }
}

void CardinalityTable::FillBlock(uint64_t first, double* out) const {
  const int count =
      static_cast<int>(std::min<uint64_t>(kBlock, num_masks() - first));
  uint64_t m = first;
  int i = 0;
  for (; i < count && m < half_; ++i, ++m) out[i] = lower_[m];
  for (; i < count; ++i, ++m) out[i] = lower_[m - half_] * last_card_;
  for (const PredicateFactor& p : predicates_) {
    if ((first & p.high_endpoints) != p.high_endpoints) continue;
    if (p.row < 0) {
      for (int j = 0; j < count; ++j) out[j] *= p.selectivity;
    } else {
      const double* factors = &factor_rows_[p.row];
      for (int j = 0; j < count; ++j) out[j] *= factors[j];
    }
  }
}

StatusOr<JoResult> OptimizeDp(const Query& query) {
  // parent stores a relation index or kNoParent.
  constexpr uint8_t kNoParent = std::numeric_limits<uint8_t>::max();
  static_assert(kMaxDpRelations <= kNoParent);
  constexpr double kTableBytesPerMask =
      sizeof(double) + sizeof(uint8_t) + sizeof(double) / 2.0;

  const int t = query.num_relations();
  if (t < 2) return Status::InvalidArgument("need at least 2 relations");
  if (t > kMaxDpRelations) {
    // Past the cap the tables silently become hundreds of megabytes
    // (t = 25 would allocate ~416 MiB), so refuse with the estimate.
    const double bytes = kTableBytesPerMask * std::pow(2.0, t);
    std::ostringstream os;
    os << "DP tables for " << t << " relations would need ~"
       << static_cast<uint64_t>(bytes / (1024.0 * 1024.0)) << " MiB ("
       << sizeof(double) + sizeof(uint8_t) << " bytes x 2^" << t
       << " masks + " << sizeof(double) << " bytes x 2^" << t - 1
       << " lower-half masks); the cap is " << kMaxDpRelations
       << " relations";
    return Status::ResourceExhausted(os.str());
  }

  const CardinalityTable cardinality(query);
  const uint64_t masks = cardinality.num_masks();
  // dp[mask] = minimum sum of intermediate cardinalities to left-deep-join
  // exactly the relations in mask; parent[mask] = last (inner) relation.
  // Every entry is written once, in ascending mask order, before any
  // larger mask reads it.
  auto dp = std::make_unique_for_overwrite<double[]>(masks);
  auto parent = std::make_unique_for_overwrite<uint8_t[]>(masks);
  // Masks go in blocks of kBlock. Appending r to any order of mask \ {r}
  // adds the intermediate result |mask| = card[i], the same for every r;
  // candidates r are tried in ascending order and the first strictly
  // cheapest one wins.
  constexpr int kBlock = CardinalityTable::kBlock;
  double card[kBlock];
  double high_best[kBlock];
  uint8_t high_last[kBlock];
  for (uint64_t first = 0; first < masks; first += kBlock) {
    const int count =
        static_cast<int>(std::min<uint64_t>(kBlock, masks - first));
    cardinality.FillBlock(first, card);
    // A relation r at or above log2(kBlock) is in every mask of the block
    // or in none, and the rest masks mask ^ 2^r form an earlier block at
    // the same offsets: one pass per r, with no dependency between masks.
    std::fill_n(high_best, count, kInf);
    std::fill_n(high_last, count, kNoParent);
    for (uint64_t bits = first; bits != 0; bits &= bits - 1) {
      const int r = std::countr_zero(bits);
      const double* rest = &dp[first ^ (uint64_t{1} << r)];
      for (int i = 0; i < count; ++i) {
        const double cost = rest[i] + card[i];
        const bool better = (rest[i] != kInf) & (cost < high_best[i]);
        high_best[i] = better ? cost : high_best[i];
        high_last[i] = better ? static_cast<uint8_t>(r) : high_last[i];
      }
    }
    // The relations below log2(kBlock) come first in ascending order; their
    // rest masks lie in this block, so they go mask by mask. A high
    // candidate then wins only when strictly cheaper.
    for (int i = 0; i < count; ++i) {
      const uint64_t mask = first + static_cast<uint64_t>(i);
      double best = kInf;
      uint8_t last = kNoParent;
      if ((mask & (mask - 1)) == 0) {
        if (mask != 0) best = 0.0;  // singleton
      } else {
        for (uint64_t bits = static_cast<uint64_t>(i); bits != 0;
             bits &= bits - 1) {
          const int r = std::countr_zero(bits);
          const double rest = dp[mask ^ (uint64_t{1} << r)];
          if (rest == kInf) continue;
          const double cost = rest + card[i];
          const bool better = cost < best;
          best = better ? cost : best;
          last = better ? static_cast<uint8_t>(r) : last;
        }
        if (high_best[i] < best) {
          best = high_best[i];
          last = high_last[i];
        }
      }
      dp[mask] = best;
      parent[mask] = last;
    }
  }

  std::vector<int> order;
  uint64_t mask = masks - 1;
  while ((mask & (mask - 1)) != 0) {
    const uint8_t r = parent[mask];
    QJO_CHECK_NE(r, kNoParent);
    order.push_back(r);
    mask ^= uint64_t{1} << r;
  }
  // The remaining singleton is the outer operand of the first join.
  order.push_back(std::countr_zero(mask));
  std::reverse(order.begin(), order.end());
  return JoResult{LeftDeepOrder(std::move(order)), dp[masks - 1]};
}

StatusOr<JoResult> OptimizeGreedy(const Query& query) {
  const int t = query.num_relations();
  if (t < 2) return Status::InvalidArgument("need at least 2 relations");

  // Predicate adjacency masks: adjacency[r] has bit s set iff some
  // predicate connects r and s. Used to prefer predicate-connected joins
  // over cross products on cardinality ties.
  std::vector<uint64_t> adjacency(t, 0);
  for (const Predicate& p : query.predicates()) {
    adjacency[p.left] |= uint64_t{1} << p.right;
    adjacency[p.right] |= uint64_t{1} << p.left;
  }

  // Pick the cheapest first join. JoinCardinality depends only on the
  // unordered pair, so scanning b > a covers every candidate once.
  double best_first = kInf;
  bool best_connected = false;
  int first_outer = 0, first_inner = 1;
  for (int a = 0; a < t; ++a) {
    for (int b = a + 1; b < t; ++b) {
      const uint64_t mask = (uint64_t{1} << a) | (uint64_t{1} << b);
      const double card = query.JoinCardinality(mask);
      const bool connected = (adjacency[a] >> b) & 1;
      if (card < best_first || (card == best_first && connected &&
                                !best_connected)) {
        best_first = card;
        best_connected = connected;
        first_outer = a;
        first_inner = b;
      }
    }
  }
  std::vector<int> order = {first_outer, first_inner};
  uint64_t joined = (uint64_t{1} << first_outer) | (uint64_t{1} << first_inner);
  double total = best_first;
  while (static_cast<int>(order.size()) < t) {
    double best_card = kInf;
    bool best_rel_connected = false;
    int best_rel = -1;
    for (int r = 0; r < t; ++r) {
      if (joined & (uint64_t{1} << r)) continue;
      const double card = query.JoinCardinality(joined | (uint64_t{1} << r));
      const bool connected = (adjacency[r] & joined) != 0;
      if (card < best_card ||
          (card == best_card && connected && !best_rel_connected)) {
        best_card = card;
        best_rel_connected = connected;
        best_rel = r;
      }
    }
    QJO_CHECK_GE(best_rel, 0);
    order.push_back(best_rel);
    joined |= uint64_t{1} << best_rel;
    total += best_card;
  }
  return JoResult{LeftDeepOrder(std::move(order)), total};
}

StatusOr<JoResult> OptimizeClassical(const Query& query) {
  return query.num_relations() > kMaxDpRelations ? OptimizeGreedy(query)
                                                 : OptimizeDp(query);
}

StatusOr<JoResult> OptimizeIterativeImprovement(const Query& query, Rng& rng,
                                                int restarts) {
  const int t = query.num_relations();
  if (t < 2) return Status::InvalidArgument("need at least 2 relations");
  if (restarts < 1) return Status::InvalidArgument("restarts must be >= 1");

  double best_cost = kInf;
  std::vector<int> best;
  for (int round = 0; round < restarts; ++round) {
    std::vector<int> order(t);
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    double cost = Cost(query, LeftDeepOrder(order));
    bool improved = true;
    while (improved) {
      improved = false;
      for (int i = 0; i < t && !improved; ++i) {
        for (int j = i + 1; j < t && !improved; ++j) {
          std::swap(order[i], order[j]);
          const double new_cost = Cost(query, LeftDeepOrder(order));
          if (new_cost + 1e-12 < cost) {
            cost = new_cost;
            improved = true;
          } else {
            std::swap(order[i], order[j]);
          }
        }
      }
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = order;
    }
  }
  return JoResult{LeftDeepOrder(std::move(best)), best_cost};
}

}  // namespace qjo
