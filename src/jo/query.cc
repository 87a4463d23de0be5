#include "jo/query.h"

#include <sstream>

#include "util/check.h"

namespace qjo {

const char* QueryGraphTypeName(QueryGraphType type) {
  switch (type) {
    case QueryGraphType::kChain:
      return "chain";
    case QueryGraphType::kStar:
      return "star";
    case QueryGraphType::kCycle:
      return "cycle";
    case QueryGraphType::kClique:
      return "clique";
  }
  return "unknown";
}

int Query::AddRelation(std::string name, double cardinality) {
  QJO_CHECK_GE(cardinality, 1.0);
  relations_.push_back(Relation{std::move(name), cardinality});
  return static_cast<int>(relations_.size()) - 1;
}

Status Query::AddPredicate(int left, int right, double selectivity) {
  if (left < 0 || left >= num_relations() || right < 0 ||
      right >= num_relations()) {
    return Status::InvalidArgument("predicate references unknown relation");
  }
  if (left == right) {
    return Status::InvalidArgument("predicate endpoints must differ");
  }
  if (!(selectivity > 0.0) || selectivity > 1.0) {
    return Status::InvalidArgument("selectivity must be in (0, 1]");
  }
  predicates_.push_back(Predicate{left, right, selectivity});
  return Status::Ok();
}

double Query::SelectivityBetween(uint64_t joined_mask, int t) const {
  double sel = 1.0;
  const uint64_t t_bit = uint64_t{1} << t;
  for (const Predicate& p : predicates_) {
    const uint64_t l_bit = uint64_t{1} << p.left;
    const uint64_t r_bit = uint64_t{1} << p.right;
    const bool touches_t = (l_bit == t_bit) || (r_bit == t_bit);
    const bool other_in_joined =
        (l_bit == t_bit) ? (joined_mask & r_bit) : (joined_mask & l_bit);
    if (touches_t && other_in_joined) sel *= p.selectivity;
  }
  return sel;
}

double Query::JoinCardinality(uint64_t mask) const {
  double card = 1.0;
  for (int t = 0; t < num_relations(); ++t) {
    if (mask & (uint64_t{1} << t)) card *= relations_[t].cardinality;
  }
  for (const Predicate& p : predicates_) {
    if ((mask & (uint64_t{1} << p.left)) && (mask & (uint64_t{1} << p.right))) {
      card *= p.selectivity;
    }
  }
  return card;
}

std::string Query::ToString() const {
  std::ostringstream os;
  os << "Query(" << num_relations() << " relations: ";
  for (int t = 0; t < num_relations(); ++t) {
    if (t > 0) os << ", ";
    os << relations_[t].name << "|" << relations_[t].cardinality;
  }
  os << "; predicates: ";
  for (int p = 0; p < num_predicates(); ++p) {
    if (p > 0) os << ", ";
    os << relations_[predicates_[p].left].name << "~"
       << relations_[predicates_[p].right].name << "@"
       << predicates_[p].selectivity;
  }
  os << ")";
  return os.str();
}

}  // namespace qjo
