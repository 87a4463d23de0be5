#ifndef QJO_JO_CLASSICAL_REFERENCE_H_
#define QJO_JO_CLASSICAL_REFERENCE_H_

#include "jo/join_tree.h"
#include "jo/query.h"
#include "util/statusor.h"

namespace qjo {

/// Test and benchmark oracle for OptimizeDp (jo/classical.h): the subset
/// DP production ran before it built its cardinality tables, kept with its
/// arithmetic unchanged. Every mask calls Query::JoinCardinality from
/// scratch and the inner loop visits all T relations. Only test binaries
/// and benchmarks link qjo_jo_reference, so production code that includes
/// this header fails to link.
///
/// Returns the same order and a bit-identical cost as OptimizeDp, and the
/// same errors (InvalidArgument below 2 relations, ResourceExhausted past
/// kMaxDpRelations).
StatusOr<JoResult> OptimizeDpReference(const Query& query);

}  // namespace qjo

#endif  // QJO_JO_CLASSICAL_REFERENCE_H_
