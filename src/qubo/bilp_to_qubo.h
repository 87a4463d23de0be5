#ifndef QJO_QUBO_BILP_TO_QUBO_H_
#define QJO_QUBO_BILP_TO_QUBO_H_

#include "lp/bilp.h"
#include "qubo/qubo.h"
#include "util/statusor.h"

namespace qjo {

/// Options for the Lucas-style BILP -> QUBO transformation (Eq. (10)).
struct QuboConversionOptions {
  /// Discretisation precision omega: constraint coefficients and right-hand
  /// sides are rounded to multiples of omega before squaring (Sec. 3.4,
  /// "we round the coefficients S_ji according to the discretisation
  /// precision"), and the penalty weight is A = C / omega^2 + epsilon
  /// with the paper's epsilon = 1.
  double omega = 1.0;

  /// Objective weight B of Eq. (10).
  double objective_weight = 1.0;

  /// If >= 0, overrides the derived penalty weight A (for ablations of the
  /// paper's weight rule).
  double penalty_weight_override = -1.0;
};

/// A QUBO instance produced from a BILP model, retaining what is needed to
/// map samples back (Sec. 3.5): the variable count split and the penalty
/// weight (to judge whether a sample violates any BILP constraint).
struct QuboEncoding {
  Qubo qubo;
  double penalty_weight = 0.0;    ///< A in Eq. (10)
  double objective_weight = 1.0;  ///< B in Eq. (10)
  int num_problem_variables = 0;  ///< prefix of x that encodes the JO model

  /// Minimum possible energy contribution of H_A (0 for a fully feasible
  /// assignment); a sample with energy penalty above ~A*omega^2/2 is
  /// guaranteed to violate some BILP constraint.
  double min_penalty = 0.0;
};

/// Converts a BILP model into QUBO form: H = A * sum_j (b_j - S_j.x)^2 +
/// B * c.x. The minimum of H corresponds to a feasible, optimal BILP
/// assignment whenever one exists.
StatusOr<QuboEncoding> ConvertBilpToQubo(const BilpModel& bilp,
                                         const QuboConversionOptions& options);

}  // namespace qjo

#endif  // QJO_QUBO_BILP_TO_QUBO_H_
