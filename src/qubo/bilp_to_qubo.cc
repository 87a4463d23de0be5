#include "qubo/bilp_to_qubo.h"

#include <cmath>
#include <vector>

namespace qjo {
namespace {

double RoundToStep(double value, double step) {
  return std::round(value / step) * step;
}

}  // namespace

StatusOr<QuboEncoding> ConvertBilpToQubo(
    const BilpModel& bilp, const QuboConversionOptions& options) {
  if (!(options.omega > 0.0)) {
    return Status::InvalidArgument("omega must be positive");
  }
  if (!(options.objective_weight > 0.0)) {
    return Status::InvalidArgument("objective weight must be positive");
  }

  QuboEncoding out;
  out.num_problem_variables = bilp.num_problem_variables;
  out.objective_weight = options.objective_weight;

  // Penalty weight rule of Sec. 3.4: the smallest constraint violation a
  // discretised model can exhibit is omega, contributing A * omega^2; C is
  // the total objective weight that could be "saved" by cheating, and
  // epsilon is the "small value" added on top of C / omega^2.
  constexpr double kEpsilon = 1.0;
  double total_objective = 0.0;
  for (const auto& [var, coeff] : bilp.objective) {
    (void)var;
    total_objective += std::abs(coeff);
  }
  out.penalty_weight =
      options.penalty_weight_override >= 0.0
          ? options.penalty_weight_override
          : options.objective_weight * total_objective /
                    (options.omega * options.omega) +
                kEpsilon;

  Qubo qubo(bilp.num_variables());
  const double a = out.penalty_weight;

  // H_A: A * sum_j (b_j - sum_i S_ji x_i)^2, with S and b rounded to the
  // discretisation grid so exact equality is achievable (Sec. 3.4).
  for (const BilpConstraint& c : bilp.constraints) {
    std::vector<std::pair<int, double>> terms;
    terms.reserve(c.terms.size());
    for (const auto& [var, coeff] : c.terms) {
      const double rounded = RoundToStep(coeff, options.omega);
      if (rounded != 0.0) terms.emplace_back(var, rounded);
    }
    const double b = RoundToStep(c.rhs, options.omega);
    qubo.AddOffset(a * b * b);
    for (size_t i = 0; i < terms.size(); ++i) {
      const auto& [vi, si] = terms[i];
      // Diagonal: S_i^2 x_i^2 = S_i^2 x_i; cross with -2 b S_i x_i.
      qubo.AddLinear(vi, a * (si * si - 2.0 * b * si));
      for (size_t k = i + 1; k < terms.size(); ++k) {
        const auto& [vk, sk] = terms[k];
        qubo.AddQuadratic(vi, vk, a * 2.0 * si * sk);
      }
    }
  }

  // H_B: B * c.x.
  for (const auto& [var, coeff] : bilp.objective) {
    qubo.AddLinear(var, options.objective_weight * coeff);
  }

  out.qubo = std::move(qubo);
  return out;
}

}  // namespace qjo
