#ifndef QJO_QUBO_QUBO_CSR_H_
#define QJO_QUBO_QUBO_CSR_H_

#include <cstdint>
#include <tuple>
#include <vector>

namespace qjo {

class Qubo;
struct IsingModel;

/// Flat compressed-sparse-row view of a QUBO's problem graph: one
/// offsets/columns/weights triple instead of a vector-of-vectors of
/// pairs. Every coupling {i, j} appears twice (row i and row j), so a row
/// scan visits the full neighbourhood of a variable with unit-stride
/// loads. Row entries keep the order of the sorted (i < j, lexicographic)
/// coupling list, which pins the floating-point summation order of every
/// kernel that scans a row. Read-only after construction; one instance is
/// shared by all reads of a parallel solve.
///
/// This is the layout consumed by the SA/tabu/SQA hot loops,
/// `Qubo::Energy`, the Ising conversion, and the QAOA cost-spectrum
/// sweep (see DESIGN.md, "Kernel memory model").
struct QuboCsr {
  std::vector<double> linear;    ///< per-variable linear coefficient
  std::vector<int32_t> offsets;  ///< size n+1; row i spans [offsets[i], offsets[i+1])
  std::vector<int32_t> columns;  ///< neighbour variable per entry (2 per coupling)
  std::vector<double> weights;   ///< coupling weight per entry
  double offset = 0.0;           ///< constant energy offset

  int num_variables() const { return static_cast<int>(linear.size()); }
  int num_entries() const { return static_cast<int>(columns.size()); }
  int degree(int i) const { return offsets[i + 1] - offsets[i]; }

  /// Builds the CSR view of `qubo`. Prefer `Qubo::Csr()` (cached) unless
  /// a detached copy is required.
  static QuboCsr FromQubo(const Qubo& qubo);

  /// Builds from explicit terms: `terms` holds (i, j, w) with i < j; the
  /// given order fixes the per-row entry order.
  static QuboCsr FromTerms(int num_variables, const std::vector<double>& linear,
                           const std::vector<std::tuple<int, int, double>>& terms,
                           double offset);

  /// Energy f(x) of an assignment: offset + sum_i x_i (linear_i +
  /// sum_{j > i, x_j} w_ij), accumulated in row-major order.
  double Energy(const std::vector<int>& x) const;

  /// Energy change caused by flipping bit `i` of `x` — the O(degree)
  /// reference scan. The production solvers reproduce this value through
  /// persistent local fields instead.
  double FlipDelta(const std::vector<int>& x, int i) const;

  /// Persistent local fields h_i = linear_i + sum_j w_ij x_j for the
  /// state `x`. With these, a flip proposal costs O(1):
  /// delta_i = x_i ? -h_i : h_i.
  std::vector<double> LocalFields(const std::vector<int>& x) const;

  /// Flips x[i] and folds the change into the neighbours' local fields
  /// (O(degree)). `fields` must have been produced by LocalFields(x) and
  /// kept in sync across flips; fields[i] itself is untouched (no
  /// self-coupling), which is what flips the sign of delta_i.
  void ApplyFlip(int i, std::vector<int>& x, std::vector<double>& fields) const;
};

/// CSR view of an Ising model's coupling graph. Entries additionally
/// carry the index of the originating coupling in
/// `IsingModel::couplings`, so per-read perturbed weights (the SQA ICE
/// noise model) can be looked up through the shared structure without
/// rebuilding it per read. Per-row entry order follows the coupling-list
/// order, matching the adjacency-list construction it replaces.
struct IsingCsr {
  std::vector<double> h;         ///< per-spin field
  std::vector<int32_t> offsets;  ///< size n+1
  std::vector<int32_t> columns;  ///< neighbour spin per entry
  std::vector<int32_t> edge_ids; ///< index into IsingModel::couplings
  std::vector<double> weights;   ///< unperturbed J per entry
  double offset = 0.0;

  int num_spins() const { return static_cast<int>(h.size()); }
  int degree(int i) const { return offsets[i + 1] - offsets[i]; }

  static IsingCsr FromIsing(const IsingModel& ising);
};

}  // namespace qjo

#endif  // QJO_QUBO_QUBO_CSR_H_
