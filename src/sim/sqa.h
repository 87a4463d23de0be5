#ifndef QJO_SIM_SQA_H_
#define QJO_SIM_SQA_H_

#include <atomic>
#include <vector>

#include "qubo/ising.h"
#include "qubo/solvers.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/statusor.h"

namespace qjo {

/// Simulated quantum annealing (path-integral / Trotterised quantum Monte
/// Carlo) — our stand-in for the D-Wave Advantage QPU. The transverse
/// field Gamma is annealed to zero while the replica coupling grows; each
/// read returns the best Trotter slice. The ICE term models D-Wave's
/// integrated control errors: every read perturbs h and J with Gaussian
/// noise proportional to the largest coefficient, which is the dominant
/// cause of the paper's quality collapse for growing problems (Table 3).
struct SqaOptions {
  int num_reads = 100;
  /// Annealing time per read; mapped to Monte-Carlo sweeps via
  /// sweeps_per_us. The paper sweeps 20/60/100 us.
  double annealing_time_us = 20.0;
  double sweeps_per_us = 5.0;
  int trotter_slices = 12;
  /// Thermal temperature relative to the largest |coefficient|.
  double relative_temperature = 0.03;
  /// Initial transverse field relative to the largest |coefficient|.
  double relative_initial_field = 1.5;
  /// ICE noise: sigma of the Gaussian perturbation on every h_i and J_ij,
  /// relative to the largest |coefficient|. 0 disables noise.
  double ice_sigma = 0.0;
  /// Shared runtime control (pool/stop/observability). Every
  /// read — its ICE perturbation, spin init and Metropolis sweeps —
  /// draws from its own forked RNG stream and writes its own result
  /// slot, so samples are bit-identical regardless of thread count. The
  /// stop token is checked between Monte Carlo sweeps: a cancelled read
  /// stops annealing where it is and still returns its best Trotter
  /// slice.
  SolverControl control;
  /// Inner-loop implementation: SoA replica groups with SIMD neighbour
  /// updates (kBatched, default — bit-identical to kIncremental),
  /// persistent per-slice local fields (kIncremental), or the O(degree)
  /// scan per proposal (kReference, for parity tests and benches).
  SolverKernel kernel = SolverKernel::kBatched;
};

/// One annealing read: the sampled spin configuration (+1/-1 per site)
/// and its energy under the *unperturbed* Hamiltonian.
struct SqaSample {
  std::vector<int> spins;
  double energy = 0.0;
};

/// Runs `options.num_reads` independent anneals of `ising`, in parallel
/// on `options.control.pool` (serial when null). Fails on an empty model
/// or non-positive schedule parameters.
StatusOr<std::vector<SqaSample>> RunSqa(const IsingModel& ising,
                                        const SqaOptions& options, Rng& rng);

}  // namespace qjo

#endif  // QJO_SIM_SQA_H_
