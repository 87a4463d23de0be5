#ifndef QJO_CORE_QUANTUM_OPTIMIZER_H_
#define QJO_CORE_QUANTUM_OPTIMIZER_H_

#include <atomic>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/portfolio.h"
#include "core/postprocess.h"
#include "core/qubo_cache.h"
#include "embedding/embedded_qubo.h"
#include "embedding/minor_embedding.h"
#include "jo/join_tree.h"
#include "jo/query.h"
#include "lp/jo_encoder.h"
#include "obs/obs.h"
#include "qubo/bilp_to_qubo.h"
#include "sim/device.h"
#include "sim/sqa.h"
#include "topology/coupling_graph.h"
#include "transpiler/transpiler.h"
#include "util/statusor.h"

namespace qjo {

class ThreadPool;

/// Execution backends of the quantum join-ordering pipeline.
enum class QjoBackend {
  /// Exact QUBO minimisation (Gray-code brute force) — the "perfect QPU".
  kExact,
  /// Classical simulated annealing on the logical QUBO.
  kSimulatedAnnealing,
  /// Gate-based flow: QAOA p=1, angles tuned classically, sampled through
  /// the depolarising noise model of a transpiled circuit (Table 2 setup).
  kQaoaSimulator,
  /// Annealer flow: minor-embed onto a Pegasus graph and run SQA with ICE
  /// noise (Table 3 setup).
  kQuantumAnnealerSim,
  /// Deadline-aware portfolio: races exact, SA, tabu, SQA and QAOA strands
  /// over one pool and returns the best valid plan found within the
  /// budget, degrading to the classical DP/greedy plan when nothing valid
  /// was sampled (a valid join tree is always returned).
  kPortfolio,
};

const char* QjoBackendName(QjoBackend backend);

/// Configuration of the end-to-end pipeline. Defaults reproduce the
/// paper's experimental setup at small scale.
struct QjoConfig {
  QjoBackend backend = QjoBackend::kExact;

  /// Problem encoding (Sec. 3): threshold values (empty = geometric
  /// defaults) and discretisation precision.
  std::vector<double> thresholds;
  int num_thresholds = 1;  ///< used when `thresholds` is empty
  double omega = 1.0;

  uint64_t seed = 7;

  /// The request's one execution context (util/run_context.h): the
  /// pipeline hands it unchanged to the portfolio race, which runs the
  /// decomposition strand under it too:
  ///
  ///  * `run.pool` — the one source of threads for the per-read loops of
  ///    the stochastic backends (SA reads, SQA anneals), the QAOA
  ///    amplitude loops and the portfolio fan-out (not owned; shared
  ///    across pipeline runs and by OptimizeJoinOrderBatch). Null =
  ///    serial: no layer creates threads of its own, so a caller that
  ///    wants N threads builds one ThreadPool(N). Reports are
  ///    bit-identical for every pool size.
  ///  * `run.deadline_ms` — the portfolio race's wall budget (see
  ///    PortfolioOptions); ignored by the other backends.
  ///  * `run.stop` — cooperative cancel token (e.g. flipped by the
  ///    serving layer's DeadlineMonitor), plumbed into the stochastic
  ///    solvers' SolverControl::stop (SA, and the annealer's SQA, whose
  ///    `sqa.control` template the pipeline overwrites) and the portfolio
  ///    race. The exact and QAOA backends are not cooperative and run to
  ///    completion.
  ///    While the token stays unset, results are bit-identical to a run
  ///    without one.
  ///  * `run.trace`/`run.metrics` — when attached, every pipeline stage
  ///    plus the nested solver spans record into the trace; solver
  ///    counters and pipeline gauges land in the registry. Attaching
  ///    sinks never changes a result. Lifetime must cover the
  ///    optimisation call(s); one recorder/registry may be shared across
  ///    a whole batch.
  RunContext run;

  // --- Gate-based options. ---
  int shots = 1024;
  int qaoa_iterations = 20;
  /// When > 1, refine the analytic QAOA angles over a qaoa_grid x
  /// qaoa_grid (gamma, beta) grid spanning [0.5, 1.5] x the analytic
  /// values, evaluated in one batched sweep (QaoaSimulator::
  /// EvaluateBatch). 0 or 1 = analytic angles only (paper setup).
  int qaoa_grid = 0;
  DeviceProperties device;        ///< defaults to IBM Q Auckland
  TranspileOptions transpile;     ///< gate set defaults to IBM
  /// Topology for transpilation; empty = IBM Falcon 27.
  std::optional<CouplingGraph> gate_topology;
  /// Disable the noise model (ideal sampling).
  bool noiseless = false;

  // --- Annealer options. ---
  /// SQA template; its `kernel` and `control` are overwritten by the
  /// pipeline (kBatched, and `run`'s pool/stop/sinks). Every stochastic
  /// solve the pipeline issues runs the batched kernel (tabu its
  /// incremental one); the SIMD tier is picked at runtime (QJO_SIMD to
  /// override).
  SqaOptions sqa;
  EmbeddingOptions embedding;
  EmbedQuboOptions embed_qubo;
  /// Hardware graph for embedding; empty = Pegasus P6 (720 qubits; use
  /// MakePegasus(16) for the full Advantage scale).
  std::optional<CouplingGraph> annealer_topology;

  // --- Portfolio options (kPortfolio backend). ---
  /// Strand selection, budgets and adaptive strand selection
  /// (`portfolio.adaptive`, core/strand_select.h; the serving layer
  /// persists its record store through ServeOptions::
  /// strand_records_file). The race runs under `run`.
  PortfolioOptions portfolio;
  /// Optional memoizing QUBO-build cache shared across runs (not owned),
  /// also handed to the decomposition strand (overwriting
  /// `portfolio.decomp.cache`). Null = every run encodes from scratch;
  /// OptimizeJoinOrderBatch supplies a batch-wide cache automatically.
  QuboBuildCache* qubo_cache = nullptr;

  QjoConfig();
};

/// Problem-size diagnostics of the JO -> MILP -> BILP -> QUBO encoding
/// chain (filled for every backend).
struct EncodingDiag {
  int milp_variables = 0;
  int bilp_variables = 0;  ///< logical qubits
  int qubo_quadratic_terms = 0;
};

/// Gate-based diagnostics (QAOA backend; defaults otherwise).
struct GateDiag {
  int circuit_depth = 0;
  int two_qubit_gates = 0;
  double fidelity = 1.0;
  double gamma = 0.0;
  double beta = 0.0;
  QpuTimings timings;
};

/// Annealer diagnostics (kQuantumAnnealerSim backend; defaults
/// otherwise).
struct AnnealDiag {
  int physical_qubits = 0;
  int max_chain_length = 0;
  double chain_strength = 0.0;
  double mean_chain_break_fraction = 0.0;
};

/// Everything the pipeline learned about one optimisation run.
struct QjoReport {
  /// Best valid join order found by the backend, if any.
  bool found_valid = false;
  LeftDeepOrder best_order;
  double best_cost = 0.0;

  /// Ground truth (classical DP oracle) for comparison.
  LeftDeepOrder optimal_order;
  double optimal_cost = 0.0;

  SampleSetStats stats;

  /// Diagnostics, grouped by pipeline layer.
  EncodingDiag encoding;
  GateDiag gate;
  AnnealDiag anneal;

  /// Per-stage wall times of this run. Always filled (the per-stage
  /// clock reads cost nanoseconds); independent of whether a
  /// TraceRecorder was attached. Stage times nest and can overlap, so
  /// they are not disjoint fractions of total_ms.
  StageTimings stage_timings;

  /// Per-strand race statistics (kPortfolio backend only; `winner` is
  /// empty otherwise).
  PortfolioReport portfolio;

  /// SIMD tier the stochastic kernels ran on ("scalar", "sse2", "avx2",
  /// "avx512").
  std::string simd_isa;

  std::string Summary() const;
};

/// Runs the full pipeline of Sec. 3 on `query` and returns the report.
/// Fails when the problem exceeds the backend's capabilities (e.g. too
/// many logical qubits for the QAOA simulator, or no embedding found).
StatusOr<QjoReport> OptimizeJoinOrder(const Query& query,
                                      const QjoConfig& config);

/// Batch front door: optimises every query of `queries` under the same
/// `config`, sharing the caller's `config.run.pool` across queries *and*
/// their inner read loops (whichever level has work); null = serial.
/// Slot i holds exactly what OptimizeJoinOrder(queries[i], config)
/// returns — per-query failures land in their slot instead of failing
/// the batch, and results are bit-identical to one-by-one serial runs.
std::vector<StatusOr<QjoReport>> OptimizeJoinOrderBatch(
    std::span<const Query> queries, const QjoConfig& config);

}  // namespace qjo

#endif  // QJO_CORE_QUANTUM_OPTIMIZER_H_
