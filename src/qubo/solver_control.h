#ifndef QJO_QUBO_SOLVER_CONTROL_H_
#define QJO_QUBO_SOLVER_CONTROL_H_

#include <atomic>

namespace qjo {

class ThreadPool;
class TraceRecorder;
class MetricsRegistry;

/// Shared runtime-control surface of the stochastic QUBO solvers (SA,
/// tabu, SQA). Extracted from the formerly duplicated pool/stop fields
/// of SaOptions/TabuOptions/SqaOptions so the portfolio orchestrator and
/// the observability layer wire through one struct instead of three
/// copies. (The orchestration layers above
/// the solvers consolidate the same knobs, plus a wall-clock deadline,
/// into util/run_context.h's RunContext.)
///
/// Nothing here is owned: pool, stop, trace, and metrics must outlive
/// the solver call they are passed to.
struct SolverControl {
  /// Optional externally-owned pool the per-read/restart loop runs on
  /// (shared across solver calls, e.g. by OptimizeJoinOrderBatch or the
  /// portfolio). Null = serial; solvers never create threads of their
  /// own. Results are bit-identical for every pool size: each read draws
  /// from its own forked RNG stream and lands in its own result slot.
  ThreadPool* pool = nullptr;

  /// Optional cooperative stop token, checked between sweeps/iterations:
  /// once set, every read finishes its current unit and returns whatever
  /// state it reached (a truncated but valid solution). Null = run the
  /// full schedule. While the token stays unset the solver's output is
  /// bit-identical to a run without one; once it fires, results depend
  /// on how far each read got — callers that need determinism must bound
  /// the run by sweeps, not by cancellation.
  const std::atomic<bool>* stop = nullptr;

  /// Optional span recorder (null-sink default): when attached, the
  /// solver records a span per call and per read/restart. Never affects
  /// results.
  TraceRecorder* trace = nullptr;

  /// Optional metrics registry (null-sink default): when attached, the
  /// solver publishes its internal counters (sweeps, proposals, accepts,
  /// restarts, evictions, slice flips). Never affects results.
  MetricsRegistry* metrics = nullptr;
};

}  // namespace qjo

#endif  // QJO_QUBO_SOLVER_CONTROL_H_
