#ifndef QJO_QUBO_SOLVER_CONTROL_H_
#define QJO_QUBO_SOLVER_CONTROL_H_

#include <stop_token>

#include "util/run_context.h"

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
/// Pool, trace and metrics are not owned and must outlive the solver call
/// they are passed to; `stop` shares ownership of its stop state.
struct SolverControl {
  /// Optional externally-owned pool the per-read/restart loop runs on
  /// (shared across solver calls, e.g. by OptimizeJoinOrderBatch or the
  /// portfolio). Null = serial; solvers never create threads of their
  /// own. Results are bit-identical for every pool size: each read draws
  /// from its own forked RNG stream and lands in its own result slot.
  ThreadPool* pool = nullptr;

  /// Optional cooperative stop token, checked between sweeps/iterations:
  /// once a stop is requested, every read finishes its current unit and
  /// returns whatever state it reached (a truncated but valid solution).
  /// A default-constructed token = run the full schedule. While no stop
  /// is requested the solver's output is bit-identical to a run without
  /// a token; once one is, results depend on how far each read got —
  /// callers that need determinism must bound the run by sweeps, not by
  /// cancellation.
  std::stop_token stop;

  /// Optional span recorder (null-sink default): when attached, the
  /// solver records a span per call and per read/restart. Never affects
  /// results.
  TraceRecorder* trace = nullptr;

  /// Optional metrics registry (null-sink default): when attached, the
  /// solver publishes its internal counters (sweeps, proposals, accepts,
  /// restarts, evictions, slice flips). Never affects results.
  MetricsRegistry* metrics = nullptr;
};

/// A solver call's controls under a caller's RunContext: the same pool,
/// stop token and sinks.
inline SolverControl ControlOf(const RunContext& run) {
  return {run.pool, run.stop, run.trace, run.metrics};
}

}  // namespace qjo

#endif  // QJO_QUBO_SOLVER_CONTROL_H_
