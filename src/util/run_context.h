#ifndef QJO_UTIL_RUN_CONTEXT_H_
#define QJO_UTIL_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cmath>

#include "util/status.h"

namespace qjo {

class ThreadPool;
class TraceRecorder;
class MetricsRegistry;

/// The execution context of one request: where it runs, until when,
/// whether it was cancelled, and where it reports. A request carries
/// exactly one, `QjoConfig::run`; every orchestration layer below the
/// pipeline (portfolio race, decomposition loop) receives it as an
/// argument and no options struct carries one of its own, so the
/// deadline and the cancel token the caller set are the only ones in
/// force.
///
/// Nothing here is owned: pool, stop, trace and metrics must outlive the
/// call they are passed to. The per-field contracts mirror SolverControl
/// (the equivalent surface of the inner QUBO solvers), plus the
/// wall-clock deadline the solvers themselves never take — they are
/// bounded by sweeps and the cooperative stop token only.
struct RunContext {
  /// Wall-clock budget in milliseconds. > 0: the layer winds down
  /// cooperatively on expiry (watchdog token or between-rounds checks)
  /// and answers with its incumbent; a budget too large to represent
  /// (1e20, +inf) never expires. 0: zero budget — orchestrators
  /// answer immediately with their cheap fallback. < 0: no deadline; the
  /// run must then be bounded another way (sweep budget, round budget),
  /// which each layer's validation enforces at entry. Wall-clock
  /// cut-offs are inherently scheduling-dependent, so deadline-bounded
  /// runs are *not* bit-reproducible; budget-bounded runs are.
  double deadline_ms = -1.0;

  /// Optional externally-owned pool for the layer's fan-out (strands,
  /// windows, queries) and the solvers' inner read loops (nested
  /// ParallelFor on one pool), shared across calls. Null = serial; no
  /// layer creates threads of its own, so a caller that wants N threads
  /// builds one ThreadPool(N). Results never depend on the pool size.
  ThreadPool* pool = nullptr;

  /// Optional externally-owned cooperative cancel token (e.g. a
  /// per-request token armed by the serving layer's DeadlineMonitor).
  /// Once it fires, the layer winds down exactly as on deadline expiry
  /// (the incumbent so far wins; the JO layer still guarantees a plan).
  /// While the token stays unset it never influences results, so
  /// budget-bounded runs remain bit-reproducible.
  const std::atomic<bool>* stop = nullptr;

  /// Observability sinks (null-sink default, not owned). Attaching them
  /// never changes a result: recorded runs are bit-identical to
  /// unrecorded ones.
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// Validates the layer-independent RunContext invariants. Each layer's
/// entry point composes this with its own budget checks (e.g. the
/// portfolio's round sizes, the decomposition's round budget) so every
/// misconfiguration is one InvalidArgument at entry instead of silent
/// misbehaviour downstream.
inline Status ValidateRunContext(const RunContext& run) {
  if (std::isnan(run.deadline_ms)) {
    return Status::InvalidArgument("deadline_ms must not be NaN");
  }
  return Status::Ok();
}

/// `now + ms` on the steady clock, saturating at time_point::max() for a
/// budget too far out to represent (1e20 ms, +inf, NaN) — a plain
/// duration_cast of such a double overflows the clock's integer ticks.
/// A non-positive budget yields `now`.
inline std::chrono::steady_clock::time_point DeadlineAfterMs(
    std::chrono::steady_clock::time_point now, double ms) {
  using Clock = std::chrono::steady_clock;
  const double ticks =
      std::chrono::duration<double, Clock::period>(
          std::chrono::duration<double, std::milli>(ms))
          .count();
  if (ticks <= 0.0) return now;
  const Clock::duration headroom = Clock::time_point::max() - now;
  // Compared as doubles first, so the cast below only ever sees a value
  // below 2^63; the integer compare then settles the rounding at the top.
  if (!(ticks < static_cast<double>(headroom.count()))) {
    return Clock::time_point::max();
  }
  const Clock::duration budget(static_cast<Clock::rep>(ticks));
  return budget >= headroom ? Clock::time_point::max() : now + budget;
}

}  // namespace qjo

#endif  // QJO_UTIL_RUN_CONTEXT_H_
