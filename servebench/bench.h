// Shared types of the served-request benchmark (see README.md).
//
// The benchmark drives qjo::OptimizerService::Submit from outside the
// program: it generates every input from the workload seed, times each
// request on its own clocks, reads only the per-request fields and
// counters the service already exposes, and checks every returned plan.
#ifndef QJO_SERVEBENCH_BENCH_H_
#define QJO_SERVEBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "serve/optimizer_service.h"
#include "util/thread_pool.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One workload: the traffic shape, the service deployment, and a pure
/// function of (seed, index) that yields each request.
struct Workload {
  bool open_loop = false;
  int clients = 1;          ///< closed loop: concurrent clients
  double rate_rps = 0.0;    ///< open loop: constant arrival rate
  int pool_threads = 2;     ///< parallelism of the benchmark-owned pool
  /// Service options; pool, trace and metrics are filled at set-up.
  qjo::ServeOptions serve;
  /// Every request runs without a deadline, so each served report must be
  /// bit-identical to a direct OptimizeJoinOrder of the same request.
  bool deadline_free = false;
  /// Request `i` of a run.
  std::function<qjo::ServeRequest(uint64_t i)> request;
  /// plan_cost_ratio covers requests 0 .. plan_sample-1 only (0 = all), so
  /// a closed loop scores the same requests however many it completes:
  /// the ratio then repeats exactly for a seed.
  uint64_t plan_sample = 0;
  /// Highest percentile latency_tail_ms may report. A closed loop
  /// completes more requests on a faster build; without the cap that
  /// would move the tail to a higher percentile and read as a regression.
  double tail_percentile = 99.9;
  /// Templates WarmUp() pre-solves during set-up (zipf_open only).
  std::vector<qjo::ServeRequest> warmup;
};

/// Names of every workload, in the order `--all` runs them.
const std::vector<std::string>& WorkloadNames();
/// Builds workload `name` for `seed`; false when the name is unknown.
bool MakeWorkload(std::string_view name, uint64_t seed, Workload* workload);

/// Benchmark-side spans (request id attached), kept in memory and written
/// into the Chrome trace at the end of a traced run.
struct Span {
  std::string name;
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
  uint32_t tid = 0;  ///< benchmark thread: 0 = generator/replay, 1.. = clients
};

class SpanLog {
 public:
  void Add(std::string name, uint64_t request, Clock::time_point start,
           Clock::time_point end, uint32_t tid) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), request, start, end, tid});
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// A deployed service; the pool outlives the service that uses it.
struct Deployment {
  std::unique_ptr<qjo::ThreadPool> pool;
  std::unique_ptr<qjo::OptimizerService> service;
};

/// Constructs the pool and the service (and, when the workload has
/// templates, runs WarmUp). This is what `setup_s` times.
Deployment SetUp(const Workload& workload, qjo::TraceRecorder* trace,
                 qjo::MetricsRegistry* metrics);

/// One attempted request as observed from outside the service.
struct Sample {
  uint64_t index = 0;  ///< request id: position in the workload's sequence
  qjo::ServeRequest request;
  double lag_ms = 0.0;     ///< open loop: how late the generator sent it
  double submit_us = 0.0;  ///< time spent inside Submit()
  /// From due (open loop) or submit (closed loop) until the future
  /// resolved; infinite for a refused request.
  double latency_ms = std::numeric_limits<double>::infinity();
  bool refused = false;
  qjo::ServeResult result;  ///< meaningful when !refused
};

/// Everything one measured window produced.
struct RunResult {
  std::vector<Sample> samples;
  double window_s = 0.0;  ///< window start until the last resolution
  uint64_t pool_tasks = 0;
  qjo::OptimizerService::Stats stats;
  qjo::PlanCache::Stats plan_cache;
  qjo::QuboBuildCache::Stats build_cache;
};

/// Drives `workload` against `deployment` for `seconds`: closed loop with
/// its clients, or open loop on the fixed arrival schedule. Requests still
/// in flight at the end of the window are waited for. `spans` may be null.
RunResult Drive(const Workload& workload, Deployment& deployment,
                double seconds, SpanLog* spans);

// --- Statistics over raw samples (never the program's log2 histograms).

/// Nearest-rank percentile `p` in [0, 1] of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// The highest percentile of a fixed ladder (p50 ... p99.9), at most
/// `max_percentile`, that still has at least ten samples beyond it, with
/// its value and the sample count.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values, double max_percentile = 99.9);

// --- Answer checks.

/// Reference plan cost per query: OptimizeDp up to kMaxDpRelations,
/// OptimizeGreedy above. Memoized by encoding fingerprint.
class References {
 public:
  struct Entry {
    double cost = 0.0;
    bool exact = false;  ///< from OptimizeDp (the true optimum)
  };
  const Entry& Get(const qjo::Query& query);

 private:
  std::unordered_map<std::string, Entry> entries_;
};

struct CheckSummary {
  uint64_t attempted = 0;
  uint64_t answered = 0;   ///< status ok and a checked plan returned
  uint64_t failed = 0;     ///< refused or failed status
  uint64_t no_plan = 0;    ///< status ok but no valid join order found
  uint64_t degraded = 0;
  uint64_t mismatches = 0;
  /// Geometric mean over the distinct plan keys answered below the plan
  /// sample.
  double plan_cost_ratio = 1.0;
  uint64_t plan_scored = 0;
  std::vector<std::string> errors;    ///< first few mismatch descriptions
  std::vector<std::string> failures;  ///< first few failed requests
};

/// Checks every answered sample: the order is a permutation of the
/// query's relations, its C_out recomputed with qjo::Cost equals the
/// reported best_cost within 1e-9 relative, and it is not below the DP
/// optimum where DP applies.
CheckSummary CheckAnswers(const std::vector<Sample>& samples,
                          uint64_t plan_sample, References& references);

/// Field-by-field bit identity of everything in a report that the
/// determinism contract covers (timings excluded). Empty when identical,
/// else the first differing field.
std::string ReportDiff(const qjo::QjoReport& a, const qjo::QjoReport& b);

}  // namespace servebench

#endif  // QJO_SERVEBENCH_BENCH_H_
