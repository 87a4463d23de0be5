#ifndef QJO_SERVE_OPTIMIZER_SERVICE_H_
#define QJO_SERVE_OPTIMIZER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/quantum_optimizer.h"
#include "core/strand_select.h"
#include "qubo/deadline_monitor.h"
#include "serve/plan_cache.h"
#include "serve/token_bucket.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace qjo {

/// Configuration of an OptimizerService instance.
struct ServeOptions {
  /// Dispatcher workers draining the admission queue. Each worker runs one
  /// request at a time end-to-end; the solve itself fans out over the
  /// shared `pool` (nested ParallelFor serialises safely), so workers
  /// bound *concurrent requests*, not threads.
  int workers = 2;
  /// Total queued (not yet dispatched) requests across all tenants; a
  /// submit past this cap is rejected with ResourceExhausted and a
  /// retry-after hint instead of queueing unboundedly.
  size_t queue_capacity = 256;
  /// Per-tenant cap on queued + running quota units; 0 = unlimited. A
  /// tenant at its quota is rejected (ResourceExhausted) even when the
  /// global queue has room — one chatty tenant cannot starve the others,
  /// and round-robin dispatch across tenants prevents head-of-line
  /// blocking behind a tenant with a deep backlog. Coalesced followers
  /// count `follower_quota_weight` units instead of 1.
  size_t per_tenant_inflight = 0;
  /// Deadline applied to requests that do not carry their own; <= 0 = no
  /// default deadline.
  double default_deadline_ms = -1.0;
  /// When a request reaches a worker with less than this much of its
  /// deadline remaining, the full pipeline is skipped in favour of the
  /// classical DP/greedy fallback (graceful degradation: an approximate
  /// plan beats a deadline miss).
  double degrade_margin_ms = 5.0;

  /// Single-flight request coalescing: a submit whose plan key matches an
  /// in-flight solve attaches to that leader instead of queueing a second
  /// solve, and is answered with a copy of the leader's report the moment
  /// it lands. Duplicate work on the hot path becomes structurally
  /// impossible: any plan key has at most one solve running at a time.
  bool enable_coalescing = true;
  /// Quota units a coalesced follower costs its tenant (a follower holds
  /// no worker and no queue slot, so charging it like a full request
  /// would make duplicate-heavy tenants look busier than they are).
  /// Also the token-bucket cost of a follower admission.
  double follower_quota_weight = 0.25;

  /// One QuboBuildCache shared by every request of this service: a plan
  /// cache miss still reuses the pre-built CSR from any prior request
  /// with the same encoding fingerprint (and the decomposition strand's
  /// window re-encodes are shared across requests too). Cached entries
  /// are deterministic, so sharing never changes a result. Disable only
  /// to measure the rebuild cost; a request carrying its own
  /// `config.qubo_cache` keeps it (caller wins).
  bool share_build_cache = true;
  size_t build_cache_entries = 1024;

  /// Per-tenant token-bucket rate limit in admissions/sec; <= 0 = off.
  /// Layered *before* the inflight quotas: the quota bounds concurrency,
  /// the bucket bounds request rate (a tenant hammering cheap cache hits
  /// never trips the quota but still monopolises admission). When the
  /// bucket rejects, the retry-after hint is the bucket's refill time —
  /// not the queue-depth estimate.
  double tenant_rate_per_sec = 0.0;
  /// Bucket capacity in tokens; <= 0 = max(1, tenant_rate_per_sec).
  double tenant_burst = 0.0;

  /// Ceiling on every retry-after hint this service emits (queue-depth
  /// and bucket-refill alike). Keeps a pathological solve-time EWMA from
  /// telling clients to go away for hours.
  double max_retry_after_ms = 30000.0;

  /// Plan/result cache over (encoding fingerprint, result-determining
  /// config) — see OptimizerService::PlanKey.
  bool enable_plan_cache = true;
  PlanCacheOptions cache;

  /// Plan-cache warm-up persistence: when non-empty, the live key set is
  /// written here by Drain() and at shutdown, and loaded at construction
  /// into warmup_keys() for a WarmUp(workload) call to replay. Empty =
  /// no persistence.
  std::string warmup_file;

  /// Adaptive strand selection across requests (core/strand_select.h):
  /// when on, every portfolio-backend request runs with the
  /// service-owned RunRecordStore attached as
  /// `config.portfolio.adaptive.records` and `adaptive.enabled` set, so
  /// the per-bucket bandit learns from each race and throttles strands
  /// that never win a request's problem shape. A request carrying its
  /// own `portfolio.adaptive.records` keeps it (caller wins). Note the plan
  /// cache still serves hits recorded under an older records state —
  /// stale-but-valid by the cache's never-changing-plan-validity
  /// argument; set `bypass_cache` per request to force re-selection.
  bool adaptive = false;
  /// Strand-records persistence (versioned text, next to `warmup_file`):
  /// when non-empty, the store is loaded at construction (a missing file
  /// is a cold start, not an error) and written by Drain() and at
  /// shutdown, so strand knowledge survives restarts. Setting only this
  /// — with `adaptive` off — records outcomes without shaping budgets
  /// (warm-up mode).
  std::string strand_records_file;

  /// Optional externally-owned solve pool shared by every request whose
  /// `config.run.pool` is unset (a request's own pool wins). Null =
  /// every solve runs serially on its worker thread: the service never
  /// creates solve threads of its own.
  ThreadPool* pool = nullptr;

  /// Observability sinks (null-sink default, not owned). The service
  /// records serve.queue/serve.solve/serve.warmup spans and serve.*
  /// counters and exports the plan-cache gauges on every completion.
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// One optimisation request submitted to the service.
struct ServeRequest {
  Query query;
  QjoConfig config;
  /// Admission-control identity; requests with the same tenant share one
  /// quota and one round-robin slot.
  std::string tenant = "default";
  /// Wall-clock budget from *submit* (queue wait included); <= 0 = use
  /// ServeOptions::default_deadline_ms.
  double deadline_ms = -1.0;
  /// Skip the plan cache for this request (always solve, never insert);
  /// also opts out of coalescing in both directions.
  bool bypass_cache = false;
};

/// Outcome of one served request.
struct ServeResult {
  Status status = Status::Ok();
  QjoReport report;
  /// The report came from the plan cache (no solve ran).
  bool cache_hit = false;
  /// The report is a copy of a coalesced leader's result (this request
  /// attached to an identical in-flight solve and never ran its own).
  bool coalesced = false;
  /// The report came from the degraded classical fallback path (deadline
  /// pressure at dequeue), not the full pipeline.
  bool degraded = false;
  /// The deadline had fully expired before a worker picked the request
  /// up (or, for a coalesced follower, before its leader finished); the
  /// result is the classical fallback (degraded is also true).
  bool deadline_expired_in_queue = false;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
};

/// Retry-after hint: `backlog` requests paced at the observed mean solve
/// time spread over `workers`, clamped to [0, max_retry_after_ms]. By
/// construction monotone non-decreasing in `backlog` for any fixed
/// average: a pathological EWMA (NaN, infinite, non-positive) falls back
/// to a default estimate instead of leaking into the hint, and the clamp
/// bounds the hint even when the average itself is unbounded.
double RetryAfterHintMs(double avg_solve_ms, size_t backlog, size_t workers,
                        double max_retry_after_ms);

/// Multi-tenant serving front door for the join-order optimiser: one
/// service multiplexes many in-flight OptimizeJoinOrder requests over a
/// bounded worker set and one shared ThreadPool.
///
///  * Admission control — Submit() rejects (never blocks) when the
///    tenant's token bucket is dry, the global queue is full or the
///    tenant is at its in-flight quota, returning ResourceExhausted plus
///    a retry-after hint (bucket refill time for rate rejections, mean
///    solve time x backlog otherwise, both capped by max_retry_after_ms).
///  * No head-of-line blocking — queued requests live in per-tenant FIFO
///    lanes; workers pop round-robin across tenants, so a tenant with a
///    thousand queued requests delays a new tenant by at most one request
///    per worker.
///  * Single-flight coalescing — a submit whose PlanKey matches an
///    in-flight solve attaches to the leader and is resolved with a copy
///    of the leader's report; duplicate keys cost one solve total.
///    Followers keep their own deadlines: one whose deadline expires
///    before the leader finishes is degraded to the classical fallback by
///    the follower reaper instead of blocking on the leader.
///  * Shared QUBO-build cache — every request's encode goes through one
///    service-owned QuboBuildCache (single-flight itself), so even a
///    plan-cache miss reuses the pre-built CSR from any prior request.
///  * Deadlines — a request's wall budget covers queue wait + solve. The
///    shared DeadlineMonitor arms one stop token per dispatched request;
///    expiry winds the portfolio/decomp strands down cooperatively.
///    Requests dequeued with (almost) no budget left degrade to the
///    classical DP/greedy fallback instead of failing.
///  * Plan cache — results are memoized by PlanKey(); a hit returns the
///    cached report without touching the solvers. The key set can be
///    persisted (warmup_file) and replayed through WarmUp() so a restart
///    starts hot.
///
/// Determinism: a cache-miss request that never has its stop token fire
/// returns a report bit-identical to a direct OptimizeJoinOrder(query,
/// config) call, at any worker count and pool size (the solvers'
/// existing contract; the service adds no RNG or cross-request coupling,
/// and coalesced followers receive byte-for-byte copies of a report with
/// that same property).
class OptimizerService {
 public:
  explicit OptimizerService(const ServeOptions& options = {});
  /// Fails queued, never-dispatched requests (and coalesced followers
  /// still waiting on them) with FailedPrecondition and joins the
  /// workers. In-flight solves run to completion. Persists the warm-up
  /// key set when `warmup_file` is configured.
  ~OptimizerService();

  OptimizerService(const OptimizerService&) = delete;
  OptimizerService& operator=(const OptimizerService&) = delete;

  /// Admits or rejects `request`. On admission the future resolves once a
  /// worker finishes the request (possibly with a degraded or failed
  /// ServeResult — per-request errors land in ServeResult::status, not
  /// here), or — for a coalesced follower — once its leader finishes. On
  /// rejection returns ResourceExhausted and, when `retry_after_ms` is
  /// non-null, writes a backoff hint estimating when capacity frees up.
  StatusOr<std::future<ServeResult>> Submit(ServeRequest request,
                                            double* retry_after_ms = nullptr);

  /// Blocks until every admitted request (coalesced followers included)
  /// has resolved its future. New submits during a drain are allowed and
  /// also waited for. Persists the warm-up key set when `warmup_file` is
  /// configured.
  void Drain();

  /// Pre-populates the plan cache before taking traffic: every workload
  /// request whose PlanKey appears in `keys` is solved synchronously
  /// (service pool + shared build cache, full budget, no deadline) and
  /// inserted. Returns the number of entries warmed. Keys without a
  /// matching workload entry are skipped — a key alone cannot
  /// reconstruct its query, so the caller supplies the candidate
  /// workload (e.g. its known query templates). Call before serving;
  /// warming concurrently with traffic is safe but may duplicate a solve.
  size_t WarmUp(const std::vector<std::string>& keys,
                std::span<const ServeRequest> workload);
  /// WarmUp() against the key set loaded from `warmup_file`.
  size_t WarmUp(std::span<const ServeRequest> workload);

  /// Writes the live plan-cache key set to `path` (header line + one key
  /// per line); returns false when the cache is disabled or the write
  /// fails. Drain() and the destructor call this with `warmup_file`.
  bool SaveWarmupKeys(const std::string& path) const;
  /// Loads a key set written by SaveWarmupKeys; empty on any error or
  /// header mismatch.
  static std::vector<std::string> LoadWarmupKeys(const std::string& path);
  /// Keys loaded from `warmup_file` at construction (empty otherwise).
  const std::vector<std::string>& warmup_keys() const {
    return pending_warmup_keys_;
  }

  /// Cache key of a request: the encoding fingerprint (query + threshold
  /// grid + omega, bit-exact) extended with every QjoConfig field that
  /// determines the report: backend, seed, shots, the one deadline
  /// (`run.deadline_ms`), the SQA, embedding and chain-strength options,
  /// and the portfolio's budgets, strands (a custom registry's strand
  /// names included), SQA and decomposition templates and adaptive
  /// knobs. Fields that only affect *where* work runs (pool, stop
  /// token, sinks, build caches, record stores) are excluded — the
  /// determinism contract makes them result-neutral. Caveat: the device,
  /// transpile and topology options (DeviceProperties, TranspileOptions,
  /// custom coupling graphs) are *not* keyed — a deployment varying them
  /// per request must set `bypass_cache`.
  static std::string PlanKey(const Query& query, const QjoConfig& config);

  struct Stats {
    uint64_t submitted = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_tenant_quota = 0;
    uint64_t rejected_rate_limited = 0;
    uint64_t completed = 0;
    uint64_t degraded = 0;
    uint64_t expired_in_queue = 0;
    uint64_t cache_hits = 0;
    /// Requests answered with a copy of a coalesced leader's report.
    uint64_t coalesced = 0;
    /// Full pipeline solves actually run (excludes cache hits, coalesced
    /// followers and degraded fallbacks) — the denominator of duplicate
    /// work. On a duplicate-heavy workload with coalescing on, solves ==
    /// unique plan keys.
    uint64_t solves = 0;
    /// Plan-cache entries populated by WarmUp(), and hits served from
    /// them.
    uint64_t warmed = 0;
    uint64_t warm_hits = 0;
  };
  /// Race-free snapshot (same relaxed-atomic contract as the caches).
  Stats stats() const;

  PlanCache* plan_cache() { return cache_.get(); }
  /// Service-owned shared build cache; null when share_build_cache is
  /// off.
  QuboBuildCache* build_cache() { return build_cache_.get(); }
  /// Service-owned strand run records (attached to portfolio requests
  /// when `adaptive` is on or `strand_records_file` is set).
  RunRecordStore* strand_records() { return &strand_records_; }
  size_t queued() const;
  /// Followers currently attached to in-flight leaders.
  size_t coalesced_waiting() const;

 private:
  struct Pending {
    ServeRequest request;
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point submitted;
    /// Resolved absolute deadline; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline;
    double deadline_ms = -1.0;  ///< resolved budget; <= 0 = none
    /// PlanKey, precomputed at submit; empty for bypass_cache requests
    /// when the plan cache is off.
    std::string plan_key;
    /// Quota units charged to the tenant (1.0, or follower weight).
    double quota_cost = 1.0;
    /// This request registered the in-flight entry for its plan key and
    /// owns resolving/re-dispatching its followers when it finishes.
    bool is_leader = false;
  };
  /// Followers attached to one in-flight leader, keyed by plan key.
  struct InflightSolve {
    std::vector<std::unique_ptr<Pending>> followers;
  };

  void WorkerLoop(std::stop_token stop);
  /// Follower-deadline watcher: degrades followers whose own deadline
  /// expires before their leader finishes (classical fallback, same as
  /// expiry-at-dequeue), so a follower never blocks on a slow leader.
  void ReaperLoop(std::stop_token stop);
  /// Pops the next request round-robin across tenant lanes; null when the
  /// queue is empty. Caller holds `mutex_`.
  std::unique_ptr<Pending> PopLocked();
  /// Appends (or, for re-dispatched followers, prepends) to the tenant's
  /// lane and maintains the rotation invariant. Caller holds `mutex_`.
  void EnqueueLocked(std::unique_ptr<Pending> pending, bool front);
  void Process(Pending& pending);
  /// Leader epilogue: pops the in-flight entry and either resolves every
  /// follower with a copy of `result` (when it is a full-fidelity,
  /// shareable answer) or re-dispatches them as ordinary requests.
  void FinishInflight(Pending& leader, const ServeResult& result,
                      bool shareable);
  /// Classical DP (greedy past the DP size cap) fallback; also labels the
  /// report's portfolio section so callers see the degradation.
  Status DegradedSolve(const ServeRequest& request, QjoReport* report);
  void FinishTenant(const std::string& tenant, double cost);

  const ServeOptions options_;
  std::unique_ptr<PlanCache> cache_;  ///< null when the cache is disabled
  std::unique_ptr<QuboBuildCache> build_cache_;  ///< null when sharing off
  DeadlineMonitor monitor_;
  std::vector<std::string> pending_warmup_keys_;
  /// Cross-request strand run records (thread-safe; loaded from and
  /// persisted to strand_records_file when configured).
  RunRecordStore strand_records_;

  mutable std::mutex mutex_;
  std::condition_variable_any work_ready_;
  std::condition_variable drained_;
  /// Per-tenant FIFO lanes + round-robin rotation over tenants with
  /// queued work.
  std::unordered_map<std::string, std::deque<std::unique_ptr<Pending>>>
      lanes_;
  std::vector<std::string> rotation_;
  size_t rotation_next_ = 0;
  /// queued + running quota units per tenant (admission accounting;
  /// followers weigh follower_quota_weight).
  std::unordered_map<std::string, double> tenant_inflight_;
  /// Per-tenant admission-rate buckets (tenant_rate_per_sec > 0 only).
  std::unordered_map<std::string, TokenBucket> buckets_;
  /// In-flight single-flight registry: plan key -> waiting followers.
  /// An entry exists from the leader's admission until its epilogue.
  std::unordered_map<std::string, std::unique_ptr<InflightSolve>> inflight_;
  size_t queued_ = 0;
  size_t running_ = 0;
  size_t coalesced_waiting_ = 0;
  /// Bumped per follower attach so the reaper recomputes its sleep.
  uint64_t reaper_generation_ = 0;
  std::condition_variable_any reaper_wakeup_;
  /// Keys inserted by WarmUp(); hits on them count as warm hits. Guarded
  /// by mutex_; the flag makes the empty case lock-free on the hit path.
  std::unordered_set<std::string> warmed_keys_;
  std::atomic<bool> has_warmed_keys_{false};

  /// EWMA of observed solve wall time, feeding the retry-after hint.
  std::atomic<double> avg_solve_ms_{50.0};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> rejected_tenant_quota_{0};
  std::atomic<uint64_t> rejected_rate_limited_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> solves_{0};
  std::atomic<uint64_t> warmed_{0};
  std::atomic<uint64_t> warm_hits_{0};

  std::jthread reaper_;
  std::vector<std::jthread> workers_;  ///< last member: join before the rest
};

}  // namespace qjo

#endif  // QJO_SERVE_OPTIMIZER_SERVICE_H_
