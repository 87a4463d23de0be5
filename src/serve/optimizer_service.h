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
  /// blocking behind a tenant with a deep backlog. A coalesced follower
  /// counts a quarter unit (it holds no worker and no queue slot); a plan
  /// cache hit, answered inside Submit(), counts none.
  size_t per_tenant_inflight = 0;
  /// Deadline applied to requests that do not carry their own; <= 0 = no
  /// default deadline.
  double default_deadline_ms = -1.0;
  /// When a request reaches a worker with less than this much of its
  /// deadline remaining, the full pipeline is skipped in favour of the
  /// classical DP/greedy fallback (graceful degradation: an approximate
  /// plan beats a deadline miss).
  double degrade_margin_ms = 5.0;

  /// One QuboBuildCache shared by every request of this service, so a
  /// plan-cache miss still reuses any prior request's CSR build (results
  /// never change). Disable only to measure the rebuild cost; a request
  /// carrying its own `config.qubo_cache` keeps it (caller wins).
  bool share_build_cache = true;
  size_t build_cache_entries = 1024;

  /// Per-tenant token-bucket rate limit in admissions/sec; <= 0 = off.
  /// Layered *before* the inflight quotas: the quota bounds concurrency,
  /// the bucket bounds request rate (a tenant hammering cheap cache hits
  /// never trips the quota but still monopolises admission). A hit costs
  /// one token, a coalesced follower a quarter. When the bucket rejects,
  /// the retry-after hint is the bucket's refill time — not the
  /// queue-depth estimate.
  double tenant_rate_per_sec = 0.0;
  /// Bucket capacity in tokens; <= 0 = max(1, tenant_rate_per_sec).
  double tenant_burst = 0.0;

  /// Ceiling on every retry-after hint this service emits (queue-depth
  /// and bucket-refill alike). Keeps a pathological solve-time EWMA from
  /// telling clients to go away for hours.
  double max_retry_after_ms = 30000.0;

  /// The plan table over (encoding fingerprint, result-determining
  /// config) — see OptimizerService::PlanKey. Its pending entries are the
  /// single-flight registry, its ready entries the plan cache.
  PlanCacheOptions cache;

  /// Plan-cache warm-up persistence: when non-empty, the live key set is
  /// written here by Drain() and at shutdown, and loaded at construction
  /// into warmup_keys() for a WarmUp(workload) call to replay.
  std::string warmup_file;

  /// Adaptive strand selection across requests (core/strand_select.h):
  /// every portfolio solve (warm-up included) runs with
  /// `portfolio.adaptive.enabled` set and the service-owned RunRecordStore
  /// as its records, unless the request brings its own (caller wins).
  /// Cached plans recorded under an older records state stay valid; set
  /// `bypass_cache` per request to force re-selection.
  bool adaptive = false;
  /// Strand-records persistence: when non-empty, the store is loaded at
  /// construction (missing file = cold start) and written by Drain() and
  /// at shutdown. Setting only this, with `adaptive` off, records outcomes
  /// without shaping budgets.
  std::string strand_records_file;

  /// Optional externally-owned solve pool shared by every request whose
  /// `config.run.pool` is unset (a request's own pool wins). Null =
  /// every solve runs serially on its worker thread: the service never
  /// creates solve threads of its own.
  ThreadPool* pool = nullptr;

  /// Observability sinks (null-sink default, not owned). The service
  /// records serve.queue/serve.solve/serve.warmup spans and serve.*
  /// counters, the plan table's serve.cache.* counters included.
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
  /// Skip the plan table for this request: always solve, never insert,
  /// never coalesce in either direction.
  bool bypass_cache = false;
};

/// Outcome of one served request.
struct ServeResult {
  Status status = Status::Ok();
  QjoReport report;
  /// The report came from the plan cache (answered inside Submit(); no
  /// solve ran).
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
///  * One plan table — Submit() consults the PlanCache once: a ready
///    entry answers inside Submit(); a pending entry takes the request as
///    a follower that gets a copy of its leader's report (duplicate keys
///    cost one solve); a miss opens a pending entry and queues the request
///    as its leader. A follower whose own deadline expires first is
///    degraded by the follower reaper instead of waiting.
///  * Shared QUBO-build cache — every request's encode goes through one
///    service-owned QuboBuildCache (single-flight itself), so even a
///    plan-cache miss reuses the pre-built CSR from any prior request.
///  * Deadlines — a request's wall budget covers queue wait + solve. The
///    shared DeadlineMonitor arms one stop token per dispatched request;
///    expiry winds the portfolio/decomp strands down cooperatively.
///    Requests dequeued with (almost) no budget left degrade to the
///    classical DP/greedy fallback instead of failing.
///  * Warm-up — the ready key set can be persisted (warmup_file) and
///    replayed through WarmUp() so a restart starts hot.
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
  /// worker finishes the request (per-request errors land in
  /// ServeResult::status, not here), for a follower once its leader
  /// finishes, and for a plan-cache hit before Submit() returns. On
  /// rejection returns ResourceExhausted and, when `retry_after_ms` is
  /// non-null, writes a backoff hint estimating when capacity frees up.
  StatusOr<std::future<ServeResult>> Submit(ServeRequest request,
                                            double* retry_after_ms = nullptr);

  /// Blocks until every admitted request (coalesced followers included)
  /// has resolved its future. New submits during a drain are allowed and
  /// also waited for. Persists the warm-up key set when `warmup_file` is
  /// configured.
  void Drain();

  /// Pre-populates the plan cache: every workload request whose PlanKey is
  /// in `keys` and not yet in the table leads its key like a live miss,
  /// is solved synchronously (live-solve config, no deadline) and inserted
  /// as a warmed entry; live requests for it meanwhile follow it. Returns
  /// the number of entries warmed. A key alone cannot rebuild its query,
  /// so the caller supplies candidate templates; unmatched keys are
  /// skipped.
  size_t WarmUp(const std::vector<std::string>& keys,
                std::span<const ServeRequest> workload);
  /// WarmUp() against the key set loaded from `warmup_file`.
  size_t WarmUp(std::span<const ServeRequest> workload);

  /// Writes the live ready key set to `path` (header line + one key per
  /// line); returns false when the write fails. Drain() and the
  /// destructor call this with `warmup_file`.
  bool SaveWarmupKeys(const std::string& path) const;
  /// Loads a key set written by SaveWarmupKeys; empty on any error or
  /// header mismatch.
  static std::vector<std::string> LoadWarmupKeys(const std::string& path);
  /// Keys loaded from `warmup_file` at construction (empty otherwise).
  const std::vector<std::string>& warmup_keys() const {
    return loaded_warmup_keys_;
  }

  /// Cache key of a request: the encoding fingerprint (bit-exact) plus
  /// every QjoConfig field that determines the report — backend, seed,
  /// shots, `run.deadline_ms`, the device, transpile, SQA, embedding and
  /// chain-strength options, custom gate/annealer topologies (qubit and
  /// edge counts, edge-list digest) and the portfolio's budgets, strands,
  /// templates and adaptive knobs. Fields that only affect *where* work
  /// runs (pool, stop token, sinks, caches, record stores) are
  /// result-neutral and excluded.
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
    /// Full pipeline solves run by workers (not hits, followers, degraded
    /// fallbacks or warm-up); == unique plan keys while answers stay cached.
    uint64_t solves = 0;
    /// Plan-cache entries inserted by WarmUp(), and hits served from
    /// them (an entry a live solve re-inserted is no longer warmed).
    uint64_t warmed = 0;
    uint64_t warm_hits = 0;
  };
  /// Race-free snapshot (same relaxed-atomic contract as the caches).
  Stats stats() const;

  /// The plan table; read its stats() only (every other call belongs to
  /// the service, under its admission mutex).
  const PlanCache* plan_cache() const { return &cache_; }
  /// Service-owned shared build cache; null when share_build_cache is
  /// off.
  QuboBuildCache* build_cache() { return build_cache_.get(); }
  /// Service-owned strand run records (attached to portfolio requests
  /// when `adaptive` is on or `strand_records_file` is set).
  RunRecordStore* strand_records() { return &strand_records_; }
  size_t queued() const;

 private:
  /// An admitted request, queued in a tenant lane (leading its key's
  /// pending entry unless `bypass_cache`) or parked there as a follower.
  /// `deadline` (inherited) is absolute; time_point::max() = none.
  struct Ticket : PlanCache::Follower {
    ServeRequest request;
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point submitted;
    std::string plan_key;  ///< empty for bypass_cache requests
    double quota_cost = 1.0;  ///< 1, or a quarter for a follower
  };

  void WorkerLoop(std::stop_token stop);
  /// Follower-deadline watcher: degrades followers whose own deadline
  /// expires before their leader finishes (classical fallback, same as
  /// expiry-at-dequeue), so a follower never blocks on a slow leader.
  void ReaperLoop(std::stop_token stop);
  /// Pops the next request round-robin across tenant lanes; null when the
  /// queue is empty. Caller holds `mutex_`.
  std::unique_ptr<Ticket> PopLocked();
  /// Follow the key's pending entry, or open one and queue as its leader
  /// in the tenant's lane (at the front for a re-admitted follower).
  /// Caller holds `mutex_`.
  void AdmitLocked(std::unique_ptr<Ticket> ticket, bool front);
  void Process(Ticket& ticket);
  /// Leader epilogue (live or warm-up): a `ready` report turns `key`'s
  /// entry ready and resolves the followers with copies; null erases it
  /// and re-admits the followers in arrival order.
  void FinishPending(const std::string& key,
                     std::shared_ptr<const QjoReport> ready, bool warmed);
  /// `request.config` plus the service's pool, sinks, build cache and
  /// adaptive record store: the config of every live and warm-up solve.
  QjoConfig SolveConfig(const ServeRequest& request);
  /// Answers `request` with the classical fallback (degraded; `expired`
  /// = its deadline had fully passed) and counts it.
  void Degrade(const ServeRequest& request, bool expired, ServeResult* result);
  /// Counts the completion and fulfils `promise`.
  void Resolve(std::promise<ServeResult>& promise, ServeResult result);
  /// Drops resolved followers' accounting (after their promises are set).
  void ReleaseFollowers(const PlanCache::Followers& followers);
  void FinishTenant(const std::string& tenant, double cost);

  const ServeOptions options_;
  /// Guarded by mutex_ (stats() excepted).
  PlanCache cache_;
  std::unique_ptr<QuboBuildCache> build_cache_;  ///< null when sharing off
  DeadlineMonitor monitor_;
  std::vector<std::string> loaded_warmup_keys_;
  /// Cross-request strand run records (thread-safe; loaded from and
  /// persisted to strand_records_file when configured).
  RunRecordStore strand_records_;

  mutable std::mutex mutex_;
  std::condition_variable_any work_ready_;
  std::condition_variable drained_;
  /// Per-tenant FIFO lanes + round-robin rotation over tenants with
  /// queued work.
  std::unordered_map<std::string, std::deque<std::unique_ptr<Ticket>>>
      lanes_;
  std::vector<std::string> rotation_;
  size_t rotation_next_ = 0;
  /// queued + running + following quota units per tenant.
  std::unordered_map<std::string, double> tenant_units_;
  /// Per-tenant admission-rate buckets (tenant_rate_per_sec > 0 only).
  std::unordered_map<std::string, TokenBucket> buckets_;
  size_t queued_ = 0;
  size_t running_ = 0;
  /// Followers parked on pending entries.
  size_t following_ = 0;
  /// Bumped per follower attach so the reaper recomputes its sleep.
  uint64_t reaper_generation_ = 0;
  std::condition_variable_any reaper_wakeup_;

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
