#include "serve/optimizer_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string_view>
#include <utility>

#include "jo/classical.h"
#include "obs/obs.h"

namespace qjo {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kWarmupHeader[] = "qjo-plan-cache-keys v1";

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void AppendU64(std::string* key, const char* tag, uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "|%s=%llx", tag,
                static_cast<unsigned long long>(v));
  key->append(buf);
}

void AppendI64(std::string* key, const char* tag, int64_t v) {
  AppendU64(key, tag, static_cast<uint64_t>(v));
}

void AppendDouble(std::string* key, const char* tag, double v) {
  // Bit-exact, same convention as JoEncodingFingerprint: distinct doubles
  // never collide.
  AppendU64(key, tag, std::bit_cast<uint64_t>(v));
}

/// Keys every result-determining value field of an SQA template (the
/// pipeline overwrites its `kernel` and `control`).
void AppendSqa(std::string* key, const char* tag, const SqaOptions& sqa) {
  key->append("|").append(tag);
  AppendI64(key, "reads", sqa.num_reads);
  AppendDouble(key, "us", sqa.annealing_time_us);
  AppendDouble(key, "spu", sqa.sweeps_per_us);
  AppendI64(key, "slices", sqa.trotter_slices);
  AppendDouble(key, "temp", sqa.relative_temperature);
  AppendDouble(key, "field", sqa.relative_initial_field);
  AppendDouble(key, "ice", sqa.ice_sigma);
}

bool Fired(const std::atomic<bool>* token) {
  return token != nullptr && token->load(std::memory_order_relaxed);
}

}  // namespace

double RetryAfterHintMs(double avg_solve_ms, size_t backlog, size_t workers,
                        double max_retry_after_ms) {
  constexpr double kDefaultAvgMs = 50.0;
  if (!std::isfinite(avg_solve_ms) || avg_solve_ms <= 0.0) {
    avg_solve_ms = kDefaultAvgMs;
  }
  const double hint = avg_solve_ms * static_cast<double>(backlog) /
                      static_cast<double>(std::max<size_t>(1, workers));
  if (max_retry_after_ms > 0.0 && hint > max_retry_after_ms) {
    return max_retry_after_ms;
  }
  return std::max(hint, 0.0);
}

OptimizerService::OptimizerService(const ServeOptions& options)
    : options_(options) {
  if (options_.enable_plan_cache) {
    cache_ = std::make_unique<PlanCache>(options_.cache);
  }
  if (options_.share_build_cache) {
    build_cache_ = std::make_unique<QuboBuildCache>(
        std::max<size_t>(1, options_.build_cache_entries));
  }
  if (!options_.warmup_file.empty()) {
    pending_warmup_keys_ = LoadWarmupKeys(options_.warmup_file);
    if (options_.metrics != nullptr && !pending_warmup_keys_.empty()) {
      options_.metrics->Count("serve.warmup.keys_loaded",
                              pending_warmup_keys_.size());
    }
  }
  if (!options_.strand_records_file.empty()) {
    // A missing or unreadable file is a cold start, not an error: the
    // store fills as races complete and is persisted on Drain/shutdown.
    const Status loaded =
        strand_records_.LoadRecords(options_.strand_records_file);
    if (loaded.ok() && options_.metrics != nullptr) {
      options_.metrics->Count("serve.adaptive.buckets_loaded",
                              strand_records_.NumBuckets());
    }
  }
  reaper_ = std::jthread(
      [this](std::stop_token stop) { ReaperLoop(std::move(stop)); });
  const int workers = std::max(1, options_.workers);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this](std::stop_token stop) { WorkerLoop(std::move(stop)); });
  }
}

OptimizerService::~OptimizerService() {
  for (auto& worker : workers_) worker.request_stop();
  reaper_.request_stop();
  // wait(lock, stop, pred) wakes on request_stop; joining here (instead of
  // relying on member destruction order) lets us fail the never-dispatched
  // requests afterwards knowing no worker will race us for them.
  for (auto& worker : workers_) worker.join();
  reaper_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto fail = [](Pending& pending) {
      ServeResult result;
      result.status = Status::FailedPrecondition(
          "optimizer service shut down before the request was dispatched");
      pending.promise.set_value(std::move(result));
    };
    for (auto& [tenant, lane] : lanes_) {
      for (auto& pending : lane) fail(*pending);
    }
    // Followers whose leader never got dispatched (it sits in a lane
    // above) or whose leader's epilogue raced shutdown are still parked
    // here; they hold no queue slot, so the lane sweep missed them.
    for (auto& [key, entry] : inflight_) {
      for (auto& pending : entry->followers) fail(*pending);
    }
    lanes_.clear();
    rotation_.clear();
    inflight_.clear();
    tenant_inflight_.clear();
    queued_ = 0;
    coalesced_waiting_ = 0;
  }
  drained_.notify_all();
  if (!options_.warmup_file.empty()) SaveWarmupKeys(options_.warmup_file);
  if (!options_.strand_records_file.empty()) {
    (void)strand_records_.SaveRecords(options_.strand_records_file);
  }
}

StatusOr<std::future<ServeResult>> OptimizerService::Submit(
    ServeRequest request, double* retry_after_ms) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (options_.metrics != nullptr) options_.metrics->Count("serve.requests");

  const auto now = Clock::now();
  const double budget_ms = request.deadline_ms > 0.0
                               ? request.deadline_ms
                               : options_.default_deadline_ms;
  const bool coalescible = options_.enable_coalescing && !request.bypass_cache;
  // The plan key doubles as the single-flight identity, so compute it
  // whenever either consumer (cache or coalescer) wants it — outside the
  // lock; fingerprinting a large query under the admission mutex would
  // serialise every submit behind it.
  std::string key;
  if (coalescible || (cache_ != nullptr && !request.bypass_cache)) {
    key = PlanKey(request.query, request.config);
  }

  std::unique_lock<std::mutex> lock(mutex_);
  // Retry-after hint: the backlog ahead of (and including) this request,
  // paced at the observed mean solve time, spread over the workers.
  const double hint =
      RetryAfterHintMs(avg_solve_ms_.load(std::memory_order_relaxed),
                       queued_ + running_ + 1, workers_.size(),
                       options_.max_retry_after_ms);
  const auto inflight =
      coalescible ? inflight_.find(key) : inflight_.end();
  const bool follower = coalescible && inflight != inflight_.end();
  const double cost = follower ? options_.follower_quota_weight : 1.0;

  // Rate limit first: the bucket polices how often a tenant may knock at
  // all, before shared resources (queue slots, quotas) are considered.
  if (options_.tenant_rate_per_sec > 0.0) {
    auto bucket = buckets_.find(request.tenant);
    if (bucket == buckets_.end()) {
      const double burst = options_.tenant_burst > 0.0
                               ? options_.tenant_burst
                               : std::max(1.0, options_.tenant_rate_per_sec);
      bucket = buckets_
                   .emplace(request.tenant,
                            TokenBucket(options_.tenant_rate_per_sec, burst,
                                        now))
                   .first;
    }
    double refill_ms = 0.0;
    if (!bucket->second.TryAcquireAt(now, cost, &refill_ms)) {
      rejected_rate_limited_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      if (options_.metrics != nullptr) {
        options_.metrics->Count("serve.rejected.rate_limited");
      }
      // The bucket rejected, so the honest hint is its refill time — the
      // queue-depth estimate says when a *worker* frees up, which is
      // irrelevant while the tenant is over rate.
      const double bucket_hint =
          options_.max_retry_after_ms > 0.0
              ? std::min(refill_ms, options_.max_retry_after_ms)
              : refill_ms;
      if (retry_after_ms != nullptr) *retry_after_ms = bucket_hint;
      return Status::ResourceExhausted(
          "tenant '" + request.tenant + "' over its request rate (" +
          std::to_string(options_.tenant_rate_per_sec) +
          "/s); retry after ~" + std::to_string(bucket_hint) + " ms");
    }
  }
  // A follower takes no queue slot, so the capacity check applies only to
  // requests that will actually occupy one.
  if (!follower && queued_ >= options_.queue_capacity) {
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    if (options_.metrics != nullptr) {
      options_.metrics->Count("serve.rejected.queue_full");
    }
    if (retry_after_ms != nullptr) *retry_after_ms = hint;
    return Status::ResourceExhausted("serving queue full (" +
                                     std::to_string(options_.queue_capacity) +
                                     " queued); retry after ~" +
                                     std::to_string(hint) + " ms");
  }
  if (options_.per_tenant_inflight > 0) {
    auto it = tenant_inflight_.find(request.tenant);
    const double current = it != tenant_inflight_.end() ? it->second : 0.0;
    if (current + cost >
        static_cast<double>(options_.per_tenant_inflight) + 1e-9) {
      rejected_tenant_quota_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      if (options_.metrics != nullptr) {
        options_.metrics->Count("serve.rejected.tenant_quota");
      }
      if (retry_after_ms != nullptr) *retry_after_ms = hint;
      return Status::ResourceExhausted(
          "tenant '" + request.tenant + "' at its in-flight quota (" +
          std::to_string(options_.per_tenant_inflight) + "); retry after ~" +
          std::to_string(hint) + " ms");
    }
  }

  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->submitted = now;
  pending->deadline_ms = budget_ms;
  pending->deadline = budget_ms > 0.0 ? DeadlineAfterMs(now, budget_ms)
                                      : Clock::time_point::max();
  pending->plan_key = std::move(key);
  pending->quota_cost = cost;
  std::future<ServeResult> future = pending->promise.get_future();
  tenant_inflight_[pending->request.tenant] += cost;

  if (follower) {
    // Single flight: attach to the in-flight leader instead of queueing a
    // second solve for the same plan key. The leader's epilogue resolves
    // (or, if its answer isn't shareable, re-dispatches) us; the reaper
    // covers our own deadline meanwhile.
    inflight->second->followers.push_back(std::move(pending));
    ++coalesced_waiting_;
    ++reaper_generation_;
    lock.unlock();
    reaper_wakeup_.notify_all();
    return future;
  }
  if (coalescible) {
    // Register the single-flight entry at admission (not at dispatch), so
    // a duplicate arriving while the leader still queues coalesces too.
    pending->is_leader = true;
    inflight_.emplace(pending->plan_key, std::make_unique<InflightSolve>());
  }
  EnqueueLocked(std::move(pending), /*front=*/false);
  lock.unlock();
  work_ready_.notify_one();
  return future;
}

void OptimizerService::EnqueueLocked(std::unique_ptr<Pending> pending,
                                     bool front) {
  const std::string& tenant = pending->request.tenant;
  auto lane = lanes_.find(tenant);
  if (lane == lanes_.end()) {
    // Invariant: rotation_ lists exactly the tenants with a lane (lanes
    // are erased the moment they drain), so a fresh lane joins the
    // round-robin here and nowhere else.
    lane = lanes_.emplace(tenant, std::deque<std::unique_ptr<Pending>>())
               .first;
    rotation_.push_back(tenant);
  }
  if (front) {
    lane->second.push_front(std::move(pending));
  } else {
    lane->second.push_back(std::move(pending));
  }
  ++queued_;
}

std::unique_ptr<OptimizerService::Pending> OptimizerService::PopLocked() {
  while (!rotation_.empty()) {
    if (rotation_next_ >= rotation_.size()) rotation_next_ = 0;
    auto lane = lanes_.find(rotation_[rotation_next_]);
    if (lane == lanes_.end() || lane->second.empty()) {
      if (lane != lanes_.end()) lanes_.erase(lane);
      rotation_.erase(rotation_.begin() +
                      static_cast<ptrdiff_t>(rotation_next_));
      continue;
    }
    auto pending = std::move(lane->second.front());
    lane->second.pop_front();
    --queued_;
    if (lane->second.empty()) {
      lanes_.erase(lane);
      rotation_.erase(rotation_.begin() +
                      static_cast<ptrdiff_t>(rotation_next_));
    } else {
      ++rotation_next_;
    }
    return pending;
  }
  return nullptr;
}

void OptimizerService::WorkerLoop(std::stop_token stop) {
  while (true) {
    std::unique_ptr<Pending> pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!work_ready_.wait(lock, stop, [this] { return queued_ > 0; })) {
        return;  // stop requested and queue empty
      }
      // Shutting down: leave queued requests for the destructor to fail
      // instead of dispatching new work.
      if (stop.stop_requested()) return;
      pending = PopLocked();
      if (pending == nullptr) continue;
      ++running_;
    }
    Process(*pending);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      FinishTenant(pending->request.tenant, pending->quota_cost);
    }
    drained_.notify_all();
  }
}

void OptimizerService::ReaperLoop(std::stop_token stop) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop.stop_requested()) {
    const auto now = Clock::now();
    auto next = Clock::time_point::max();
    std::vector<std::unique_ptr<Pending>> expired;
    for (auto& [key, entry] : inflight_) {
      auto& followers = entry->followers;
      for (size_t i = 0; i < followers.size();) {
        if (followers[i]->deadline <= now) {
          expired.push_back(std::move(followers[i]));
          followers[i] = std::move(followers.back());
          followers.pop_back();
        } else {
          next = std::min(next, followers[i]->deadline);
          ++i;
        }
      }
    }
    if (!expired.empty()) {
      // Solve outside the lock: the degraded fallback is classical DP and
      // can take milliseconds, which must not stall admission.
      lock.unlock();
      for (auto& pending : expired) {
        ServeResult result;
        result.degraded = true;
        result.deadline_expired_in_queue = true;
        degraded_.fetch_add(1, std::memory_order_relaxed);
        expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics != nullptr) {
          options_.metrics->Count("serve.degraded");
          options_.metrics->Count("serve.expired_in_queue");
        }
        const auto solve_start = Clock::now();
        result.queue_ms = MsBetween(pending->submitted, solve_start);
        result.status = DegradedSolve(pending->request, &result.report);
        result.solve_ms = MsBetween(solve_start, Clock::now());
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics != nullptr) options_.metrics->Count("serve.completed");
        pending->promise.set_value(std::move(result));
      }
      lock.lock();
      // Release accounting only after the promises resolved, so Drain()
      // cannot return while a follower's future is still unset.
      for (auto& pending : expired) {
        --coalesced_waiting_;
        FinishTenant(pending->request.tenant, pending->quota_cost);
      }
      drained_.notify_all();
      continue;  // re-scan: attaches may have happened while unlocked
    }
    const uint64_t generation = reaper_generation_;
    const auto rearmed = [this, generation] {
      return reaper_generation_ != generation;
    };
    if (next == Clock::time_point::max()) {
      reaper_wakeup_.wait(lock, stop, rearmed);
    } else {
      reaper_wakeup_.wait_until(lock, stop, next, rearmed);
    }
  }
}

void OptimizerService::FinishTenant(const std::string& tenant, double cost) {
  auto it = tenant_inflight_.find(tenant);
  if (it == tenant_inflight_.end()) return;
  it->second -= cost;
  if (it->second <= 1e-9) tenant_inflight_.erase(it);
}

void OptimizerService::Process(Pending& pending) {
  const auto dequeued = Clock::now();
  const ServeRequest& request = pending.request;
  ServeResult result;
  result.queue_ms = MsBetween(pending.submitted, dequeued);
  if (options_.trace != nullptr) {
    options_.trace->Record("serve.queue", pending.submitted, dequeued);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->Observe("serve.queue_ms", result.queue_ms);
  }

  double remaining_ms = std::numeric_limits<double>::infinity();
  if (pending.deadline_ms > 0.0) {
    remaining_ms = MsBetween(dequeued, pending.deadline);
  }

  // Cache first: a hit costs microseconds, so even an expired request is
  // better served from the cache than degraded.
  const std::string& key = pending.plan_key;
  std::shared_ptr<const QjoReport> hit;
  const bool use_cache =
      cache_ != nullptr && !request.bypass_cache && !key.empty();
  if (use_cache) hit = cache_->Lookup(key);
  bool truncated = false;
  if (hit != nullptr) {
    result.report = *hit;
    result.cache_hit = true;
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics != nullptr) options_.metrics->Count("serve.cache_hit");
    if (has_warmed_keys_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (warmed_keys_.count(key) != 0) {
        warm_hits_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics != nullptr) {
          options_.metrics->Count("serve.warmup.hits");
        }
      }
    }
  } else if (remaining_ms <= options_.degrade_margin_ms) {
    // Graceful degradation: (almost) no budget left at dequeue — answer
    // with the classical fallback instead of missing the deadline or
    // failing outright.
    result.degraded = true;
    degraded_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics != nullptr) options_.metrics->Count("serve.degraded");
    if (remaining_ms <= 0.0) {
      result.deadline_expired_in_queue = true;
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      if (options_.metrics != nullptr) {
        options_.metrics->Count("serve.expired_in_queue");
      }
    }
    const auto solve_start = Clock::now();
    result.status = DegradedSolve(request, &result.report);
    result.solve_ms = MsBetween(solve_start, Clock::now());
  } else {
    QjoConfig config = request.config;
    if (config.run.pool == nullptr) config.run.pool = options_.pool;
    if (config.run.trace == nullptr) config.run.trace = options_.trace;
    if (config.run.metrics == nullptr) config.run.metrics = options_.metrics;
    // Adaptive strand selection: the service-owned record store backs
    // every request unless the caller brought their own (caller wins).
    AdaptiveOptions& adaptive = config.portfolio.adaptive;
    if (options_.adaptive) adaptive.enabled = true;
    if (adaptive.records == nullptr &&
        (options_.adaptive || !options_.strand_records_file.empty())) {
      adaptive.records = &strand_records_;
    }
    // Shared build cache: even when the plan cache misses, the encode
    // stage reuses any prior request's CSR build for this fingerprint. A
    // request carrying its own cache keeps it (caller wins).
    if (config.qubo_cache == nullptr && build_cache_ != nullptr) {
      config.qubo_cache = build_cache_.get();
    }

    // Arm the shared monitor so deadline expiry mid-solve flips the stop
    // token and the portfolio/decomp strands wind down cooperatively. A
    // caller-supplied token is respected as-is (never overridden).
    std::atomic<bool> token{false};
    uint64_t arm_id = 0;
    bool armed = false;
    if (std::isfinite(remaining_ms) && config.run.stop == nullptr) {
      config.run.stop = &token;
      arm_id = monitor_.Arm(&token, pending.deadline);
      armed = true;
    }

    solves_.fetch_add(1, std::memory_order_relaxed);
    const auto solve_start = Clock::now();
    StatusOr<QjoReport> report = [&] {
      StageSpan span(options_.trace, "serve.solve");
      return OptimizeJoinOrder(request.query, config);
    }();
    if (armed) monitor_.Disarm(arm_id);
    result.solve_ms = MsBetween(solve_start, Clock::now());

    // EWMA of solve time feeding the retry-after hint. Plain load/store:
    // concurrent updates may drop each other, which only blurs a hint.
    const double prev = avg_solve_ms_.load(std::memory_order_relaxed);
    avg_solve_ms_.store(0.8 * prev + 0.2 * result.solve_ms,
                        std::memory_order_relaxed);

    if (report.ok()) {
      result.report = std::move(report).value();
      // Never cache a truncated (token-fired) result: it reflects this
      // request's deadline or cancellation, not the config's full-budget
      // answer. Judged from the one token the solve ran with — the armed
      // one or the caller's own.
      truncated = Fired(config.run.stop);
      if (use_cache && !truncated && result.report.found_valid) {
        cache_->Insert(key, result.report);
      }
    } else {
      result.status = report.status();
    }
    if (options_.metrics != nullptr) {
      options_.metrics->Observe("serve.solve_ms", result.solve_ms);
    }
  }

  completed_.fetch_add(1, std::memory_order_relaxed);
  if (options_.metrics != nullptr) {
    options_.metrics->Count("serve.completed");
    if (cache_ != nullptr) cache_->ExportGauges(options_.metrics);
  }
  if (pending.is_leader) {
    // Shareable = the full-fidelity answer any follower would have
    // computed itself: not degraded, not deadline-truncated, valid (a
    // cache hit qualifies — cached entries met the same bar on insert).
    const bool shareable = result.status.ok() && !result.degraded &&
                           !truncated && result.report.found_valid;
    FinishInflight(pending, result, shareable);
  }
  pending.promise.set_value(std::move(result));
}

void OptimizerService::FinishInflight(Pending& leader,
                                      const ServeResult& result,
                                      bool shareable) {
  std::vector<std::unique_ptr<Pending>> followers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find(leader.plan_key);
    // The entry is registered at the leader's admission and removed only
    // here (or at shutdown), so it must still be present.
    if (it != inflight_.end()) {
      followers = std::move(it->second->followers);
      inflight_.erase(it);
    }
  }
  if (followers.empty()) return;
  const auto now = Clock::now();
  if (shareable) {
    for (auto& follower : followers) {
      ServeResult copy;
      copy.report = result.report;
      copy.cache_hit = result.cache_hit;
      copy.coalesced = true;
      copy.queue_ms = MsBetween(follower->submitted, now);
      copy.solve_ms = 0.0;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (options_.metrics != nullptr) {
        options_.metrics->Count("serve.coalesced");
        options_.metrics->Count("serve.completed");
      }
      follower->promise.set_value(std::move(copy));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    // Accounting drops only after every promise resolved (Drain must not
    // return while a follower's future is unset).
    for (auto& follower : followers) {
      --coalesced_waiting_;
      FinishTenant(follower->request.tenant, follower->quota_cost);
    }
  } else {
    // The leader's answer is degraded/truncated/failed — private to its
    // own deadline or fate, not something to fan out. Re-dispatch the
    // followers as ordinary requests; push_front keeps their effective
    // queueing from restarting at the back. They stay non-leaders (no new
    // single-flight entry), so two of them can't re-coalesce into a
    // second stampede of waiting.
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& follower : followers) {
      --coalesced_waiting_;
      EnqueueLocked(std::move(follower), /*front=*/true);
    }
    work_ready_.notify_all();
  }
  drained_.notify_all();
}

Status OptimizerService::DegradedSolve(const ServeRequest& request,
                                       QjoReport* report) {
  StatusOr<JoResult> plan = OptimizeDp(request.query);
  const bool exact = plan.ok();
  if (!plan.ok() && plan.status().code() == StatusCode::kResourceExhausted) {
    plan = OptimizeGreedy(request.query);
  }
  if (!plan.ok()) return plan.status();
  report->found_valid = true;
  report->best_order = plan->order;
  report->best_cost = plan->cost;
  if (exact) {
    report->optimal_order = plan->order;
    report->optimal_cost = plan->cost;
  }
  report->portfolio.found_valid = true;
  report->portfolio.best_order = plan->order;
  report->portfolio.best_cost = plan->cost;
  report->portfolio.used_classical_fallback = true;
  report->portfolio.winner = "classical_fallback";
  return Status::Ok();
}

void OptimizerService::Drain() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [this] {
      return queued_ == 0 && running_ == 0 && coalesced_waiting_ == 0;
    });
  }
  if (!options_.warmup_file.empty()) SaveWarmupKeys(options_.warmup_file);
  if (!options_.strand_records_file.empty()) {
    (void)strand_records_.SaveRecords(options_.strand_records_file);
  }
}

size_t OptimizerService::WarmUp(const std::vector<std::string>& keys,
                                std::span<const ServeRequest> workload) {
  if (cache_ == nullptr || keys.empty()) return 0;
  StageSpan span(options_.trace, "serve.warmup");
  const std::unordered_set<std::string_view> wanted(keys.begin(), keys.end());
  std::unordered_set<std::string> done;
  size_t warmed = 0;
  for (const ServeRequest& request : workload) {
    if (request.bypass_cache) continue;
    std::string key = PlanKey(request.query, request.config);
    if (wanted.find(key) == wanted.end() || done.count(key) != 0) continue;
    done.insert(key);
    QjoConfig config = request.config;
    if (config.run.pool == nullptr) config.run.pool = options_.pool;
    if (config.run.trace == nullptr) config.run.trace = options_.trace;
    if (config.run.metrics == nullptr) config.run.metrics = options_.metrics;
    if (config.qubo_cache == nullptr && build_cache_ != nullptr) {
      config.qubo_cache = build_cache_.get();
    }
    StatusOr<QjoReport> report = OptimizeJoinOrder(request.query, config);
    if (!report.ok() || !report->found_valid) continue;
    cache_->Insert(key, std::move(report).value());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      warmed_keys_.insert(std::move(key));
    }
    has_warmed_keys_.store(true, std::memory_order_relaxed);
    warmed_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics != nullptr) {
      options_.metrics->Count("serve.warmup.warmed");
    }
    ++warmed;
  }
  return warmed;
}

size_t OptimizerService::WarmUp(std::span<const ServeRequest> workload) {
  return WarmUp(pending_warmup_keys_, workload);
}

bool OptimizerService::SaveWarmupKeys(const std::string& path) const {
  if (cache_ == nullptr) return false;
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << kWarmupHeader << "\n";
  for (const std::string& key : cache_->Keys()) out << key << "\n";
  out.flush();
  return static_cast<bool>(out);
}

std::vector<std::string> OptimizerService::LoadWarmupKeys(
    const std::string& path) {
  std::vector<std::string> keys;
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line) || line != kWarmupHeader) return keys;
  while (std::getline(in, line)) {
    if (!line.empty()) keys.push_back(line);
  }
  return keys;
}

std::string OptimizerService::PlanKey(const Query& query,
                                      const QjoConfig& config) {
  JoEncodingOptions enc;
  enc.thresholds = config.thresholds;
  enc.num_thresholds = config.num_thresholds;
  enc.omega = config.omega;
  std::string key = JoEncodingFingerprint(query, enc);
  key += "|backend=";
  key += QjoBackendName(config.backend);
  AppendU64(&key, "seed", config.seed);
  AppendI64(&key, "shots", config.shots);
  AppendI64(&key, "qi", config.qaoa_iterations);
  AppendI64(&key, "qg", config.qaoa_grid);
  AppendI64(&key, "noiseless", config.noiseless ? 1 : 0);
  AppendDouble(&key, "dl", config.run.deadline_ms);
  AppendSqa(&key, "sqa", config.sqa);
  AppendI64(&key, "emb_tries", config.embedding.tries);
  AppendI64(&key, "emb_passes", config.embedding.max_passes);
  AppendDouble(&key, "emb_alpha", config.embedding.alpha);
  AppendDouble(&key, "csm", config.embed_qubo.chain_strength_multiplier);
  AppendDouble(&key, "cso", config.embed_qubo.chain_strength_override);
  const PortfolioOptions& p = config.portfolio;
  // Adaptive runs are keyed separately from fixed-order runs: the learned
  // budgets change which strand wins, so the two must not share entries.
  AppendI64(&key, "adaptive", p.adaptive.enabled ? 1 : 0);
  AppendU64(&key, "a_mbt", p.adaptive.min_bucket_trials);
  AppendI64(&key, "a_td", p.adaptive.throttle_divisor);
  AppendI64(&key, "p_sb", p.sweep_budget);
  AppendI64(&key, "p_rpr", p.reads_per_round);
  AppendI64(&key, "p_spr", p.sweeps_per_round);
  const uint64_t strands = (p.enable_exact ? 1u : 0u) |
                           (p.enable_sa ? 2u : 0u) |
                           (p.enable_tabu ? 4u : 0u) |
                           (p.enable_sqa ? 8u : 0u) |
                           (p.enable_qaoa ? 16u : 0u) |
                           (p.enable_decomp ? 32u : 0u);
  AppendU64(&key, "p_strands", strands);
  // A custom registry changes which strands race; the default one
  // (null) adds nothing to the key.
  if (p.registry != nullptr) {
    key += "|p_reg=";
    for (const std::string& name : p.registry->Names()) {
      key.append(name).append(",");
    }
  }
  AppendI64(&key, "p_mev", p.max_exact_variables);
  AppendI64(&key, "p_mqv", p.max_qaoa_variables);
  AppendI64(&key, "p_qs", p.qaoa_shots);
  AppendI64(&key, "p_qi", p.qaoa_iterations);
  AppendI64(&key, "p_mdr", p.min_decomp_relations);
  AppendDouble(&key, "p_lb", p.lower_bound);
  AppendSqa(&key, "p_sqa", p.sqa);
  const DecompOptions& d = p.decomp;
  AppendI64(&key, "d_w", d.window);
  AppendI64(&key, "d_mr", d.max_rounds);
  AppendI64(&key, "d_sr", d.stall_rounds);
  AppendI64(&key, "d_reads", d.subsolver_reads);
  AppendI64(&key, "d_sweeps", d.subsolver_sweeps);
  AppendI64(&key, "d_nt", d.num_thresholds);
  AppendDouble(&key, "d_omega", d.omega);
  return key;
}

OptimizerService::Stats OptimizerService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_tenant_quota =
      rejected_tenant_quota_.load(std::memory_order_relaxed);
  s.rejected_rate_limited =
      rejected_rate_limited_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.solves = solves_.load(std::memory_order_relaxed);
  s.warmed = warmed_.load(std::memory_order_relaxed);
  s.warm_hits = warm_hits_.load(std::memory_order_relaxed);
  return s;
}

size_t OptimizerService::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

size_t OptimizerService::coalesced_waiting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return coalesced_waiting_;
}

}  // namespace qjo
