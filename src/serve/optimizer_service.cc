#include "serve/optimizer_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "jo/classical.h"
#include "obs/obs.h"

namespace qjo {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kWarmupHeader[] = "qjo-plan-cache-keys v1";

/// Quota units and bucket tokens a coalesced follower costs its tenant: it
/// holds no worker and no queue slot, so charging it like a full request
/// would make duplicate-heavy tenants look busier than they are.
constexpr double kFollowerCost = 0.25;

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

/// FNV-1a over the bytes of `data`.
uint64_t Digest(const void* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<const unsigned char*>(data)[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Keys a custom coupling graph as its qubit count, edge count and a
/// digest of its sorted edge list; an unset one adds nothing.
void AppendTopology(std::string* key, const char* tag,
                    const std::optional<CouplingGraph>& graph) {
  if (!graph.has_value()) return;
  key->append("|").append(tag);
  AppendI64(key, "n", graph->num_qubits());
  AppendI64(key, "e", graph->num_edges());
  // (a, b) int pairs: contiguous and padding-free.
  const std::vector<std::pair<int, int>> edges = graph->Edges();
  AppendU64(key, "h", Digest(edges.data(), edges.size() * sizeof(edges[0])));
}

bool Fired(const std::atomic<bool>* token) {
  return token != nullptr && token->load(std::memory_order_relaxed);
}

/// Classical DP (greedy past the DP size cap) answer; also labels the
/// report's portfolio section so callers see the degradation.
Status ClassicalFallback(const Query& query, QjoReport* report) {
  StatusOr<JoResult> plan = OptimizeDp(query);
  const bool exact = plan.ok();
  if (!plan.ok() && plan.status().code() == StatusCode::kResourceExhausted) {
    plan = OptimizeGreedy(query);
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
    : options_(options), cache_(options.cache, options.metrics) {
  if (options_.share_build_cache) {
    build_cache_ = std::make_unique<QuboBuildCache>(
        std::max<size_t>(1, options_.build_cache_entries));
  }
  if (!options_.warmup_file.empty()) {
    loaded_warmup_keys_ = LoadWarmupKeys(options_.warmup_file);
    if (options_.metrics != nullptr && !loaded_warmup_keys_.empty()) {
      options_.metrics->Count("serve.warmup.keys_loaded",
                              loaded_warmup_keys_.size());
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
    const auto fail = [](PlanCache::Follower& ticket) {
      ServeResult result;
      result.status = Status::FailedPrecondition(
          "optimizer service shut down before the request was dispatched");
      static_cast<Ticket&>(ticket).promise.set_value(std::move(result));
    };
    for (auto& [tenant, lane] : lanes_) {
      for (auto& ticket : lane) fail(*ticket);
    }
    // Followers whose leader never got dispatched (it sits in a lane
    // above) hold no queue slot, so the lane sweep missed them.
    auto never = Clock::time_point::max();
    for (auto& follower : cache_.ExpireFollowers(never, &never)) {
      fail(*follower);
    }
    lanes_.clear();
    rotation_.clear();
    tenant_units_.clear();
    queued_ = 0;
    following_ = 0;
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
  // Computed outside the lock: fingerprinting a large query under the
  // admission mutex would serialise every submit behind it.
  std::string key;
  if (!request.bypass_cache) key = PlanKey(request.query, request.config);

  std::unique_lock<std::mutex> lock(mutex_);
  // Retry-after hint: the backlog ahead of (and including) this request,
  // paced at the observed mean solve time, spread over the workers.
  const double hint =
      RetryAfterHintMs(avg_solve_ms_.load(std::memory_order_relaxed),
                       queued_ + running_ + 1, workers_.size(),
                       options_.max_retry_after_ms);
  const bool follower =
      !key.empty() && cache_.PendingFollowers(key) != nullptr;
  const double cost = follower ? kFollowerCost : 1.0;
  const auto reject = [&](std::atomic<uint64_t>& counter, const char* metric,
                          double hint_ms, const std::string& why) {
    counter.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    if (options_.metrics != nullptr) options_.metrics->Count(metric);
    if (retry_after_ms != nullptr) *retry_after_ms = hint_ms;
    return Status::ResourceExhausted(why + "; retry after ~" +
                                     std::to_string(hint_ms) + " ms");
  };

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
      // The bucket rejected, so the honest hint is its refill time — the
      // queue-depth estimate says when a *worker* frees up, which is
      // irrelevant while the tenant is over rate.
      return reject(rejected_rate_limited_, "serve.rejected.rate_limited",
                    options_.max_retry_after_ms > 0.0
                        ? std::min(refill_ms, options_.max_retry_after_ms)
                        : refill_ms,
                    "tenant '" + request.tenant + "' over its request rate (" +
                        std::to_string(options_.tenant_rate_per_sec) + "/s)");
    }
  }
  // A ready entry answers here: no queue slot, worker or quota.
  bool warmed = false;
  std::shared_ptr<const QjoReport> hit;
  if (!key.empty() && !follower) hit = cache_.LookupAt(key, now, &warmed);
  if (hit != nullptr) {
    lock.unlock();
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (warmed) warm_hits_.fetch_add(1, std::memory_order_relaxed);
    if (warmed && options_.metrics != nullptr) {
      options_.metrics->Count("serve.warmup.hits");
    }
    ServeResult result;
    result.report = *hit;
    result.cache_hit = true;
    std::promise<ServeResult> answered;
    Resolve(answered, std::move(result));
    return answered.get_future();
  }
  // A follower takes no queue slot, so the capacity check applies only to
  // requests that will actually occupy one.
  if (!follower && queued_ >= options_.queue_capacity) {
    return reject(rejected_queue_full_, "serve.rejected.queue_full", hint,
                  "serving queue full (" +
                      std::to_string(options_.queue_capacity) + " queued)");
  }
  if (options_.per_tenant_inflight > 0) {
    auto it = tenant_units_.find(request.tenant);
    const double current = it != tenant_units_.end() ? it->second : 0.0;
    if (current + cost >
        static_cast<double>(options_.per_tenant_inflight) + 1e-9) {
      return reject(rejected_tenant_quota_, "serve.rejected.tenant_quota",
                    hint,
                    "tenant '" + request.tenant + "' at its in-flight quota (" +
                        std::to_string(options_.per_tenant_inflight) + ")");
    }
  }

  auto ticket = std::make_unique<Ticket>();
  ticket->request = std::move(request);
  ticket->submitted = now;
  ticket->deadline = budget_ms > 0.0 ? DeadlineAfterMs(now, budget_ms)
                                     : Clock::time_point::max();
  ticket->plan_key = std::move(key);
  ticket->quota_cost = cost;
  std::future<ServeResult> future = ticket->promise.get_future();
  tenant_units_[ticket->request.tenant] += cost;
  AdmitLocked(std::move(ticket), /*front=*/false);
  lock.unlock();
  if (follower) {
    reaper_wakeup_.notify_all();
  } else {
    work_ready_.notify_one();
  }
  return future;
}

void OptimizerService::AdmitLocked(std::unique_ptr<Ticket> ticket,
                                   bool front) {
  if (!ticket->request.bypass_cache) {
    if (PlanCache::Followers* followers =
            cache_.PendingFollowers(ticket->plan_key)) {
      // Single flight: the leader's epilogue resolves (or re-admits) us;
      // the reaper covers our own deadline meanwhile.
      followers->push_back(std::move(ticket));
      ++following_;
      ++reaper_generation_;
      return;
    }
    // Opened at admission (not at dispatch), so a duplicate arriving
    // while the leader still queues follows it too.
    cache_.BeginPendingAt(ticket->plan_key, Clock::now());
  }
  const std::string& tenant = ticket->request.tenant;
  auto lane = lanes_.find(tenant);
  if (lane == lanes_.end()) {
    // Invariant: rotation_ lists exactly the tenants with a lane (lanes
    // are erased the moment they drain), so a fresh lane joins the
    // round-robin here and nowhere else.
    lane = lanes_.emplace(tenant, std::deque<std::unique_ptr<Ticket>>())
               .first;
    rotation_.push_back(tenant);
  }
  if (front) {
    lane->second.push_front(std::move(ticket));
  } else {
    lane->second.push_back(std::move(ticket));
  }
  ++queued_;
}

std::unique_ptr<OptimizerService::Ticket> OptimizerService::PopLocked() {
  while (!rotation_.empty()) {
    if (rotation_next_ >= rotation_.size()) rotation_next_ = 0;
    auto lane = lanes_.find(rotation_[rotation_next_]);
    if (lane == lanes_.end() || lane->second.empty()) {
      if (lane != lanes_.end()) lanes_.erase(lane);
      rotation_.erase(rotation_.begin() +
                      static_cast<ptrdiff_t>(rotation_next_));
      continue;
    }
    auto ticket = std::move(lane->second.front());
    lane->second.pop_front();
    --queued_;
    if (lane->second.empty()) {
      lanes_.erase(lane);
      rotation_.erase(rotation_.begin() +
                      static_cast<ptrdiff_t>(rotation_next_));
    } else {
      ++rotation_next_;
    }
    return ticket;
  }
  return nullptr;
}

void OptimizerService::WorkerLoop(std::stop_token stop) {
  while (true) {
    std::unique_ptr<Ticket> ticket;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!work_ready_.wait(lock, stop, [this] { return queued_ > 0; })) {
        return;  // stop requested and queue empty
      }
      // Shutting down: leave queued requests for the destructor to fail
      // instead of dispatching new work.
      if (stop.stop_requested()) return;
      ticket = PopLocked();
      if (ticket == nullptr) continue;
      ++running_;
    }
    Process(*ticket);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      FinishTenant(ticket->request.tenant, ticket->quota_cost);
    }
    drained_.notify_all();
  }
}

void OptimizerService::ReaperLoop(std::stop_token stop) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop.stop_requested()) {
    auto next = Clock::time_point::max();
    PlanCache::Followers expired = cache_.ExpireFollowers(Clock::now(), &next);
    if (!expired.empty()) {
      // Solve outside the lock: the degraded fallback is classical DP and
      // can take milliseconds, which must not stall admission.
      lock.unlock();
      for (auto& follower : expired) {
        Ticket& ticket = static_cast<Ticket&>(*follower);
        ServeResult result;
        result.queue_ms = MsBetween(ticket.submitted, Clock::now());
        Degrade(ticket.request, /*expired=*/true, &result);
        Resolve(ticket.promise, std::move(result));
      }
      ReleaseFollowers(expired);
      lock.lock();
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

void OptimizerService::Resolve(std::promise<ServeResult>& promise,
                               ServeResult result) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (options_.metrics != nullptr) options_.metrics->Count("serve.completed");
  promise.set_value(std::move(result));
}

void OptimizerService::ReleaseFollowers(const PlanCache::Followers& followers) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& follower : followers) {
      const Ticket& ticket = static_cast<const Ticket&>(*follower);
      --following_;
      FinishTenant(ticket.request.tenant, ticket.quota_cost);
    }
  }
  drained_.notify_all();
}

void OptimizerService::FinishTenant(const std::string& tenant, double cost) {
  auto it = tenant_units_.find(tenant);
  if (it == tenant_units_.end()) return;
  it->second -= cost;
  if (it->second <= 1e-9) tenant_units_.erase(it);
}

QjoConfig OptimizerService::SolveConfig(const ServeRequest& request) {
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
  return config;
}

void OptimizerService::Process(Ticket& ticket) {
  const auto dequeued = Clock::now();
  const ServeRequest& request = ticket.request;
  ServeResult result;
  result.queue_ms = MsBetween(ticket.submitted, dequeued);
  if (options_.trace != nullptr) {
    options_.trace->Record("serve.queue", ticket.submitted, dequeued);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->Observe("serve.queue_ms", result.queue_ms);
  }

  const double remaining_ms =
      ticket.deadline == Clock::time_point::max()
          ? std::numeric_limits<double>::infinity()
          : MsBetween(dequeued, ticket.deadline);

  // Shareable = the full-fidelity answer any follower would have computed
  // itself: a valid, untruncated full-pipeline report.
  bool shareable = false;
  if (remaining_ms <= options_.degrade_margin_ms) {
    // Graceful degradation: (almost) no budget left at dequeue — answer
    // with the classical fallback instead of missing the deadline or
    // failing outright.
    Degrade(request, /*expired=*/remaining_ms <= 0.0, &result);
  } else {
    QjoConfig config = SolveConfig(request);
    // Arm the shared monitor so deadline expiry mid-solve flips the stop
    // token and the portfolio/decomp strands wind down cooperatively. A
    // caller-supplied token is respected as-is (never overridden).
    std::atomic<bool> token{false};
    uint64_t arm_id = 0;
    bool armed = false;
    if (std::isfinite(remaining_ms) && config.run.stop == nullptr) {
      config.run.stop = &token;
      arm_id = monitor_.Arm(&token, ticket.deadline);
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
      // Never cache or share a truncated (token-fired) result: it reflects
      // this request's deadline or cancellation, not the config's
      // full-budget answer. Judged from the one token the solve ran with —
      // the armed one or the caller's own.
      shareable = !Fired(config.run.stop) && result.report.found_valid;
    } else {
      result.status = report.status();
    }
    if (options_.metrics != nullptr) {
      options_.metrics->Observe("serve.solve_ms", result.solve_ms);
    }
  }

  if (!request.bypass_cache) {
    FinishPending(ticket.plan_key,
                  shareable ? std::make_shared<const QjoReport>(result.report)
                            : nullptr,
                  /*warmed=*/false);
  }
  Resolve(ticket.promise, std::move(result));
}

void OptimizerService::FinishPending(const std::string& key,
                                     std::shared_ptr<const QjoReport> ready,
                                     bool warmed) {
  PlanCache::Followers followers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    followers = cache_.EndPendingAt(key, ready, Clock::now(), warmed);
    if (ready == nullptr) {
      // The answer is degraded, truncated or failed — private to the
      // leader's own deadline or fate, not something to fan out. The
      // followers go back through admission in arrival order: the
      // earliest leads a fresh entry from its lane's front (it has waited
      // already), the rest follow it.
      following_ -= followers.size();
      for (auto& follower : followers) {
        AdmitLocked(std::unique_ptr<Ticket>(
                        static_cast<Ticket*>(follower.release())),
                    /*front=*/true);
      }
      if (!followers.empty()) work_ready_.notify_one();
      return;
    }
  }
  if (followers.empty()) return;
  const auto now = Clock::now();
  for (auto& follower : followers) {
    Ticket& ticket = static_cast<Ticket&>(*follower);
    ServeResult copy;
    copy.report = *ready;
    copy.coalesced = true;
    copy.queue_ms = MsBetween(ticket.submitted, now);
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics != nullptr) options_.metrics->Count("serve.coalesced");
    Resolve(ticket.promise, std::move(copy));
  }
  ReleaseFollowers(followers);
}

void OptimizerService::Degrade(const ServeRequest& request, bool expired,
                               ServeResult* result) {
  result->degraded = true;
  result->deadline_expired_in_queue = expired;
  degraded_.fetch_add(1, std::memory_order_relaxed);
  if (expired) expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
  if (options_.metrics != nullptr) {
    options_.metrics->Count("serve.degraded");
    if (expired) options_.metrics->Count("serve.expired_in_queue");
  }
  const auto start = Clock::now();
  result->status = ClassicalFallback(request.query, &result->report);
  result->solve_ms = MsBetween(start, Clock::now());
}

void OptimizerService::Drain() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [this] {
      return queued_ == 0 && running_ == 0 && following_ == 0;
    });
  }
  if (!options_.warmup_file.empty()) SaveWarmupKeys(options_.warmup_file);
  if (!options_.strand_records_file.empty()) {
    (void)strand_records_.SaveRecords(options_.strand_records_file);
  }
}

size_t OptimizerService::WarmUp(const std::vector<std::string>& keys,
                                std::span<const ServeRequest> workload) {
  if (keys.empty()) return 0;
  StageSpan span(options_.trace, "serve.warmup");
  const std::unordered_set<std::string_view> wanted(keys.begin(), keys.end());
  size_t warmed = 0;
  for (const ServeRequest& request : workload) {
    if (request.bypass_cache) continue;
    const std::string key = PlanKey(request.query, request.config);
    if (wanted.find(key) == wanted.end()) continue;
    {
      // Lead the key like a live miss; a key already ready or being
      // solved needs no warming.
      std::lock_guard<std::mutex> lock(mutex_);
      if (!cache_.BeginPendingAt(key, Clock::now())) continue;
    }
    StatusOr<QjoReport> report =
        OptimizeJoinOrder(request.query, SolveConfig(request));
    const bool valid = report.ok() && report->found_valid;
    FinishPending(key,
                  valid ? std::make_shared<const QjoReport>(
                              std::move(report).value())
                        : nullptr,
                  /*warmed=*/true);
    if (!valid) continue;
    warmed_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics != nullptr) {
      options_.metrics->Count("serve.warmup.warmed");
    }
    ++warmed;
  }
  return warmed;
}

size_t OptimizerService::WarmUp(std::span<const ServeRequest> workload) {
  return WarmUp(loaded_warmup_keys_, workload);
}

bool OptimizerService::SaveWarmupKeys(const std::string& path) const {
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    keys = cache_.Keys();
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << kWarmupHeader << "\n";
  for (const std::string& key : keys) out << key << "\n";
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
  const DeviceProperties& device = config.device;
  AppendU64(&key, "dev", Digest(device.name.data(), device.name.size()));
  AppendDouble(&key, "t1", device.t1_us);
  AppendDouble(&key, "t2", device.t2_us);
  AppendDouble(&key, "gate_ns", device.avg_gate_time_ns);
  AppendDouble(&key, "e1", device.one_qubit_error);
  AppendDouble(&key, "e2", device.two_qubit_error);
  AppendI64(&key, "tr_gates", static_cast<int64_t>(config.transpile.gate_set));
  AppendI64(&key, "tr_route", static_cast<int64_t>(config.transpile.routing));
  AppendU64(&key, "tr_seed", config.transpile.seed);
  AppendTopology(&key, "gate_topo", config.gate_topology);
  AppendTopology(&key, "anneal_topo", config.annealer_topology);
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

}  // namespace qjo
