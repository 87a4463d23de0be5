#include "serve/optimizer_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stop_token>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "jo/classical.h"
#include "obs/obs.h"
#include "qubo/deadline_monitor.h"
#include "serve/config_fields.h"

namespace qjo {
namespace {

using Clock = std::chrono::steady_clock;

/// Quota units and bucket tokens a coalesced follower costs its tenant: it
/// holds no worker and no queue slot, so charging it like a full request
/// would make duplicate-heavy tenants look busier than they are.
constexpr double kFollowerCost = 0.25;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
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

/// Builds a plan key by walking a request config's field list
/// (serve/config_fields.h): each keyed field appends `|tag=value` in list
/// order, doubles bit-exactly (as JoEncodingFingerprint does, so distinct
/// doubles never collide); neutral fields add nothing.
struct PlanKeyWriter {
  const Query& query;
  std::string key;

  void Append(const char* tag, uint64_t v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "|%s=%llx", tag,
                  static_cast<unsigned long long>(v));
    key.append(buf);
  }

  void Encoding(const std::vector<double>& thresholds, int num_thresholds,
                double omega) {
    key += JoEncodingFingerprint(query, {thresholds, num_thresholds, omega});
  }

  /// Integers, booleans and enums.
  template <typename T>
  void Key(const char* tag, const T& value) {
    Append(tag, static_cast<uint64_t>(value));
  }
  void Key(const char* tag, double value) {
    Append(tag, std::bit_cast<uint64_t>(value));
  }
  void Key(const char* tag, QjoBackend backend) {
    key.append("|").append(tag).append("=").append(QjoBackendName(backend));
  }
  void Key(const char* tag, const std::string& name) {
    Append(tag, Digest(name.data(), name.size()));
  }

  /// A custom coupling graph keys as its qubit count, edge count and a
  /// digest of its sorted edge list; an unset one adds nothing.
  void Key(const char* tag, const std::optional<CouplingGraph>& graph) {
    if (!graph.has_value()) return;
    key.append("|").append(tag);
    Key("n", graph->num_qubits());
    Key("e", graph->num_edges());
    // (a, b) int pairs: contiguous and padding-free.
    const std::vector<std::pair<int, int>> edges = graph->Edges();
    Append("h", Digest(edges.data(), edges.size() * sizeof(edges[0])));
  }

  void Flags(const char* tag, auto... flags) {
    uint64_t mask = 0;
    int bit = 0;
    ((mask |= uint64_t{flags} << bit++), ...);
    Append(tag, mask);
  }

  void Nested(const auto& fields, const char* group = nullptr) {
    if (group != nullptr) key.append("|").append(group);
    VisitFields(fields, *this);
  }

  void Neutral(const char*, const auto&) {}
};

/// OptimizeClassical's answer (exact up to kMaxDpRelations); also labels
/// the report's portfolio section so callers see the degradation.
Status ClassicalFallback(const Query& query, QjoReport* report) {
  QJO_ASSIGN_OR_RETURN(const JoResult plan, OptimizeClassical(query));
  report->found_valid = true;
  report->best_order = plan.order;
  report->best_cost = plan.cost;
  if (query.num_relations() <= kMaxDpRelations) {
    report->optimal_order = plan.order;
    report->optimal_cost = plan.cost;
  }
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
  std::string key = PlanKey(request.query, request.config);

  std::unique_lock<std::mutex> lock(mutex_);
  // Retry-after hint: the backlog ahead of (and including) this request,
  // paced at the observed mean solve time, spread over the workers.
  const double hint =
      RetryAfterHintMs(avg_solve_ms_.load(std::memory_order_relaxed),
                       queued_ + running_ + 1, workers_.size(),
                       options_.max_retry_after_ms);
  const bool follower = cache_.PendingFollowers(key) != nullptr;
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
  if (!follower) hit = cache_.LookupAt(key, now, &warmed);
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
  if (PlanCache::Followers* followers =
          cache_.PendingFollowers(ticket->plan_key)) {
    // Single flight: the leader's epilogue resolves (or re-admits) us;
    // the reaper covers our own deadline meanwhile.
    followers->push_back(std::move(ticket));
    ++following_;
    ++reaper_generation_;
    return;
  }
  // Opened at admission (not at dispatch), so a duplicate arriving while
  // the leader still queues follows it too.
  cache_.BeginPendingAt(ticket->plan_key, Clock::now());
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
    // The solve runs on its own stop source, which the caller's token and
    // the request deadline (armed on the process-wide monitor) each stop,
    // so the strands wind down cooperatively on either.
    std::stop_source stop;
    const std::stop_callback relay(request.config.run.stop,
                                   [&stop] { stop.request_stop(); });
    config.run.stop = stop.get_token();
    const bool armed = std::isfinite(remaining_ms);
    const uint64_t arm_id =
        armed ? DeadlineMonitor::Shared().Arm(stop, ticket.deadline) : 0;

    solves_.fetch_add(1, std::memory_order_relaxed);
    const auto solve_start = Clock::now();
    StatusOr<QjoReport> report = [&] {
      StageSpan span(options_.trace, "serve.solve");
      return OptimizeJoinOrder(request.query, config);
    }();
    if (armed) DeadlineMonitor::Shared().Disarm(arm_id);
    result.solve_ms = MsBetween(solve_start, Clock::now());

    // EWMA of solve time feeding the retry-after hint. Plain load/store:
    // concurrent updates may drop each other, which only blurs a hint.
    const double prev = avg_solve_ms_.load(std::memory_order_relaxed);
    avg_solve_ms_.store(0.8 * prev + 0.2 * result.solve_ms,
                        std::memory_order_relaxed);

    if (report.ok()) {
      result.report = std::move(report).value();
      // Never cache or share a truncated (stopped) result: it reflects
      // this request's deadline or cancellation, not the config's
      // full-budget answer.
      shareable = !stop.stop_requested() && result.report.found_valid;
    } else {
      result.status = report.status();
    }
    if (options_.metrics != nullptr) {
      options_.metrics->Observe("serve.solve_ms", result.solve_ms);
    }
  }

  FinishPending(ticket.plan_key,
                shareable ? std::make_shared<const QjoReport>(result.report)
                          : nullptr,
                /*warmed=*/false);
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
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] {
    return queued_ == 0 && running_ == 0 && following_ == 0;
  });
}

size_t OptimizerService::WarmUp(const std::vector<std::string>& keys,
                                std::span<const ServeRequest> workload) {
  if (keys.empty()) return 0;
  StageSpan span(options_.trace, "serve.warmup");
  const std::unordered_set<std::string_view> wanted(keys.begin(), keys.end());
  size_t warmed = 0;
  for (const ServeRequest& request : workload) {
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

std::string OptimizerService::PlanKey(const Query& query,
                                      const QjoConfig& config) {
  PlanKeyWriter writer{query, {}};
  VisitFields(config, writer);
  return std::move(writer.key);
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
