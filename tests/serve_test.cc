// Serving-layer tests: admission-control edge cases, deadline handling,
// plan-cache TTL/LRU semantics, and the bit-identity contract (a
// cache-miss response equals a direct OptimizeJoinOrder call at any
// worker count). The ctest "concurrency" entries run these under
// ThreadSanitizer via the tsan preset.

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/quantum_optimizer.h"
#include "jo/query.h"
#include "obs/obs.h"
#include "qubo/deadline_monitor.h"
#include "serve/config_fields.h"
#include "serve/optimizer_service.h"
#include "serve/plan_cache.h"
#include "serve/token_bucket.h"
#include "topology/coupling_graph.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

using namespace std::chrono_literals;

Query MakeQuery(int relations, double base_card = 10.0) {
  Query q;
  for (int t = 0; t < relations; ++t) {
    q.AddRelation(std::string("R").append(std::to_string(t)), base_card + t);
  }
  for (int t = 0; t + 1 < relations; ++t) {
    EXPECT_TRUE(q.AddPredicate(t, t + 1, 0.1).ok());
  }
  return q;
}

QjoConfig FastConfig(uint64_t seed = 7) {
  QjoConfig config;
  config.backend = QjoBackend::kSimulatedAnnealing;
  config.shots = 32;
  config.seed = seed;
  return config;
}

/// A request whose solve occupies a worker long enough (hundreds of ms)
/// for the test to line up queue states behind it. No other request in
/// this file uses its seed, so it leads its own plan key and takes its
/// own queue slot.
ServeRequest SlowRequest(const std::string& tenant = "default") {
  ServeRequest request;
  request.query = MakeQuery(6);
  request.config = FastConfig(12);
  request.config.shots = 1500;
  request.tenant = tenant;
  return request;
}

/// A long solve that tests submit more than once: the copies share one
/// plan key, so later ones follow the first.
ServeRequest SlowCoalescible(const std::string& tenant = "default",
                             int shots = 1500) {
  ServeRequest request;
  request.query = MakeQuery(6);
  request.config = FastConfig(11);
  request.config.shots = shots;
  request.tenant = tenant;
  return request;
}

ServeRequest QuickRequest(const std::string& tenant = "default",
                          uint64_t seed = 7) {
  ServeRequest request;
  request.query = MakeQuery(3);
  request.config = FastConfig(seed);
  request.tenant = tenant;
  return request;
}

/// Waits until the admission queue is empty (every submitted request has
/// been picked up by a worker).
void WaitDequeued(OptimizerService& service) {
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (service.queued() > 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "requests were never dequeued";
    std::this_thread::sleep_for(1ms);
  }
}

// ---------------------------------------------------------------------------
// DeadlineMonitor.

TEST(DeadlineMonitorTest, FiresPastDeadlineAndCountsIt) {
  DeadlineMonitor monitor;
  std::stop_source token;
  const uint64_t id = monitor.Arm(token, DeadlineMonitor::Clock::now() - 1ms);
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (!token.stop_requested()) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "expired token never fired";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(monitor.fired(), 1u);
  EXPECT_EQ(monitor.armed(), 0u);  // fired entries are removed
  EXPECT_FALSE(monitor.Disarm(id));  // it fired: nothing left to withdraw
}

TEST(DeadlineMonitorTest, DisarmWithdrawsWithoutFiring) {
  DeadlineMonitor monitor;
  std::stop_source token;
  const uint64_t id = monitor.Arm(token, DeadlineMonitor::Clock::now() + 1h);
  EXPECT_EQ(monitor.armed(), 1u);
  EXPECT_TRUE(monitor.Disarm(id));
  EXPECT_EQ(monitor.armed(), 0u);
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(monitor.fired(), 0u);
  EXPECT_FALSE(monitor.Disarm(id));  // idempotent
}

TEST(DeadlineMonitorTest, NewerEarlierDeadlinePreempts) {
  // Arming an earlier deadline after a later one must wake the monitor's
  // sleep: the earlier token fires first, long before the later deadline.
  DeadlineMonitor monitor;
  std::stop_source late;
  std::stop_source early;
  const uint64_t late_id =
      monitor.Arm(late, DeadlineMonitor::Clock::now() + 1h);
  monitor.Arm(early, DeadlineMonitor::Clock::now() + 5ms);
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (!early.stop_requested()) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "earlier-armed token never fired";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(late.stop_requested());
  EXPECT_TRUE(monitor.Disarm(late_id));
}

// ---------------------------------------------------------------------------
// PlanCache.

QjoReport MakeReport(double cost) {
  QjoReport report;
  report.found_valid = true;
  report.best_cost = cost;
  return report;
}

/// Makes `key` ready the way the service does: lead it, then end the
/// pending entry with a report. A key already pending or live is left as
/// it is.
void MakeReady(PlanCache& cache, std::string_view key, double cost,
               PlanCache::Clock::time_point now) {
  if (!cache.BeginPendingAt(key, now)) return;
  auto report = std::make_shared<const QjoReport>(MakeReport(cost));
  EXPECT_TRUE(cache.EndPendingAt(key, report, now, /*warmed=*/false).empty());
}

TEST(PlanCacheTest, TtlExpiryIsNotAnEviction) {
  PlanCacheOptions options;
  options.capacity = 2;
  options.ttl_ms = 100.0;
  PlanCache cache(options);
  const auto t0 = PlanCache::Clock::now();

  MakeReady(cache, "a", 1.0, t0);
  MakeReady(cache, "b", 2.0, t0 + 10ms);
  ASSERT_NE(cache.LookupAt("a", t0 + 50ms), nullptr);  // within TTL: hit

  // Insert into the full cache after both TTLs passed: the sweep removes
  // them as ttl_expirations, never as LRU evictions.
  MakeReady(cache, "c", 3.0, t0 + 200ms);
  auto stats = cache.stats();
  EXPECT_EQ(stats.ttl_expirations, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);

  // A lookup landing on an expired entry also counts ttl_expiration +
  // miss (and removes it).
  MakeReady(cache, "d", 4.0, t0 + 200ms);
  EXPECT_EQ(cache.LookupAt("d", t0 + 400ms), nullptr);
  stats = cache.stats();
  EXPECT_EQ(stats.ttl_expirations, 3u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PlanCacheTest, LruEvictsOnlyLiveEntries) {
  PlanCacheOptions options;
  options.capacity = 2;
  options.ttl_ms = 1000.0;
  PlanCache cache(options);
  const auto t0 = PlanCache::Clock::now();

  MakeReady(cache, "a", 1.0, t0);
  MakeReady(cache, "b", 2.0, t0 + 1ms);
  // Touch "a" so "b" is the LRU victim.
  ASSERT_NE(cache.LookupAt("a", t0 + 2ms), nullptr);
  MakeReady(cache, "c", 3.0, t0 + 3ms);  // full, nothing expired
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.ttl_expirations, 0u);
  EXPECT_EQ(cache.LookupAt("b", t0 + 4ms), nullptr);   // evicted
  EXPECT_NE(cache.LookupAt("a", t0 + 4ms), nullptr);   // survived
  EXPECT_NE(cache.LookupAt("c", t0 + 4ms), nullptr);
}

TEST(PlanCacheTest, StatsReadableWhileConcurrentLookups) {
  // The relaxed-atomic stats contract: readers never block or race
  // writers (run under TSan via the concurrency label).
  PlanCache cache(PlanCacheOptions{});
  const auto t0 = PlanCache::Clock::now();
  MakeReady(cache, "hot", 1.0, t0);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)cache.stats();
    }
  });
  for (int i = 0; i < 5000; ++i) {
    (void)cache.LookupAt("hot", t0);
    (void)cache.LookupAt("cold", t0);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 5000u);
  EXPECT_EQ(stats.misses, 5000u);
}

/// Counter `name` of `metrics`; 0 when it was never counted.
uint64_t Counter(const MetricsRegistry& metrics, const std::string& name) {
  const auto snapshot = metrics.Snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(PlanCacheTest, ExportsServeGauges) {
  MetricsRegistry metrics;
  PlanCache cache(PlanCacheOptions{}, &metrics);
  const auto t0 = PlanCache::Clock::now();
  MakeReady(cache, "k", 1.0, t0);
  (void)cache.LookupAt("k", t0);
  (void)cache.LookupAt("absent", t0);
  EXPECT_EQ(Counter(metrics, "serve.cache.hits"), 1u);
  EXPECT_EQ(Counter(metrics, "serve.cache.misses"), 1u);
  EXPECT_EQ(Counter(metrics, "serve.cache.evictions"), 0u);
  EXPECT_EQ(Counter(metrics, "serve.cache.ttl_expirations"), 0u);
}

TEST(PlanCacheTest, PendingEntriesAreNeverEvictedExpiredOrListed) {
  MetricsRegistry metrics;
  PlanCacheOptions options;
  options.capacity = 1;
  options.ttl_ms = 100.0;
  PlanCache cache(options, &metrics);
  const auto t0 = PlanCache::Clock::now();

  ASSERT_TRUE(cache.BeginPendingAt("p", t0));
  EXPECT_FALSE(cache.BeginPendingAt("p", t0)) << "one leader per key";
  MakeReady(cache, "p", 9.0, t0);  // left to its leader
  ASSERT_NE(cache.PendingFollowers("p"), nullptr);

  // Capacity counts ready entries only: "b" displaces "a", never "p".
  MakeReady(cache, "a", 1.0, t0);
  MakeReady(cache, "b", 2.0, t0 + 1ms);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Long past the TTL the sweep of a full insert expires "b"; "p" stays
  // pending and is no hit.
  MakeReady(cache, "c", 3.0, t0 + 10s);
  EXPECT_EQ(cache.stats().ttl_expirations, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.LookupAt("p", t0 + 10s), nullptr);
  ASSERT_NE(cache.PendingFollowers("p"), nullptr);
  PlanCache::Clock::time_point next = PlanCache::Clock::time_point::max();
  EXPECT_TRUE(cache.ExpireFollowers(t0 + 1h, &next).empty());
  ASSERT_NE(cache.PendingFollowers("p"), nullptr);

  // The leader's epilogue makes it ready: now it is a hit.
  EXPECT_TRUE(cache
                  .EndPendingAt("p", std::make_shared<const QjoReport>(
                                         MakeReport(4.0)),
                                t0 + 10s, /*warmed=*/false)
                  .empty());
  EXPECT_EQ(cache.PendingFollowers("p"), nullptr);
  ASSERT_NE(cache.LookupAt("p", t0 + 10s), nullptr);
  EXPECT_EQ(Counter(metrics, "serve.cache.evictions"), 2u);
  EXPECT_EQ(Counter(metrics, "serve.cache.ttl_expirations"), 1u);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(ServeTest, RejectsWhenQueueFull) {
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  OptimizerService service(options);

  auto slow = service.Submit(SlowRequest());
  ASSERT_TRUE(slow.ok());
  WaitDequeued(service);  // the worker holds it; the queue is empty again

  auto queued = service.Submit(QuickRequest());
  ASSERT_TRUE(queued.ok());  // fills the queue to capacity

  // Distinct seed = distinct plan key, so this cannot coalesce onto the
  // queued request and must face the capacity check.
  double retry_after = 0.0;
  auto rejected = service.Submit(QuickRequest("default", 8), &retry_after);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(retry_after, 0.0);

  EXPECT_TRUE(std::move(slow).value().get().status.ok());
  EXPECT_TRUE(std::move(queued).value().get().status.ok());
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServeTest, TenantQuotaExactlyAtLimit) {
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 64;
  options.per_tenant_inflight = 2;
  OptimizerService service(options);

  auto a0 = service.Submit(SlowRequest("a"));
  ASSERT_TRUE(a0.ok());
  WaitDequeued(service);
  auto a1 = service.Submit(QuickRequest("a"));
  ASSERT_TRUE(a1.ok()) << "second request is exactly at the quota";

  double retry_after = 0.0;
  auto a2 = service.Submit(QuickRequest("a"), &retry_after);
  ASSERT_FALSE(a2.ok()) << "third request is over the quota";
  EXPECT_EQ(a2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(retry_after, 0.0);

  // Another tenant is unaffected by tenant a's quota.
  auto b0 = service.Submit(QuickRequest("b"));
  ASSERT_TRUE(b0.ok());

  EXPECT_TRUE(std::move(a0).value().get().status.ok());
  EXPECT_TRUE(std::move(a1).value().get().status.ok());
  EXPECT_TRUE(std::move(b0).value().get().status.ok());
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_tenant_quota, 1u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
}

// ---------------------------------------------------------------------------
// Deadlines and degradation.

TEST(ServeTest, DeadlineExpiredAtDequeueDegradesToClassical) {
  ServeOptions options;
  options.workers = 1;
  OptimizerService service(options);

  auto slow = service.Submit(SlowRequest());
  ASSERT_TRUE(slow.ok());
  WaitDequeued(service);

  // 1 ms of budget, behind a solve that takes hundreds: fully expired by
  // dequeue time. The service answers with the classical fallback rather
  // than failing.
  ServeRequest expiring = QuickRequest("default", 21);
  expiring.deadline_ms = 1.0;
  auto future = service.Submit(std::move(expiring));
  ASSERT_TRUE(future.ok());

  const ServeResult result = std::move(future).value().get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.deadline_expired_in_queue);
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.report.found_valid);
  EXPECT_TRUE(result.report.portfolio.used_classical_fallback);
  EXPECT_EQ(result.report.portfolio.winner, "classical_fallback");
  EXPECT_FALSE(result.cache_hit);

  EXPECT_TRUE(std::move(slow).value().get().status.ok());
  const auto stats = service.stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.degraded, 1u);
}

TEST(ServeTest, DegradesUnderDeadlinePressureBeforeExpiry) {
  // A huge degrade margin makes any finite-deadline request take the
  // degraded path deterministically — with budget still remaining, so
  // deadline_expired_in_queue stays false.
  ServeOptions options;
  options.workers = 1;
  options.degrade_margin_ms = 1e9;
  OptimizerService service(options);

  ServeRequest request = QuickRequest("default", 22);
  request.deadline_ms = 1e6;
  auto future = service.Submit(std::move(request));
  ASSERT_TRUE(future.ok());
  const ServeResult result = std::move(future).value().get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.deadline_expired_in_queue);
  EXPECT_TRUE(result.report.found_valid);
  EXPECT_EQ(result.report.portfolio.winner, "classical_fallback");
}

TEST(ServeTest, StopTokenCancelsMidSolve) {
  // A portfolio request with an effectively unbounded sweep budget but a
  // short deadline: the DeadlineMonitor flips the stop token mid-solve
  // and the race winds down with the classical guarantee intact. Without
  // cancellation this solve would run for minutes.
  ServeOptions options;
  options.workers = 1;
  options.degrade_margin_ms = 0.0;  // never take the degraded shortcut
  OptimizerService service(options);

  ServeRequest request;
  request.query = MakeQuery(4);
  request.config = FastConfig(23);
  request.config.backend = QjoBackend::kPortfolio;
  request.config.portfolio.sweep_budget = int64_t{1} << 40;
  request.deadline_ms = 100.0;

  const auto t0 = std::chrono::steady_clock::now();
  auto future = service.Submit(std::move(request));
  ASSERT_TRUE(future.ok());
  const ServeResult result = std::move(future).value().get();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.report.found_valid)
      << "portfolio must still hand back a valid plan after cancellation";
  // Winding down is cooperative (between rounds), so allow generous slack
  // over the 100 ms deadline — but far below the uncancelled runtime.
  EXPECT_LT(elapsed_ms, 30000.0);
}

TEST(ServeTest, PreFiredCallerTokenShortCircuitsSolve) {
  // A caller-supplied stop token is respected as-is; pre-fired, the
  // portfolio race stops immediately and the classical fallback answers.
  ServeOptions options;
  options.workers = 1;
  OptimizerService service(options);

  std::stop_source stop;
  stop.request_stop();
  ServeRequest request;
  request.query = MakeQuery(4);
  request.config = FastConfig(24);
  request.config.backend = QjoBackend::kPortfolio;
  request.config.portfolio.sweep_budget = int64_t{1} << 40;
  request.config.run.stop = stop.get_token();

  auto future = service.Submit(std::move(request));
  ASSERT_TRUE(future.ok());
  const ServeResult result = std::move(future).value().get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.report.found_valid);
  EXPECT_TRUE(result.report.portfolio.used_classical_fallback);
}

TEST(ServeTest, CallerTokenDoesNotDisableDeadline) {
  // A caller token that never fires must not take the request deadline's
  // place: the deadline still cuts the unbounded race short, within
  // StopTokenCancelsMidSolve's bound.
  ServeOptions options;
  options.workers = 1;
  options.degrade_margin_ms = 0.0;  // never take the degraded shortcut
  OptimizerService service(options);

  std::stop_source caller;
  ServeRequest request;
  request.query = MakeQuery(4);
  request.config = FastConfig(25);
  request.config.backend = QjoBackend::kPortfolio;
  request.config.portfolio.sweep_budget = int64_t{1} << 40;
  request.config.run.stop = caller.get_token();
  request.deadline_ms = 100.0;

  const auto t0 = std::chrono::steady_clock::now();
  auto future = service.Submit(std::move(request));
  ASSERT_TRUE(future.ok());
  const ServeResult result = std::move(future).value().get();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.report.found_valid);
  EXPECT_FALSE(caller.stop_requested());
  EXPECT_LT(elapsed_ms, 30000.0);
}

TEST(ServeTest, InfiniteDeadlineRunsTheFullSolve) {
  // An infinite budget never expires: the request is neither degraded nor
  // cut short by the monitor, so its full-budget answer is cached.
  ServeOptions options;
  options.workers = 1;
  OptimizerService service(options);

  ServeRequest request;
  request.query = MakeQuery(4);
  request.config = FastConfig();
  request.config.backend = QjoBackend::kPortfolio;
  request.deadline_ms = std::numeric_limits<double>::infinity();

  auto first = service.Submit(request);
  ASSERT_TRUE(first.ok());
  const ServeResult result = std::move(first).value().get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.degraded);
  EXPECT_FALSE(result.deadline_expired_in_queue);
  EXPECT_TRUE(result.report.found_valid);
  EXPECT_FALSE(result.report.portfolio.used_classical_fallback);

  auto second = service.Submit(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(std::move(second).value().get().cache_hit);
  service.Drain();
}

// ---------------------------------------------------------------------------
// Plan cache through the service.

TEST(ServeTest, CacheHitReturnsIdenticalReport) {
  ServeOptions options;
  options.workers = 1;  // serialise so the second submit sees the insert
  MetricsRegistry metrics;
  options.metrics = &metrics;
  OptimizerService service(options);

  auto first = service.Submit(QuickRequest());
  ASSERT_TRUE(first.ok());
  const ServeResult miss = std::move(first).value().get();
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.cache_hit);

  auto second = service.Submit(QuickRequest());
  ASSERT_TRUE(second.ok());
  const ServeResult hit = std::move(second).value().get();
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.report.best_cost, miss.report.best_cost);
  EXPECT_EQ(hit.report.best_order, miss.report.best_order);
  EXPECT_EQ(hit.report.stats.valid, miss.report.stats.valid);

  EXPECT_EQ(Counter(metrics, "serve.cache.hits"), 1u);
  EXPECT_EQ(Counter(metrics, "serve.cache.misses"), 1u);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(ServeTest, CacheHitResolvesInsideSubmit) {
  ServeOptions options;
  options.workers = 1;
  OptimizerService service(options);
  auto first = service.Submit(QuickRequest());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(std::move(first).value().get().status.ok());

  // The only worker is busy, yet the cached key answers at once: a hit
  // takes no queue slot and waits for no worker.
  auto blocker = service.Submit(SlowRequest());
  ASSERT_TRUE(blocker.ok());
  WaitDequeued(service);
  auto hit = service.Submit(QuickRequest());
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->wait_for(0s), std::future_status::ready);
  EXPECT_EQ(service.queued(), 0u);
  EXPECT_TRUE(hit->get().cache_hit);
  EXPECT_TRUE(std::move(blocker).value().get().status.ok());
}

/// Walks a request config's field list (serve/config_fields.h) and
/// perturbs each field in place, one at a time: a keyed field must change
/// the plan key, a neutral one must leave it equal. Every probe restores
/// its field before the next one.
class FieldProbe {
 public:
  FieldProbe(const Query& query, QjoConfig& config)
      : query_(query),
        config_(config),
        base_key_(OptimizerService::PlanKey(query, config)) {}

  int keyed() const { return keyed_; }
  int neutral() const { return neutral_; }

  void Encoding(std::vector<double>& thresholds, int& num_thresholds,
                double& omega) {
    Key("thresholds", thresholds);
    Key("num_thresholds", num_thresholds);
    Key("omega", omega);
  }

  template <typename T>
  void Key(const char* tag, T& field) {
    const T saved = field;
    Perturb(field);
    EXPECT_NE(OptimizerService::PlanKey(query_, config_), base_key_) << tag;
    field = saved;
    ++keyed_;
  }

  template <typename... Bools>
  void Flags(const char* tag, Bools&... flags) {
    int bit = 0;
    ((Key((std::string(tag) + " bit " + std::to_string(bit++)).c_str(),
          flags)),
     ...);
  }

  template <typename Struct>
  void Nested(Struct& fields, const char* = nullptr) {
    VisitFields(fields, *this);
  }

  template <typename T>
  void Neutral(const char* name, T& field) {
    const T saved = field;
    Perturb(field);
    EXPECT_EQ(OptimizerService::PlanKey(query_, config_), base_key_) << name;
    field = saved;
    ++neutral_;
  }

 private:
  // One generic perturbation per field type.
  template <typename T>
  static void Perturb(T& field) {
    if constexpr (std::is_same_v<T, bool>) {
      field = !field;
    } else if constexpr (std::is_enum_v<T>) {
      field = static_cast<T>(static_cast<int>(field) + 1);
    } else {
      static_assert(std::is_arithmetic_v<T>, "add a perturbation");
      field += 1;
    }
  }
  static void Perturb(std::string& field) { field += "x"; }
  static void Perturb(std::vector<double>& field) { field.push_back(1e3); }
  static void Perturb(std::optional<CouplingGraph>& field) {
    field = field.has_value() ? std::nullopt
                              : std::optional(MakeLineGraph(4));
  }
  void Perturb(ThreadPool*& field) { field = &pool_; }
  void Perturb(std::stop_token& field) { field = stop_.get_token(); }
  void Perturb(TraceRecorder*& field) { field = &trace_; }
  void Perturb(MetricsRegistry*& field) { field = &metrics_; }

  const Query& query_;
  QjoConfig& config_;
  const std::string base_key_;
  ThreadPool pool_{2};
  std::stop_source stop_;
  TraceRecorder trace_;
  MetricsRegistry metrics_;
  int keyed_ = 0;
  int neutral_ = 0;
};

TEST(ServeTest, PlanKeySeparatesResultDeterminingFields) {
  const Query query = MakeQuery(3);
  const QjoConfig base = FastConfig(7);
  const std::string key = OptimizerService::PlanKey(query, base);
  EXPECT_NE(key, OptimizerService::PlanKey(MakeQuery(4), base));

  // Every field of the field list: keyed ones split the key, neutral
  // ones (the RunContext's pool, stop token and sinks) do not.
  QjoConfig walked = base;
  FieldProbe probe(query, walked);
  VisitFields(walked, probe);
  EXPECT_GT(probe.keyed(), 0);
  EXPECT_GT(probe.neutral(), 0);
  EXPECT_EQ(key, OptimizerService::PlanKey(query, walked));

  // Topologies with equal qubit and edge counts still split on the edges.
  CouplingGraph path(4);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.AddEdge(2, 3);
  CouplingGraph star(4);
  star.AddEdge(0, 1);
  star.AddEdge(0, 2);
  star.AddEdge(0, 3);
  QjoConfig on_path = base;
  on_path.annealer_topology = path;
  QjoConfig on_star = base;
  on_star.annealer_topology = star;
  EXPECT_NE(OptimizerService::PlanKey(query, on_path),
            OptimizerService::PlanKey(query, on_star));
}

/// Records the name of every neutral field of a request config's field
/// list and ignores the keyed ones.
struct NeutralNames {
  std::vector<std::string> names;

  void Encoding(auto&...) {}
  void Key(const char*, auto&) {}
  void Flags(const char*, auto&...) {}
  void Nested(auto& fields, const char* = nullptr) {
    VisitFields(fields, *this);
  }
  void Neutral(const char* name, auto&) { names.emplace_back(name); }
};

TEST(ServeTest, NeutralFieldsLiveOnlyInTheRunContext) {
  // The pool, the stop token and the sinks are the RunContext's: no options struct carries a field that leaves the
  // answer unchanged, so the walk finds neutral names under `run.` only.
  QjoConfig config;
  NeutralNames visitor;
  VisitFields(config, visitor);
  EXPECT_FALSE(visitor.names.empty());
  for (const std::string& name : visitor.names) {
    EXPECT_TRUE(name.starts_with("run.")) << name;
  }
}

TEST(ServeTest, CallerCancelledAnswerIsNeitherCachedNorShared) {
  // A request whose caller-supplied stop token already fired answers with
  // a truncated race (here: the classical fallback). That answer is
  // private to the cancelled request: the same request without a token
  // must solve afresh instead of hitting a cached fallback.
  ServeOptions options;
  options.workers = 1;
  OptimizerService service(options);
  ServeRequest request;
  request.query = MakeQuery(4);
  request.config = FastConfig(7);
  request.config.backend = QjoBackend::kPortfolio;

  std::stop_source fired;
  fired.request_stop();
  ServeRequest cancelled = request;
  cancelled.config.run.stop = fired.get_token();
  auto first = service.Submit(cancelled);
  ASSERT_TRUE(first.ok());
  const ServeResult truncated = first->get();
  ASSERT_TRUE(truncated.status.ok());
  EXPECT_TRUE(truncated.report.portfolio.used_classical_fallback);

  auto second = service.Submit(request);
  ASSERT_TRUE(second.ok());
  const ServeResult full = second->get();
  ASSERT_TRUE(full.status.ok());
  EXPECT_FALSE(full.cache_hit);
  EXPECT_FALSE(full.report.portfolio.used_classical_fallback);
  service.Drain();
}

// ---------------------------------------------------------------------------
// Bit-identity.

TEST(ServeTest, BitIdenticalToDirectCallsAcrossWorkerCounts) {
  // The acceptance contract: a cache-miss response is bit-identical to
  // the direct OptimizeJoinOrder call, at any worker count and with a
  // shared pool under the futures. The nine requests have distinct plan
  // keys, so each one is a miss.
  std::vector<ServeRequest> requests;
  for (int relations = 3; relations <= 5; ++relations) {
    for (uint64_t seed : {7u, 71u, 713u}) {
      ServeRequest request;
      request.query = MakeQuery(relations);
      request.config = FastConfig(seed);
      request.config.shots = 96;
      request.tenant = std::string("t").append(std::to_string(relations));
      requests.push_back(std::move(request));
    }
  }

  std::vector<QjoReport> direct;
  direct.reserve(requests.size());
  for (const auto& request : requests) {
    auto report = OptimizeJoinOrder(request.query, request.config);
    ASSERT_TRUE(report.ok());
    direct.push_back(std::move(report).value());
  }

  for (int workers : {1, 4, 8}) {
    ThreadPool pool(4);
    ServeOptions options;
    options.workers = workers;
    options.queue_capacity = 64;
    options.pool = &pool;
    OptimizerService service(options);
    std::vector<std::future<ServeResult>> futures;
    futures.reserve(requests.size());
    for (const auto& request : requests) {
      auto future = service.Submit(request);
      ASSERT_TRUE(future.ok());
      futures.push_back(std::move(future).value());
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      const ServeResult result = futures[i].get();
      ASSERT_TRUE(result.status.ok()) << "workers=" << workers << " slot " << i;
      EXPECT_FALSE(result.cache_hit);
      EXPECT_EQ(result.report.best_cost, direct[i].best_cost)
          << "workers=" << workers << " slot " << i;
      EXPECT_EQ(result.report.best_order, direct[i].best_order);
      EXPECT_EQ(result.report.stats.valid, direct[i].stats.valid);
      EXPECT_EQ(result.report.stats.optimal, direct[i].stats.optimal);
    }
    service.Drain();
  }
}

// ---------------------------------------------------------------------------
// Lifecycle.

TEST(ServeTest, DrainWaitsForAllAdmittedRequests) {
  ServeOptions options;
  options.workers = 2;
  OptimizerService service(options);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 8; ++i) {
    const std::string tenant = std::string("t").append(std::to_string(i % 3));
    auto future =
        service.Submit(QuickRequest(tenant, static_cast<uint64_t>(i)));
    ASSERT_TRUE(future.ok());
    futures.push_back(std::move(future).value());
  }
  service.Drain();
  for (auto& future : futures) {
    // Drain implies every promise is already fulfilled.
    ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(service.stats().completed, 8u);
}

TEST(ServeTest, ShutdownFailsQueuedRequestsCleanly) {
  std::future<ServeResult> in_flight;
  std::future<ServeResult> orphaned;
  {
    ServeOptions options;
    options.workers = 1;
    OptimizerService service(options);
    auto slow = service.Submit(SlowRequest());
    ASSERT_TRUE(slow.ok());
    in_flight = std::move(slow).value();
    WaitDequeued(service);
    auto queued = service.Submit(QuickRequest());
    ASSERT_TRUE(queued.ok());
    orphaned = std::move(queued).value();
    // Service destructor runs here while the slow solve still occupies
    // the only worker: the solve runs to completion, the queued request
    // is never dispatched and fails with FailedPrecondition.
  }
  EXPECT_TRUE(in_flight.get().status.ok());
  const ServeResult result = orphaned.get();
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Retry-after hint.

TEST(RetryAfterTest, MonotoneInBacklogAndClamped) {
  const double max_ms = 500.0;
  double prev = 0.0;
  for (size_t backlog = 0; backlog <= 64; ++backlog) {
    const double hint = RetryAfterHintMs(40.0, backlog, 4, max_ms);
    EXPECT_GE(hint, prev) << "hint must grow with queue depth";
    EXPECT_LE(hint, max_ms);
    prev = hint;
  }
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(40.0, 2, 4, max_ms), 20.0);
  // A huge average saturates at the clamp instead of telling clients to
  // come back in an hour.
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(1e9, 64, 1, max_ms), max_ms);
}

TEST(RetryAfterTest, PathologicalAverageFallsBackToDefault) {
  const double pathological[] = {std::nan(""),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 -5.0, 0.0};
  for (const double avg : pathological) {
    double prev = 0.0;
    for (size_t backlog = 0; backlog <= 32; ++backlog) {
      const double hint = RetryAfterHintMs(avg, backlog, 2, 1000.0);
      EXPECT_TRUE(std::isfinite(hint)) << "avg=" << avg;
      EXPECT_GE(hint, prev);
      EXPECT_LE(hint, 1000.0);
      prev = hint;
    }
    // The default estimate (50 ms) takes over: 50 * 2 / 2 workers.
    EXPECT_DOUBLE_EQ(RetryAfterHintMs(avg, 2, 2, 1e9), 50.0);
  }
}

// ---------------------------------------------------------------------------
// Token bucket.

TEST(TokenBucketTest, BurstThenRefillDeterministically) {
  const auto t0 = TokenBucket::Clock::now();
  TokenBucket bucket(/*rate_per_sec=*/10.0, /*burst=*/2.0, t0);
  EXPECT_DOUBLE_EQ(bucket.TokensAt(t0), 2.0);  // starts full
  EXPECT_TRUE(bucket.TryAcquireAt(t0, 1.0));
  EXPECT_TRUE(bucket.TryAcquireAt(t0, 1.0));
  double retry = 0.0;
  EXPECT_FALSE(bucket.TryAcquireAt(t0, 1.0, &retry));
  EXPECT_DOUBLE_EQ(retry, 100.0);  // one token at 10/s = 100 ms away
  // 50 ms later half a token has accrued — still short for cost 1.
  EXPECT_FALSE(bucket.TryAcquireAt(t0 + 50ms, 1.0, &retry));
  EXPECT_DOUBLE_EQ(retry, 50.0);  // the hint tracks the shrinking deficit
  EXPECT_TRUE(bucket.TryAcquireAt(t0 + 100ms, 1.0));
}

TEST(TokenBucketTest, RefillCapsAtBurstAndFractionalCostsWork) {
  const auto t0 = TokenBucket::Clock::now();
  TokenBucket bucket(/*rate_per_sec=*/100.0, /*burst=*/3.0, t0);
  // An idle eternity never banks more than the burst.
  EXPECT_DOUBLE_EQ(bucket.TokensAt(t0 + std::chrono::minutes(10)), 3.0);
  // Fractional costs (the follower quota weight) debit exactly.
  EXPECT_TRUE(bucket.TryAcquireAt(t0, 0.25));
  EXPECT_DOUBLE_EQ(bucket.TokensAt(t0), 2.75);
}

TEST(ServeTest, RateLimitRejectionsUseBucketRefillHint) {
  ServeOptions options;
  options.workers = 1;
  options.tenant_rate_per_sec = 1.0;  // refill far slower than the test
  options.tenant_burst = 1.0;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  OptimizerService service(options);

  auto admitted = service.Submit(QuickRequest("t"));
  ASSERT_TRUE(admitted.ok()) << "burst admits the first request";
  double retry_after = 0.0;
  auto limited = service.Submit(QuickRequest("t", 8), &retry_after);
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
  // The bucket needs ~1 s to bank a whole token again; the queue-depth
  // estimate would have said a few hundred ms at most.
  EXPECT_GT(retry_after, 500.0);
  EXPECT_LE(retry_after, options.max_retry_after_ms);

  // Another tenant holds its own (full) bucket.
  auto other = service.Submit(QuickRequest("u", 9));
  ASSERT_TRUE(other.ok());

  EXPECT_TRUE(std::move(admitted).value().get().status.ok());
  EXPECT_TRUE(std::move(other).value().get().status.ok());
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_rate_limited, 1u);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.rejected_tenant_quota, 0u);
  EXPECT_EQ(metrics.Snapshot().counters.at("serve.rejected.rate_limited"), 1u);
}

// ---------------------------------------------------------------------------
// Single-flight coalescing.

TEST(ServeTest, CoalescesIdenticalSubmitsToOneSolve) {
  // N identical concurrent submits cost exactly one pipeline solve —
  // measured two independent ways (service solve count, thread-pool task
  // dispatches) — at any worker count, and every response is bit-identical to the
  // direct OptimizeJoinOrder call.
  ServeRequest base = SlowCoalescible("default", /*shots=*/600);

  ThreadPool pool(4);
  QjoConfig direct_config = base.config;
  direct_config.run.pool = &pool;
  const uint64_t direct_before = pool.tasks_dispatched();
  auto direct = OptimizeJoinOrder(base.query, direct_config);
  ASSERT_TRUE(direct.ok());
  const uint64_t direct_tasks = pool.tasks_dispatched() - direct_before;

  constexpr int kDuplicates = 6;
  for (int workers : {1, 4, 8}) {
    ServeOptions options;
    options.workers = workers;
    options.pool = &pool;
    OptimizerService service(options);
    const uint64_t tasks_before = pool.tasks_dispatched();
    std::vector<std::future<ServeResult>> futures;
    futures.reserve(kDuplicates);
    for (int i = 0; i < kDuplicates; ++i) {
      auto future = service.Submit(base);
      ASSERT_TRUE(future.ok()) << "workers=" << workers << " dup " << i;
      futures.push_back(std::move(future).value());
    }
    int coalesced = 0;
    for (auto& future : futures) {
      const ServeResult result = future.get();
      ASSERT_TRUE(result.status.ok()) << "workers=" << workers;
      if (result.coalesced) {
        ++coalesced;
        EXPECT_EQ(result.solve_ms, 0.0) << "followers never solve";
      }
      EXPECT_EQ(result.report.best_cost, direct->best_cost)
          << "workers=" << workers;
      EXPECT_EQ(result.report.best_order, direct->best_order);
      EXPECT_EQ(result.report.stats.valid, direct->stats.valid);
      EXPECT_EQ(result.report.stats.optimal, direct->stats.optimal);
    }
    service.Drain();
    EXPECT_EQ(coalesced, kDuplicates - 1) << "workers=" << workers;
    const auto stats = service.stats();
    EXPECT_EQ(stats.solves, 1u) << "workers=" << workers;
    EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kDuplicates - 1));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kDuplicates));
    EXPECT_EQ(pool.tasks_dispatched() - tasks_before, direct_tasks)
        << "the coalesced batch must dispatch exactly a single solve's "
           "work, workers="
        << workers;
  }
}

TEST(ServeTest, ExpiredFollowerDegradesInsteadOfWaitingForLeader) {
  ServeOptions options;
  options.workers = 1;
  OptimizerService service(options);

  // The leader occupies the only worker for on the order of a second.
  auto leader = service.Submit(SlowCoalescible("default", /*shots=*/4000));
  ASSERT_TRUE(leader.ok());
  WaitDequeued(service);

  // An identical request with a 20 ms budget coalesces onto the leader;
  // the follower reaper must answer it (degraded) on its own deadline
  // instead of letting it block until the leader finishes.
  ServeRequest dup = SlowCoalescible("default", /*shots=*/4000);
  dup.deadline_ms = 20.0;
  auto follower = service.Submit(std::move(dup));
  ASSERT_TRUE(follower.ok());
  EXPECT_EQ(service.queued(), 0u) << "a follower never takes a queue slot";

  const ServeResult result = std::move(follower).value().get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.deadline_expired_in_queue);
  EXPECT_FALSE(result.coalesced);
  EXPECT_TRUE(result.report.found_valid);
  EXPECT_EQ(result.report.portfolio.winner, "classical_fallback");

  const ServeResult leader_result = std::move(leader).value().get();
  ASSERT_TRUE(leader_result.status.ok());
  EXPECT_FALSE(leader_result.degraded) << "the leader ran its full budget";
  const auto stats = service.stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.coalesced, 0u) << "a degraded follower is not coalesced";
}

TEST(ServeTest, FollowerReRunsWhenLeaderResultIsNotShareable) {
  ServeOptions options;
  options.workers = 1;
  OptimizerService service(options);

  // A non-coalescible blocker pins the only worker.
  auto blocker = service.Submit(SlowRequest());
  ASSERT_TRUE(blocker.ok());
  WaitDequeued(service);

  // The leader queues behind it with a budget that expires before
  // dequeue, so its answer is the degraded fallback — private to its own
  // deadline, not something to fan out to the deadline-less follower.
  ServeRequest leader_request = QuickRequest("default", 99);
  leader_request.deadline_ms = 1.0;
  auto leader = service.Submit(std::move(leader_request));
  ASSERT_TRUE(leader.ok());
  auto follower = service.Submit(QuickRequest("default", 99));
  ASSERT_TRUE(follower.ok());

  const ServeResult leader_result = std::move(leader).value().get();
  ASSERT_TRUE(leader_result.status.ok());
  EXPECT_TRUE(leader_result.degraded);

  const ServeResult follower_result = std::move(follower).value().get();
  ASSERT_TRUE(follower_result.status.ok());
  EXPECT_FALSE(follower_result.coalesced) << "re-dispatched, not coalesced";
  EXPECT_FALSE(follower_result.degraded) << "the follower had no deadline";
  EXPECT_TRUE(follower_result.report.found_valid);

  EXPECT_TRUE(std::move(blocker).value().get().status.ok());
  service.Drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.solves, 2u) << "blocker + the re-run follower";
}

TEST(ServeTest, ReAdmittedFollowersKeepArrivalOrder) {
  ServeOptions options;
  options.workers = 1;
  OptimizerService service(options);

  auto blocker = service.Submit(SlowRequest());
  ASSERT_TRUE(blocker.ok());
  WaitDequeued(service);

  // The leader's 1 ms budget expires behind the blocker, so its degraded
  // answer is not shared: its followers go back through admission.
  ServeRequest leader_request = QuickRequest("default", 99);
  leader_request.deadline_ms = 1.0;
  auto leader = service.Submit(std::move(leader_request));
  ASSERT_TRUE(leader.ok());
  std::vector<std::future<ServeResult>> followers;
  for (int i = 0; i < 3; ++i) {
    auto follower = service.Submit(QuickRequest("default", 99));
    ASSERT_TRUE(follower.ok());
    followers.push_back(std::move(follower).value());
  }

  EXPECT_TRUE(std::move(leader).value().get().degraded);
  const ServeResult earliest = followers[0].get();
  ASSERT_TRUE(earliest.status.ok());
  EXPECT_FALSE(earliest.coalesced) << "the earliest follower leads the re-run";
  EXPECT_FALSE(earliest.cache_hit);
  EXPECT_FALSE(earliest.degraded);
  for (size_t i = 1; i < followers.size(); ++i) {
    const ServeResult later = followers[i].get();
    ASSERT_TRUE(later.status.ok());
    EXPECT_TRUE(later.coalesced) << "follower " << i;
    EXPECT_EQ(later.report.best_order, earliest.report.best_order);
    EXPECT_EQ(later.report.best_cost, earliest.report.best_cost);
  }
  EXPECT_TRUE(std::move(blocker).value().get().status.ok());
  service.Drain();
  EXPECT_EQ(service.stats().coalesced, 2u);
}

// ---------------------------------------------------------------------------
// Mixed load.

TEST(ServeTest, EveryAdmittedRequestResolvesUnderMixedLoad) {
  // One worker, pinned by a long solve, while the test submits each kind
  // of request admission tells apart: token-bucket, quota and queue-full
  // rejections (each with a positive retry-after hint); duplicates of a
  // key that is ready, solving or queued (the queued leader degrades, so
  // its duplicates are re-admitted); a follower whose own deadline
  // expires; and distinct keys.
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 6;
  options.per_tenant_inflight = 3;
  options.tenant_rate_per_sec = 0.5;  // refills far slower than the test
  options.tenant_burst = 6.0;
  OptimizerService service(options);

  struct Admitted {
    std::string key;  ///< names the request's plan key
    std::future<ServeResult> future;
  };
  std::vector<Admitted> admitted;
  const auto submit = [&](const std::string& key, ServeRequest request) {
    double retry_after_ms = 0.0;
    auto future = service.Submit(std::move(request), &retry_after_ms);
    if (future.ok()) {
      admitted.push_back({key, std::move(future).value()});
      return true;
    }
    EXPECT_EQ(future.status().code(), StatusCode::kResourceExhausted);
    EXPECT_GT(retry_after_ms, 0.0) << future.status().ToString();
    return false;
  };

  // A key made ready before the load starts.
  ASSERT_TRUE(submit("ready", QuickRequest("a", 40)));
  ASSERT_EQ(admitted.back().future.wait_for(60s), std::future_status::ready);

  // The leader that holds the only worker for hundreds of ms, far longer
  // than the submits below take.
  ASSERT_TRUE(submit("slow", SlowCoalescible("a")));
  WaitDequeued(service);
  // Duplicates of the solving key: one waits for its answer, one has a
  // 20 ms budget and is degraded by the reaper.
  ASSERT_TRUE(submit("slow", SlowCoalescible("b")));
  ServeRequest impatient = SlowCoalescible("b");
  impatient.deadline_ms = 20.0;
  ASSERT_TRUE(submit("slow", std::move(impatient)));

  // A queued leader whose 1 ms budget expires before dequeue, and two
  // duplicates without a deadline: the first leads the re-run, the second
  // follows it.
  ServeRequest doomed = QuickRequest("c", 41);
  doomed.deadline_ms = 1.0;
  ASSERT_TRUE(submit("doomed", std::move(doomed)));
  ASSERT_TRUE(submit("doomed", QuickRequest("c", 41)));
  ASSERT_TRUE(submit("doomed", QuickRequest("c", 41)));

  // A duplicate of the ready key answers inside Submit().
  ASSERT_TRUE(submit("ready", QuickRequest("b", 40)));

  // Tenant q fills its quota of 3 with distinct keys; a fourth is over it.
  ASSERT_TRUE(submit("q42", QuickRequest("q", 42)));
  ASSERT_TRUE(submit("q43", QuickRequest("q", 43)));
  ASSERT_TRUE(submit("q44", QuickRequest("q", 44)));
  EXPECT_FALSE(submit("q45", QuickRequest("q", 45)));

  // Tenant d fills the queue to its cap of 6: another distinct key is
  // rejected, a duplicate of a queued key still follows it.
  ASSERT_TRUE(submit("d46", QuickRequest("d", 46)));
  ASSERT_TRUE(submit("d47", QuickRequest("d", 47)));
  EXPECT_FALSE(submit("d48", QuickRequest("d", 48)));
  ASSERT_TRUE(submit("d46", QuickRequest("d", 46)));

  // Tenant r spends its burst of 6 tokens on hits; the seventh is over
  // its rate.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(submit("ready", QuickRequest("r", 40)));
  }
  EXPECT_FALSE(submit("ready", QuickRequest("r", 40)));

  // Keys that received at least one full (not degraded) answer.
  std::set<std::string> answered;
  for (Admitted& request : admitted) {
    ASSERT_EQ(request.future.wait_for(60s), std::future_status::ready)
        << request.key;
    const ServeResult result = request.future.get();
    ASSERT_TRUE(result.status.ok())
        << request.key << ": " << result.status.ToString();
    if (!result.degraded) answered.insert(request.key);
  }
  service.Drain();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected_queue_full +
                                 stats.rejected_tenant_quota +
                                 stats.rejected_rate_limited);
  EXPECT_EQ(stats.completed, admitted.size());
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.rejected_tenant_quota, 1u);
  EXPECT_EQ(stats.rejected_rate_limited, 1u);
  // One solve per key that got a full answer: ready, slow, the doomed
  // key's re-run, q42-q44, d46 and d47.
  EXPECT_EQ(answered.size(), 8u);
  EXPECT_EQ(stats.solves, answered.size());
  EXPECT_EQ(stats.degraded, 2u) << "the impatient follower, the doomed leader";
  EXPECT_EQ(stats.coalesced, 3u) << "slow, doomed and d46 duplicates";
  EXPECT_EQ(stats.cache_hits, 7u);
}

// ---------------------------------------------------------------------------
// Plan-cache warm-up.

TEST(ServeTest, WarmedEntriesServeWarmHits) {
  ServeOptions options;
  options.workers = 1;
  OptimizerService service(options);
  const std::vector<ServeRequest> templates = {
      QuickRequest("a", 7), QuickRequest("b", 8), QuickRequest("c", 9)};
  // The third template's key is not asked for, so it stays cold.
  const std::vector<std::string> keys = {
      OptimizerService::PlanKey(templates[0].query, templates[0].config),
      OptimizerService::PlanKey(templates[1].query, templates[1].config)};
  EXPECT_EQ(service.WarmUp(keys, templates), 2u);
  EXPECT_EQ(service.WarmUp(keys, templates), 0u)
      << "ready keys stay as they are";
  EXPECT_EQ(service.stats().warmed, 2u);

  for (const auto& request : templates) {
    auto future = service.Submit(request);
    ASSERT_TRUE(future.ok());
    const ServeResult result = std::move(future).value().get();
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.cache_hit, &request != &templates[2]);
  }
  service.Drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.solves, 1u) << "only the cold template solves";
  EXPECT_EQ(stats.warm_hits, 2u);
}

TEST(ServeTest, WarmHitsCountOnlyEntriesWarmUpInserted) {
  ServeOptions options;
  options.workers = 1;
  options.cache.ttl_ms = 200.0;
  OptimizerService service(options);
  const ServeRequest request = QuickRequest();
  const std::vector<ServeRequest> workload = {request};
  ASSERT_EQ(service.WarmUp({OptimizerService::PlanKey(request.query,
                                                      request.config)},
                           workload),
            1u);

  // The warmed entry expires; a live solve re-inserts the key, so the next
  // hit is served from the live solve's entry, not a warmed one.
  std::this_thread::sleep_for(300ms);
  auto solved = service.Submit(request);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->get().cache_hit);
  auto hit = service.Submit(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->get().cache_hit);
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.warm_hits, 0u);
}

}  // namespace
}  // namespace qjo
