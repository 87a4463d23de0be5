// Serving-layer load benchmark: drives the multi-tenant OptimizerService
// with the two canonical arrival processes and reports latency
// percentiles, admission-control behaviour and plan-cache effectiveness.
//
//  * Closed loop — C clients, each submitting its next request the moment
//    the previous one resolves. Measures peak sustainable throughput and
//    in-service latency with zero queue pressure from the load generator
//    itself.
//  * Open loop — requests arrive on a fixed clock at 1.5x the measured
//    closed-loop throughput (deliberate oversubscription), with a bounded
//    queue and per-request deadlines. Measures how the service sheds load:
//    ResourceExhausted rejects at the queue cap, degradation to the
//    classical fallback under deadline pressure, and the latency of what
//    still completes (open-loop latencies include queue wait, so they —
//    not the closed-loop numbers — are what a client would see under
//    overload).
//  * Duplicate-heavy profile — the same Zipf(1.1) arrival schedule
//    replayed with every request bypassing the plan table and rebuilding
//    its QUBO (baseline) and through the plan table, for both arrival
//    processes. The plan-table runs must solve each unique plan key
//    exactly once (solves_per_unique_key == 1); the baseline shows the
//    duplicate work the cache and coalescing remove.
//  * Token-bucket and warm-up scenarios — a one-tenant burst against a
//    small bucket must be rate limited with refill-derived retry hints,
//    and a drain/restart round trip through the persisted key set must
//    serve the replayed workload from warmed cache entries.
//
// Every admitted request's future must resolve: admitted != resolved is a
// silent drop and fails the bench (exit 1), as does a closed-loop p99
// above the generous smoke bound or a coalesced run that solves a unique
// key twice. Timing assertions stay loose — CI machines are noisy; the
// hard guarantees (bit-identity, admission edge cases) live in
// tests/serve_test.cc.
//
// Writes BENCH_serving.json (override with QJO_BENCH_SERVING_JSON).
// QJO_SERVING_BENCH_FAST=1 shrinks the load for the ctest / CI smoke.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "jo/query.h"
#include "jo/query_generator.h"
#include "serve/optimizer_service.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

using bench::Metric;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

struct LoadStats {
  int submitted = 0;
  int admitted = 0;
  int rejected = 0;
  int resolved = 0;
  int ok = 0;
  int failed = 0;
  int cache_hits = 0;
  int coalesced = 0;
  int degraded = 0;
  /// From the service's own counters after the drain: full pipeline
  /// solves actually run — the denominator of duplicate work.
  uint64_t solves = 0;
  double wall_ms = 0.0;
  std::vector<double> latencies_ms;  ///< submit -> future resolution, admitted only

  double throughput_rps() const {
    return wall_ms > 0.0 ? 1000.0 * resolved / wall_ms : 0.0;
  }
  double goodput_rps() const {
    return wall_ms > 0.0 ? 1000.0 * ok / wall_ms : 0.0;
  }
  double cache_hit_rate() const {
    return resolved > 0 ? static_cast<double>(cache_hits) / resolved : 0.0;
  }

  void Record(const ServeResult& result, double latency_ms) {
    ++resolved;
    latencies_ms.push_back(latency_ms);
    if (result.status.ok()) {
      ++ok;
    } else {
      ++failed;
    }
    if (result.cache_hit) ++cache_hits;
    if (result.coalesced) ++coalesced;
    if (result.degraded) ++degraded;
  }
};

void EmitCase(std::vector<Metric>* metrics, const std::string& prefix,
              const LoadStats& s) {
  metrics->push_back({prefix + "requests", static_cast<double>(s.submitted)});
  metrics->push_back({prefix + "admitted", static_cast<double>(s.admitted)});
  metrics->push_back({prefix + "rejected", static_cast<double>(s.rejected)});
  metrics->push_back({prefix + "resolved", static_cast<double>(s.resolved)});
  metrics->push_back({prefix + "failed", static_cast<double>(s.failed)});
  metrics->push_back({prefix + "degraded", static_cast<double>(s.degraded)});
  metrics->push_back({prefix + "wall_ms", s.wall_ms});
  metrics->push_back({prefix + "throughput_rps", s.throughput_rps()});
  metrics->push_back({prefix + "goodput_rps", s.goodput_rps()});
  metrics->push_back({prefix + "cache_hit_rate", s.cache_hit_rate()});
  metrics->push_back({prefix + "coalesced", static_cast<double>(s.coalesced)});
  metrics->push_back({prefix + "solves", static_cast<double>(s.solves)});
  metrics->push_back({prefix + "p50_ms", Percentile(s.latencies_ms, 50.0)});
  metrics->push_back({prefix + "p95_ms", Percentile(s.latencies_ms, 95.0)});
  metrics->push_back({prefix + "p99_ms", Percentile(s.latencies_ms, 99.0)});
  std::cout << prefix << "throughput " << s.throughput_rps() << " req/s, "
            << "goodput " << s.goodput_rps() << " req/s, p50 "
            << Percentile(s.latencies_ms, 50.0) << " ms, p95 "
            << Percentile(s.latencies_ms, 95.0) << " ms, p99 "
            << Percentile(s.latencies_ms, 99.0) << " ms, " << s.rejected
            << " rejected, " << s.coalesced << " coalesced, " << s.degraded
            << " degraded, " << s.solves << " solves, cache hit rate "
            << s.cache_hit_rate() << "\n";
}

std::vector<Query> MakeQueries(int count, int relations) {
  Rng rng(4242);
  QueryGenOptions gen;
  gen.num_relations = relations;
  gen.min_log_card = 2.0;
  gen.max_log_card = 4.0;
  std::vector<Query> queries;
  queries.reserve(count);
  const QueryGraphType graphs[] = {QueryGraphType::kChain,
                                   QueryGraphType::kStar,
                                   QueryGraphType::kCycle};
  for (int i = 0; i < count; ++i) {
    gen.graph_type = graphs[i % 3];
    auto query = GenerateQuery(gen, rng);
    if (!query.ok()) {
      std::cerr << "query generation failed: " << query.status().ToString()
                << "\n";
      std::exit(1);
    }
    queries.push_back(*std::move(query));
  }
  return queries;
}

QjoConfig MakeConfig() {
  QjoConfig config;
  config.backend = QjoBackend::kSimulatedAnnealing;
  config.shots = 32;
  config.seed = 7;
  return config;
}

ServeRequest MakeRequest(const std::vector<Query>& queries, int index,
                         int tenants, double deadline_ms) {
  ServeRequest request;
  request.query = queries[static_cast<size_t>(index) % queries.size()];
  request.config = MakeConfig();
  request.tenant = "tenant-" + std::to_string(index % tenants);
  request.deadline_ms = deadline_ms;
  return request;
}

/// Zipf-ranked indices into a query pool: rank r is drawn with weight
/// 1/(r+1)^exponent. Built once per scenario so the baseline and
/// coalesced runs replay the *same* arrival sequence.
std::vector<int> ZipfSchedule(int total, int pool_size, double exponent,
                              uint64_t seed) {
  std::vector<double> cdf(pool_size, 0.0);
  double sum = 0.0;
  for (int r = 0; r < pool_size; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[static_cast<size_t>(r)] = sum;
  }
  Rng rng(seed);
  std::vector<int> schedule;
  schedule.reserve(total);
  for (int i = 0; i < total; ++i) {
    const double u = rng.UniformDouble() * sum;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    schedule.push_back(static_cast<int>(it - cdf.begin()));
  }
  return schedule;
}

int UniqueCount(const std::vector<int>& schedule) {
  std::vector<int> sorted = schedule;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return static_cast<int>(sorted.size());
}

void FinishRun(OptimizerService* service, LoadStats* stats) {
  service->Drain();
  const auto service_stats = service->stats();
  stats->solves = service_stats.solves;
}

/// Closed loop: `clients` threads, each keeping exactly one request in
/// flight until the whole schedule has been submitted.
LoadStats RunClosedLoop(const std::vector<ServeRequest>& schedule,
                        ThreadPool* pool, int clients, ServeOptions options) {
  options.workers = clients;
  options.pool = pool;
  OptimizerService service(options);

  std::mutex mutex;  // guards the shared stats
  LoadStats stats;
  std::atomic<int> next{0};
  const int total = static_cast<int>(schedule.size());
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (int i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
          auto submit = std::chrono::steady_clock::now();
          auto future = service.Submit(schedule[static_cast<size_t>(i)]);
          if (!future.ok()) {
            std::lock_guard<std::mutex> lock(mutex);
            ++stats.submitted;
            ++stats.rejected;
            continue;
          }
          ServeResult result = std::move(future).value().get();
          const double latency_ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - submit)
                  .count();
          std::lock_guard<std::mutex> lock(mutex);
          ++stats.submitted;
          ++stats.admitted;
          stats.Record(result, latency_ms);
        }
      });
    }
  }
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  FinishRun(&service, &stats);
  return stats;
}

/// Open loop: submit on a fixed arrival clock regardless of completions;
/// the service's admission control is what bounds the backlog.
LoadStats RunOpenLoop(const std::vector<ServeRequest>& schedule,
                      ThreadPool* pool, int workers, double inter_arrival_ms,
                      ServeOptions options) {
  options.workers = workers;
  options.pool = pool;
  OptimizerService service(options);

  LoadStats stats;
  struct InFlight {
    std::chrono::steady_clock::time_point submit;
    std::future<ServeResult> future;
  };
  std::vector<InFlight> in_flight;
  in_flight.reserve(schedule.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const auto arrival =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::milli>(
                     static_cast<double>(i) * inter_arrival_ms));
    std::this_thread::sleep_until(arrival);
    ++stats.submitted;
    auto future = service.Submit(schedule[i]);
    if (!future.ok()) {
      ++stats.rejected;
      continue;
    }
    ++stats.admitted;
    in_flight.push_back(
        {std::chrono::steady_clock::now(), std::move(future).value()});
  }
  for (auto& flight : in_flight) {
    ServeResult result = flight.future.get();
    stats.Record(result, std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - flight.submit)
                             .count());
  }
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  FinishRun(&service, &stats);
  return stats;
}

/// Uniform round-robin schedule over the query pool (the original
/// arrival mix: every query equally hot, tenants interleaved).
std::vector<ServeRequest> UniformSchedule(const std::vector<Query>& queries,
                                          int total, int tenants,
                                          double deadline_ms) {
  std::vector<ServeRequest> schedule;
  schedule.reserve(total);
  for (int i = 0; i < total; ++i) {
    schedule.push_back(MakeRequest(queries, i, tenants, deadline_ms));
  }
  return schedule;
}

/// Token-bucket scenario: one tenant bursting distinct-key requests far
/// past its configured rate; counts bucket rejections and checks that
/// every rejection carried a refill-derived retry-after hint.
uint64_t RunRateLimitScenario(ThreadPool* pool, std::vector<Metric>* metrics,
                              bool* hints_ok) {
  ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 256;
  options.tenant_rate_per_sec = 50.0;
  options.tenant_burst = 4.0;
  options.pool = pool;
  OptimizerService service(options);

  const int burst = 32;
  std::vector<Query> queries = MakeQueries(1, 5);
  std::vector<std::future<ServeResult>> futures;
  *hints_ok = true;
  for (int i = 0; i < burst; ++i) {
    ServeRequest request;
    request.query = queries[0];
    request.config = MakeConfig();
    request.config.seed = 1000 + i;  // distinct keys: no coalescing discount
    double retry_after_ms = 0.0;
    auto future = service.Submit(std::move(request), &retry_after_ms);
    if (future.ok()) {
      futures.push_back(std::move(future).value());
    } else if (retry_after_ms <= 0.0) {
      *hints_ok = false;
    }
  }
  for (auto& future : futures) future.get();
  service.Drain();
  const uint64_t ratelimited = service.stats().rejected_rate_limited;
  metrics->push_back({"ratelimit_burst", static_cast<double>(burst)});
  metrics->push_back({"ratelimit_admitted",
                      static_cast<double>(futures.size())});
  std::cout << "rate limit: " << burst << " burst submits at 50/s bucket -> "
            << ratelimited << " rate-limited, " << futures.size()
            << " admitted\n";
  return ratelimited;
}

/// Warm-up scenario: service A solves a small workload and persists its
/// plan-cache key set on Drain(); service B loads the keys, replays the
/// workload through WarmUp() and serves the same requests as warm hits
/// without a single solve.
uint64_t RunWarmupScenario(ThreadPool* pool, std::vector<Metric>* metrics) {
  const std::string key_file = "BENCH_serving_warmup_keys.tmp";
  std::vector<Query> queries = MakeQueries(4, 5);
  std::vector<ServeRequest> workload;
  for (int i = 0; i < 4; ++i) {
    ServeRequest request;
    request.query = queries[static_cast<size_t>(i)];
    request.config = MakeConfig();
    workload.push_back(std::move(request));
  }

  ServeOptions options;
  options.workers = 2;
  options.warmup_file = key_file;
  options.pool = pool;
  {
    OptimizerService first(options);
    std::vector<std::future<ServeResult>> futures;
    for (const auto& request : workload) {
      auto future = first.Submit(request);
      if (future.ok()) futures.push_back(std::move(future).value());
    }
    for (auto& future : futures) future.get();
    first.Drain();  // persists the key set to key_file
  }

  OptimizerService second(options);
  const size_t warmed = second.WarmUp(workload);
  std::vector<std::future<ServeResult>> futures;
  for (const auto& request : workload) {
    auto future = second.Submit(request);
    if (future.ok()) futures.push_back(std::move(future).value());
  }
  for (auto& future : futures) future.get();
  second.Drain();
  const auto stats = second.stats();
  std::remove(key_file.c_str());
  metrics->push_back({"cache_warmed", static_cast<double>(warmed)});
  std::cout << "warm-up: " << warmed << " keys warmed from " << key_file
            << ", " << stats.warm_hits << " warm hits, " << stats.solves
            << " solves after restart\n";
  return stats.warm_hits;
}

int RunSuite() {
  const bool fast = std::getenv("QJO_SERVING_BENCH_FAST") != nullptr;
  const int parallelism = bench::Parallelism();

  bench::Banner("serving_load",
                "multi-tenant serving layer under open/closed-loop load");
  bench::PaperNote(
      "the co-design question at the systems layer: a quantum-portfolio "
      "optimiser only displaces a classical one if a shared service can "
      "admit, cache, deadline and degrade thousands of requests");

  const int clients = fast ? 4 : 8;
  const int closed_total = fast ? 48 : 320;
  const int open_total = fast ? 48 : 240;
  const int dup_total = fast ? 32 : 96;
  const int dup_pool = fast ? 8 : 12;
  const int tenants = 4;
  const int query_pool = 6;

  std::vector<Query> queries = MakeQueries(query_pool, 5);
  ThreadPool pool(parallelism);

  std::vector<Metric> metrics;
  metrics.push_back({"simd_isa",
                     static_cast<double>(static_cast<int>(Simd().isa))});
  metrics.push_back({"parallelism", static_cast<double>(parallelism)});
  metrics.push_back({"fast_mode", fast ? 1.0 : 0.0});
  metrics.push_back({"tenants", static_cast<double>(tenants)});
  metrics.push_back({"query_pool", static_cast<double>(query_pool)});
  metrics.push_back({"closed_clients", static_cast<double>(clients)});

  std::cout << "closed loop: " << clients << " clients, " << closed_total
            << " requests\n";
  ServeOptions closed_options;
  closed_options.queue_capacity = static_cast<size_t>(2 * clients);
  LoadStats closed =
      RunClosedLoop(UniformSchedule(queries, closed_total, tenants, -1.0),
                    &pool, clients, closed_options);
  EmitCase(&metrics, "closed_", closed);

  // Open loop at 1.5x the closed-loop sustainable rate: admission control
  // has to shed the excess.
  const double sustainable_rps = std::max(1.0, closed.throughput_rps());
  const double inter_arrival_ms = 1000.0 / (1.5 * sustainable_rps);
  const double deadline_ms = fast ? 250.0 : 500.0;
  const size_t queue_cap = fast ? 8 : 16;
  std::cout << "open loop: " << open_total << " arrivals every "
            << inter_arrival_ms << " ms (1.5x closed-loop rate), deadline "
            << deadline_ms << " ms, queue cap " << queue_cap << "\n";
  ServeOptions open_options;
  open_options.queue_capacity = queue_cap;
  open_options.default_deadline_ms = deadline_ms;
  LoadStats open =
      RunOpenLoop(UniformSchedule(queries, open_total, tenants, deadline_ms),
                  &pool, clients, inter_arrival_ms, open_options);
  metrics.push_back({"open_offered_rps", 1000.0 / inter_arrival_ms});
  metrics.push_back({"open_deadline_ms", deadline_ms});
  metrics.push_back({"open_queue_capacity", static_cast<double>(queue_cap)});
  EmitCase(&metrics, "open_", open);

  // --- Duplicate-heavy profile: Zipf(1.1) arrivals over a fresh pool,
  // baseline (coalescing + build-cache sharing off, per-request plan
  // cache as before this feature) vs coalesced (defaults), replaying the
  // *identical* schedule for both arrival processes. No deadlines and an
  // effectively unbounded queue: the variable under test is duplicate
  // work, not load shedding. The first `clients` arrivals are pinned to
  // the hottest key so the closed loop's opening salvo is guaranteed to
  // carry concurrent duplicates for the single-flight gate.
  std::vector<Query> dup_queries = MakeQueries(dup_pool, 6);
  std::vector<int> picks = ZipfSchedule(dup_total, dup_pool, 1.1, 99);
  for (int i = 1; i < clients && i < static_cast<int>(picks.size()); ++i) {
    picks[static_cast<size_t>(i)] = picks[0];
  }
  const int dup_unique = UniqueCount(picks);
  std::vector<ServeRequest> dup_schedule;
  dup_schedule.reserve(picks.size());
  for (size_t i = 0; i < picks.size(); ++i) {
    ServeRequest request;
    request.query = dup_queries[static_cast<size_t>(picks[i])];
    request.config = MakeConfig();
    request.config.shots = 48;
    request.tenant = "tenant-" + std::to_string(i % tenants);
    dup_schedule.push_back(std::move(request));
  }
  metrics.push_back({"dup_requests", static_cast<double>(dup_total)});
  metrics.push_back({"dup_unique_keys", static_cast<double>(dup_unique)});

  // Baseline: every request bypasses the plan table (no cache hits, no
  // coalescing) and rebuilds its QUBO.
  std::vector<ServeRequest> dup_bypass = dup_schedule;
  for (ServeRequest& request : dup_bypass) request.bypass_cache = true;
  ServeOptions dup_options;
  dup_options.queue_capacity = 4096;
  ServeOptions dup_baseline = dup_options;
  dup_baseline.share_build_cache = false;

  std::cout << "duplicate-heavy closed loop: " << dup_total
            << " Zipf arrivals, " << dup_unique << " unique keys\n";
  LoadStats dup_closed_base =
      RunClosedLoop(dup_bypass, &pool, clients, dup_baseline);
  EmitCase(&metrics, "dup_closed_baseline_", dup_closed_base);
  LoadStats dup_closed_coal =
      RunClosedLoop(dup_schedule, &pool, clients, dup_options);
  EmitCase(&metrics, "dup_closed_coalesced_", dup_closed_coal);

  // Open-loop arrivals at 1.2x the baseline's closed-loop throughput:
  // fast enough that duplicates overlap in flight, slow enough that the
  // baseline still finishes without shedding.
  const double dup_rate = std::max(1.0, dup_closed_base.throughput_rps());
  const double dup_inter_ms = 1000.0 / (1.2 * dup_rate);
  std::cout << "duplicate-heavy open loop: arrivals every " << dup_inter_ms
            << " ms (1.2x duplicate closed-loop rate)\n";
  LoadStats dup_open_base =
      RunOpenLoop(dup_bypass, &pool, clients, dup_inter_ms, dup_baseline);
  EmitCase(&metrics, "dup_open_baseline_", dup_open_base);
  LoadStats dup_open_coal =
      RunOpenLoop(dup_schedule, &pool, clients, dup_inter_ms, dup_options);
  EmitCase(&metrics, "dup_open_coalesced_", dup_open_coal);

  const uint64_t coalesced_total = static_cast<uint64_t>(
      dup_closed_coal.coalesced + dup_open_coal.coalesced);
  const double solves_per_unique_key =
      dup_unique > 0
          ? static_cast<double>(dup_open_coal.solves) / dup_unique
          : 0.0;
  metrics.push_back({"coalesced", static_cast<double>(coalesced_total)});
  metrics.push_back({"solves_per_unique_key", solves_per_unique_key});

  // --- Token-bucket and warm-up scenarios. ---
  bool ratelimit_hints_ok = true;
  const uint64_t ratelimited =
      RunRateLimitScenario(&pool, &metrics, &ratelimit_hints_ok);
  metrics.push_back({"ratelimited", static_cast<double>(ratelimited)});
  const uint64_t cache_warm_hits = RunWarmupScenario(&pool, &metrics);
  metrics.push_back({"cache_warm_hits", static_cast<double>(cache_warm_hits)});

  // --- Smoke gates. ---
  const LoadStats* all_runs[] = {&closed,          &open,
                                 &dup_closed_base, &dup_closed_coal,
                                 &dup_open_base,   &dup_open_coal};
  // Silent drops: every admitted request must resolve its future.
  int silent_drops = 0;
  bool accounting_exact = true;
  for (const LoadStats* run : all_runs) {
    silent_drops += run->admitted - run->resolved;
    // Accounting: submit either admits or rejects, nothing else.
    accounting_exact =
        accounting_exact && run->submitted == run->admitted + run->rejected;
  }
  metrics.push_back({"silent_drops", static_cast<double>(silent_drops)});
  // Generous p99 bound for the closed loop (no queue oversubscription, so
  // latency is essentially solve time; the bound only catches pathologies
  // like a wedged worker or a lost wakeup).
  const double p99_bound_ms = 5000.0;
  const double closed_p99 = Percentile(closed.latencies_ms, 99.0);
  metrics.push_back({"closed_p99_bound_ms", p99_bound_ms});

  bool ok = true;
  if (silent_drops != 0) {
    std::cerr << "FAIL: " << silent_drops << " admitted futures never resolved\n";
    ok = false;
  }
  if (!accounting_exact) {
    std::cerr << "FAIL: admit/reject accounting does not add up\n";
    ok = false;
  }
  if (closed.failed != 0) {
    std::cerr << "FAIL: " << closed.failed
              << " closed-loop requests returned an error status\n";
    ok = false;
  }
  if (closed_p99 > p99_bound_ms) {
    std::cerr << "FAIL: closed-loop p99 " << closed_p99 << " ms exceeds "
              << p99_bound_ms << " ms\n";
    ok = false;
  }
  // Single-flight: with coalescing on, no deadlines and an uncapped
  // queue, every duplicate either attaches to an in-flight leader or
  // hits the plan cache — the coalesced runs must solve each unique key
  // exactly once.
  if (dup_closed_coal.solves != static_cast<uint64_t>(dup_unique)) {
    std::cerr << "FAIL: duplicate-heavy closed loop ran "
              << dup_closed_coal.solves << " solves for " << dup_unique
              << " unique keys with coalescing on\n";
    ok = false;
  }
  if (dup_open_coal.solves != static_cast<uint64_t>(dup_unique)) {
    std::cerr << "FAIL: duplicate-heavy open loop ran " << dup_open_coal.solves
              << " solves for " << dup_unique
              << " unique keys with coalescing on\n";
    ok = false;
  }
  if (coalesced_total == 0) {
    std::cerr << "FAIL: duplicate-heavy runs coalesced nothing (the opening "
                 "salvo pins concurrent duplicates, so this should be "
                 "impossible)\n";
    ok = false;
  }
  if (dup_closed_coal.failed != 0 || dup_open_coal.failed != 0 ||
      dup_closed_base.failed != 0 || dup_open_base.failed != 0) {
    std::cerr << "FAIL: duplicate-heavy requests returned an error status\n";
    ok = false;
  }
  if (ratelimited == 0) {
    std::cerr << "FAIL: 32-deep burst against a burst-4 token bucket was "
                 "never rate limited\n";
    ok = false;
  }
  if (!ratelimit_hints_ok) {
    std::cerr << "FAIL: a rate-limit rejection carried no positive "
                 "retry-after hint\n";
    ok = false;
  }
  if (cache_warm_hits < 1) {
    std::cerr << "FAIL: warm-up round trip produced no warm cache hits\n";
    ok = false;
  }
  metrics.push_back({"smoke_ok", ok ? 1.0 : 0.0});

  const char* json_path = std::getenv("QJO_BENCH_SERVING_JSON");
  const std::string path =
      json_path != nullptr ? json_path : "BENCH_serving.json";
  bench::WriteJson(path, metrics);

  return ok ? 0 : 1;
}

}  // namespace
}  // namespace qjo

int main() { return qjo::RunSuite(); }
