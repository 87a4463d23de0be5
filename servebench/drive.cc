// Service set-up and the two arrival processes.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <thread>

#include "bench.h"

namespace servebench {
namespace {

using qjo::ServeResult;

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void Collect(qjo::OptimizerService& service, qjo::ThreadPool& pool,
             uint64_t pool_tasks_before, RunResult* out) {
  service.Drain();
  out->pool_tasks = pool.tasks_dispatched() - pool_tasks_before;
  out->stats = service.stats();
  if (service.plan_cache() != nullptr) {
    out->plan_cache = service.plan_cache()->stats();
  }
  if (service.build_cache() != nullptr) {
    out->build_cache = service.build_cache()->stats();
  }
}

// Closed loop: each client sends its next request only after the previous
// one resolved. The clock starts before Submit().
void DriveClosed(const Workload& workload, qjo::OptimizerService& service,
                 double seconds, SpanLog* spans, RunResult* out) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Sample>> per_client(workload.clients);
  std::vector<Clock::time_point> last_done(workload.clients, start);
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < workload.clients; ++c) {
      clients.emplace_back([&, c] {
        const uint32_t tid = static_cast<uint32_t>(c + 1);
        while (Clock::now() < end) {
          const uint64_t i = next.fetch_add(1);
          Sample sample;
          sample.index = i;
          sample.request = workload.request(i);
          qjo::ServeRequest copy = sample.request;
          const Clock::time_point t0 = Clock::now();
          auto future = service.Submit(std::move(copy));
          const Clock::time_point t1 = Clock::now();
          sample.submit_us = UsBetween(t0, t1);
          if (!future.ok()) {
            sample.refused = true;
            last_done[c] = t1;
            per_client[c].push_back(std::move(sample));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
          }
          sample.result = future->get();
          const Clock::time_point t2 = Clock::now();
          sample.latency_ms = MsBetween(t0, t2);
          last_done[c] = t2;
          if (spans != nullptr) {
            spans->Add("bench.request", i, t0, t2, tid);
            spans->Add("bench.submit", i, t0, t1, tid);
            spans->Add("bench.wait", i, t1, t2, tid);
          }
          per_client[c].push_back(std::move(sample));
        }
      });
    }
  }
  for (auto& samples : per_client) {
    for (Sample& s : samples) out->samples.push_back(std::move(s));
  }
  std::sort(out->samples.begin(), out->samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  const Clock::time_point last =
      *std::max_element(last_done.begin(), last_done.end());
  out->window_s = MsBetween(start, last) / 1000.0;
}

// Open loop: one generator thread sends request i at start + i / rate
// whatever the service does, and times it from that due time, so a stall
// also charges the requests queued behind it. Between sends the same
// thread polls the outstanding futures. It sleeps only while nothing is
// outstanding and the next send is more than kSpin away, so neither its
// own wake-up nor the observation of a resolved future adds a scheduler
// wake-up to the measured latency.
void DriveOpen(const Workload& workload, qjo::OptimizerService& service,
               double seconds, SpanLog* spans, RunResult* out) {
  constexpr auto kSpin = std::chrono::microseconds(300);
  const size_t n = static_cast<size_t>(std::ceil(workload.rate_rps * seconds));
  std::vector<Sample> samples(n);
  for (size_t i = 0; i < n; ++i) {
    samples[i].index = i;
    samples[i].request = workload.request(i);
  }

  struct Outstanding {
    size_t index;
    Clock::time_point due;
    Clock::time_point sent;
    std::future<ServeResult> future;
  };
  std::vector<Outstanding> outstanding;
  Clock::time_point last_done;
  auto poll = [&] {
    for (size_t k = 0; k < outstanding.size();) {
      Outstanding& o = outstanding[k];
      if (o.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const Clock::time_point now = Clock::now();
      Sample& sample = samples[o.index];
      sample.result = o.future.get();
      sample.latency_ms = MsBetween(o.due, now);
      last_done = std::max(last_done, now);
      if (spans != nullptr) {
        spans->Add("bench.request", o.index, o.due, now, 0);
        spans->Add("bench.wait", o.index, o.sent, now, 0);
      }
      outstanding[k] = std::move(outstanding.back());
      outstanding.pop_back();
    }
  };

  const Clock::time_point start = Clock::now();
  last_done = start;
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / workload.rate_rps));
    for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
      poll();
      if (outstanding.empty() && due - now > 2 * kSpin) {
        std::this_thread::sleep_until(due - kSpin);
      }
    }
    Sample& sample = samples[i];
    qjo::ServeRequest copy = sample.request;
    const Clock::time_point sent = Clock::now();
    auto future = service.Submit(std::move(copy));
    const Clock::time_point submitted = Clock::now();
    sample.lag_ms = MsBetween(due, sent);
    sample.submit_us = UsBetween(sent, submitted);
    if (spans != nullptr) spans->Add("bench.submit", i, sent, submitted, 0);
    if (!future.ok()) {
      sample.refused = true;
      continue;
    }
    outstanding.push_back({i, due, sent, std::move(future).value()});
  }
  while (!outstanding.empty()) poll();
  out->samples = std::move(samples);
  out->window_s = MsBetween(start, last_done) / 1000.0;
}

// The open-loop generator spin-polls while requests are outstanding. Left
// to the scheduler, a service thread it wakes can land on its CPU and wait
// for it, so open-loop runs give the generator the first CPU of the
// process's set and the service's threads (which inherit the mask of the
// thread that creates them) the rest.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0 ||
        CPU_COUNT(&all_) < 2) {
      return;
    }
    CPU_ZERO(&generator_);
    rest_ = all_;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        CPU_SET(cpu, &generator_);
        CPU_CLR(cpu, &rest_);
        break;
      }
    }
    usable_ = true;
  }
  void Service() const { Apply(rest_); }
  void Generator() const { Apply(generator_); }
  void Restore() const { Apply(all_); }

 private:
  void Apply(const cpu_set_t& set) const {
    if (usable_) sched_setaffinity(0, sizeof(set), &set);
  }
  cpu_set_t all_, generator_, rest_;
  bool usable_ = false;
};

}  // namespace

Deployment SetUp(const Workload& workload, qjo::TraceRecorder* trace,
                 qjo::MetricsRegistry* metrics) {
  const CpuSplit split;
  if (workload.open_loop) split.Service();
  Deployment deployment;
  deployment.pool = std::make_unique<qjo::ThreadPool>(workload.pool_threads);
  qjo::ServeOptions options = workload.serve;
  options.pool = deployment.pool.get();
  options.trace = trace;
  options.metrics = metrics;
  deployment.service = std::make_unique<qjo::OptimizerService>(options);
  if (!workload.warmup.empty()) {
    std::vector<std::string> keys;
    for (const qjo::ServeRequest& r : workload.warmup) {
      keys.push_back(qjo::OptimizerService::PlanKey(r.query, r.config));
    }
    deployment.service->WarmUp(keys, workload.warmup);
  }
  split.Restore();
  return deployment;
}

RunResult Drive(const Workload& workload, Deployment& deployment,
                double seconds, SpanLog* spans) {
  RunResult out;
  const uint64_t tasks_before = deployment.pool->tasks_dispatched();
  if (workload.open_loop) {
    const CpuSplit split;
    split.Generator();
    DriveOpen(workload, *deployment.service, seconds, spans, &out);
    split.Restore();
  } else {
    DriveClosed(workload, *deployment.service, seconds, spans, &out);
  }
  Collect(*deployment.service, *deployment.pool, tasks_before, &out);
  return out;
}

}  // namespace servebench
