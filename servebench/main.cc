// servebench: the served-request benchmark of the join-order optimizer.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <file>] [--commit <id>] [--source-digest <hex>]
//
// --trace 0 measures the end-to-end metrics with every observability sink
// off. --trace 1 is the separate traced run: an untraced half window, a
// half window with the program's TraceRecorder/MetricsRegistry attached
// and benchmark-side spans recorded, then a replay of each unique request
// through the public layer functions. It prints the per-layer metrics and
// writes a Chrome trace. The last stdout line is always one JSON object
// with the keys correct, attempted, failed and metrics. Any failed answer
// check exits with code 1; bad arguments exit with code 2.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "circuit/qaoa_builder.h"
#include "core/qubo_cache.h"
#include "embedding/minor_embedding.h"
#include "topology/vendor_topologies.h"
#include "transpiler/transpiler.h"
#include "util/random.h"
#include "util/simd.h"

#ifndef QJO_BENCH_COMPILER
#define QJO_BENCH_COMPILER "unknown"
#endif
#ifndef QJO_BENCH_BUILD_TYPE
#define QJO_BENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

// Set-ups per run: at least kMinSetups, and more while they add up to
// less than kSetupBudgetS (a bare pool + service takes ~0.1 ms, so one
// sample would be mostly scheduler noise). setup_s is their median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 101;
constexpr double kSetupBudgetS = 0.5;
// A refused or failed request is infinitely late; JSON has no infinity,
// so such a percentile is reported as this many milliseconds.
constexpr double kInfiniteMs = 1e9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0) || args->seconds > 600.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = kInfiniteMs;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- Metrics, printed in the order they were set. ---

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< percentile and sample count, for the text line
};

class MetricSet {
 public:
  void Set(const std::string& name, const std::string& unit, double value,
           std::string note = "") {
    if (!std::isfinite(value)) value = kInfiniteMs;
    metrics_.push_back({name, unit, value, std::move(note)});
  }
  // p50 and tail of raw samples as `<prefix>.p50` and `<prefix>.tail`.
  void SetP50Tail(const std::string& prefix, const std::string& unit,
                  const std::vector<double>& values) {
    SetP50(prefix + ".p50", unit, values);
    const Tail tail = TailOf(values);
    Set(prefix + ".tail", unit, tail.value, TailNote(tail));
  }
  void SetP50(const std::string& name, const std::string& unit,
              const std::vector<double>& values) {
    Set(name, unit, Percentile(values, 0.5),
        "n=" + std::to_string(values.size()));
  }
  static std::string TailNote(const Tail& tail) {
    std::ostringstream os;
    os << "p" << tail.percentile << " n=" << tail.samples;
    return os.str();
  }
  void Print(std::ostream& os) const {
    for (const Metric& m : metrics_) {
      os << "metric " << m.name << " = " << Num(m.value) << " " << m.unit;
      if (!m.note.empty()) os << "  (" << m.note << ")";
      os << "\n";
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i > 0) out += ", ";
      out += JsonString(m.name) + ": {\"value\": " + Num(m.value) +
             ", \"unit\": " + JsonString(m.unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

void PrintHost(const Args& args) {
  const char* simd_env = std::getenv("QJO_SIMD");
  std::cout << "host {\"nproc\": " << Nproc()
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"simd\": " << JsonString(qjo::Simd().name)
            << ", \"qjo_simd_env\": "
            << JsonString(simd_env != nullptr ? simd_env : "")
            << ", \"compiler\": " << JsonString(QJO_BENCH_COMPILER)
            << ", \"build_type\": " << JsonString(QJO_BENCH_BUILD_TYPE)
            << ", \"commit\": " << JsonString(args.commit)
            << ", \"source_digest\": " << JsonString(args.source_digest)
            << ", \"workload\": " << JsonString(args.workload)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << Num(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";
}

bool Answered(const Sample& s) { return !s.refused && s.result.status.ok(); }

std::vector<double> Latencies(const RunResult& run) {
  std::vector<double> out;
  for (const Sample& s : run.samples) {
    out.push_back(Answered(s) ? s.latency_ms
                              : std::numeric_limits<double>::infinity());
  }
  return out;
}

// The end-to-end metrics of one measured window.
void EndToEnd(const Workload& workload, const RunResult& run,
              const CheckSummary& checks, const std::vector<double>& setup_s,
              MetricSet* out) {
  const std::vector<double> latency = Latencies(run);
  out->SetP50("latency_p50_ms", "ms", latency);
  const Tail tail = TailOf(latency, workload.tail_percentile);
  out->Set("latency_tail_ms", "ms", tail.value, MetricSet::TailNote(tail));
  out->Set("throughput_rps", "req/s",
           Ratio(static_cast<double>(checks.attempted - checks.failed),
                 run.window_s));
  out->Set("plan_cost_ratio", "ratio", checks.plan_cost_ratio,
           "over " + std::to_string(checks.plan_scored) + " plans");
  const double attempted = static_cast<double>(checks.attempted);
  out->Set("plan_found_ratio", "share",
           Ratio(static_cast<double>(checks.answered), attempted),
           std::to_string(checks.no_plan) + " answers without a valid plan");
  // The share complements of degraded_ratio and error_ratio: the regression
  // gate divides by the median, and those two read 0 on a healthy build.
  out->Set("full_pipeline_ratio", "share",
           1.0 - Ratio(static_cast<double>(checks.degraded), attempted),
           "degraded_ratio=" +
               Num(Ratio(static_cast<double>(checks.degraded), attempted)));
  out->Set("ok_ratio", "share",
           1.0 - Ratio(static_cast<double>(checks.failed), attempted),
           "error_ratio=" +
               Num(Ratio(static_cast<double>(checks.failed), attempted)));
  out->Set("setup_s", "s", Percentile(setup_s, 0.5),
           "median of " + std::to_string(setup_s.size()) + " set-ups");
  out->Set("peak_rss_mb", "MB", PeakRssMb());
}

// --- The traced run's replay through the public layer functions. ---

struct Replay {
  std::vector<double> plan_key_us;
  uint64_t compared = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;
};

Replay ReplayRequests(const Workload& workload, const RunResult& run,
                      qjo::ThreadPool* pool, References& references,
                      SpanLog& spans) {
  Replay replay;
  // Group the window's samples by plan key, in request order.
  std::vector<std::string> order;
  std::map<std::string, std::vector<const Sample*>> by_key;
  for (const Sample& s : run.samples) {
    const Clock::time_point t0 = Clock::now();
    std::string key =
        qjo::OptimizerService::PlanKey(s.request.query, s.request.config);
    const Clock::time_point t1 = Clock::now();
    replay.plan_key_us.push_back(MsBetween(t0, t1) * 1000.0);
    auto& group = by_key[key];
    if (group.empty()) order.push_back(key);
    group.push_back(&s);
  }
  for (const std::string& key : order) {
    const std::vector<const Sample*>& group = by_key[key];
    const Sample& first = *group.front();
    const qjo::Query& query = first.request.query;
    const qjo::QjoConfig& config = first.request.config;
    const uint64_t id = first.index;
    auto timed = [&](const char* name, auto&& body) {
      const Clock::time_point t0 = Clock::now();
      body();
      spans.Add(name, id, t0, Clock::now(), 0);
    };
    const Clock::time_point root = Clock::now();
    timed("serve.plan_key", [&] {
      (void)qjo::OptimizerService::PlanKey(query, config);
    });
    std::shared_ptr<const qjo::JoQuboEncoding> encoding;
    timed("core.encode", [&] {
      qjo::JoEncodingOptions options;
      options.thresholds = config.thresholds;
      options.num_thresholds = config.num_thresholds;
      options.omega = config.omega;
      auto built = qjo::BuildJoQuboEncoding(query, options);
      if (built.ok()) encoding = std::move(built).value();
    });
    timed("jo.oracle", [&] { (void)references.Get(query); });
    if (encoding != nullptr &&
        config.backend == qjo::QjoBackend::kQuantumAnnealerSim) {
      timed("embedding.find", [&] {
        auto pegasus = qjo::MakePegasus(6);
        qjo::Rng rng(config.seed);
        if (pegasus.ok()) {
          (void)qjo::FindMinorEmbedding(
              encoding->encoding.qubo.Edges(),
              encoding->encoding.qubo.num_variables(), *pegasus,
              config.embedding, rng);
        }
      });
    }
    if (encoding != nullptr &&
        config.backend == qjo::QjoBackend::kQaoaSimulator &&
        Answered(first)) {
      timed("transpiler.transpile", [&] {
        qjo::QaoaParameters params;
        params.gammas = {first.result.report.gate.gamma};
        params.betas = {first.result.report.gate.beta};
        auto circuit = qjo::BuildQaoaCircuit(encoding->encoding.qubo, params);
        if (circuit.ok()) {
          (void)qjo::Transpile(*circuit, qjo::MakeIbmFalcon27(),
                               config.transpile);
        }
      });
    }
    // Determinism contract: a served report that no deadline could have
    // truncated (every request of a deadline-free workload; cache hits and
    // coalesced copies, which the service only shares when untruncated) is
    // bit-identical to a direct OptimizeJoinOrder of the same request.
    std::vector<const Sample*> to_compare;
    for (const Sample* s : group) {
      if (!s->refused && s->result.status.ok() && !s->result.degraded &&
          (workload.deadline_free || s->result.cache_hit ||
           s->result.coalesced)) {
        to_compare.push_back(s);
      }
    }
    if (!to_compare.empty()) {
      std::optional<qjo::StatusOr<qjo::QjoReport>> direct;
      timed("core.optimize_join_order", [&] {
        qjo::QjoConfig direct_config = config;
        direct_config.run.pool = pool;
        direct = qjo::OptimizeJoinOrder(query, direct_config);
      });
      for (const Sample* s : to_compare) {
        ++replay.compared;
        const std::string diff =
            direct->ok()
                ? ReportDiff(s->result.report, **direct)
                : "direct call failed: " + direct->status().ToString();
        if (!diff.empty()) {
          ++replay.mismatches;
          if (replay.errors.size() < 5) {
            replay.errors.push_back("request " + std::to_string(s->index) +
                                    " differs from a direct solve in " + diff);
          }
        }
      }
    }
    spans.Add("bench.replay", id, root, Clock::now(), 0);
  }
  return replay;
}

// Self time of each benchmark span name: its duration minus the part its
// direct children (same request and thread, nested interval) cover.
std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans) {
  std::map<std::pair<uint64_t, uint32_t>, std::vector<const Span*>> groups;
  for (const Span& s : spans) groups[{s.request, s.tid}].push_back(&s);
  auto contains = [](const Span* outer, const Span* inner) {
    return outer->start <= inner->start && inner->end <= outer->end;
  };
  std::map<std::string, double> self;
  for (auto& [id, group] : groups) {
    // Parents sort before their children: earlier start, then longer.
    std::sort(group.begin(), group.end(), [](const Span* a, const Span* b) {
      return a->start != b->start ? a->start < b->start : a->end > b->end;
    });
    for (size_t p = 0; p < group.size(); ++p) {
      double covered = 0.0;
      for (size_t c = p + 1; c < group.size(); ++c) {
        if (!contains(group[p], group[c])) continue;
        bool direct = true;
        for (size_t m = p + 1; m < c && direct; ++m) {
          direct = !(contains(group[p], group[m]) &&
                     contains(group[m], group[c]));
        }
        if (direct) covered += MsBetween(group[c]->start, group[c]->end);
      }
      self[group[p]->name] += std::max(
          0.0, MsBetween(group[p]->start, group[p]->end) - covered);
    }
  }
  return self;
}

bool WriteChromeTrace(const std::string& path, const qjo::TraceRecorder& trace,
                      const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const qjo::TraceEvent& e : trace.Snapshot()) {
    sep();
    os << "{\"name\": " << JsonString(e.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": " << Num(e.start_ns / 1000.0)
       << ", \"dur\": " << Num(e.duration_ns / 1000.0) << "}";
  }
  for (const Span& s : spans) {
    sep();
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - trace.epoch())
            .count();
    os << "{\"name\": " << JsonString(s.name)
       << ", \"ph\": \"X\", \"pid\": 2, \"tid\": " << s.tid
       << ", \"ts\": " << Num(ts)
       << ", \"dur\": " << Num(MsBetween(s.start, s.end) * 1000.0)
       << ", \"args\": {\"request\": " << s.request << "}}";
  }
  os << "],\n\"otherData\": {\"pid 1\": \"program (TraceRecorder)\", "
        "\"pid 2\": \"benchmark spans\"}}\n";
  return static_cast<bool>(os);
}

// Per-layer metrics of the traced window and its replay.
void PerLayer(const RunResult& run, const Replay& replay,
              double untraced_p50_ms, uint64_t check_mismatches,
              MetricSet* out) {
  std::vector<double> submit_us, queue_ms, solve_ms, handoff_ms, lag_ms;
  std::vector<double> encode_ms, race_ms, post_ms, oracle_ms, qubo_vars;
  std::vector<double> embed_ms, phys_qubits, max_chain, anneal_ms;
  std::vector<double> qaoa_run_ms, qaoa_angles_ms, sample_ms;
  std::vector<double> transpile_ms, depth, two_qubit;
  uint64_t coalesced = 0, races = 0, races_feasible = 0;
  uint64_t annealer_requests = 0, embed_fail = 0;
  double unattributed = 0.0, latency_sum = 0.0;
  std::set<std::string> keys;
  struct StrandAgg {
    std::vector<double> ms;
    double sweeps = 0.0, seconds = 0.0;
    std::vector<double> to_incumbent;
    uint64_t races = 0, wins = 0;
  };
  std::map<std::string, StrandAgg> strands;
  for (const char* s : {"exact", "sa", "tabu", "sqa", "qaoa", "decomp"}) {
    strands[s];
  }

  for (const Sample& s : run.samples) {
    keys.insert(qjo::OptimizerService::PlanKey(s.request.query,
                                               s.request.config));
    submit_us.push_back(s.submit_us);
    lag_ms.push_back(s.lag_ms);
    const qjo::QjoBackend backend = s.request.config.backend;
    if (backend == qjo::QjoBackend::kQuantumAnnealerSim) ++annealer_requests;
    if (s.refused) continue;
    const qjo::ServeResult& r = s.result;
    if (r.status.code() == qjo::StatusCode::kNotFound) ++embed_fail;
    if (!r.status.ok()) continue;
    queue_ms.push_back(r.queue_ms);
    solve_ms.push_back(r.solve_ms);
    const double handoff = s.latency_ms - r.queue_ms - r.solve_ms;
    handoff_ms.push_back(handoff);
    latency_sum += s.latency_ms;
    unattributed +=
        std::max(0.0, handoff - s.lag_ms - s.submit_us / 1000.0);
    if (r.coalesced) ++coalesced;
    // Layer timings come from fresh solves only: a cache hit or coalesced
    // copy carries the timings of the solve that produced it.
    if (r.cache_hit || r.coalesced || r.degraded) continue;
    const qjo::QjoReport& report = r.report;
    const qjo::StageTimings& st = report.stage_timings;
    encode_ms.push_back(st.Of("encode"));
    oracle_ms.push_back(st.Of("oracle_dp"));
    post_ms.push_back(st.Of("postprocess"));
    qubo_vars.push_back(report.encoding.bilp_variables);
    if (backend == qjo::QjoBackend::kPortfolio) {
      race_ms.push_back(st.Of("solve.portfolio"));
      ++races;
      if (!report.portfolio.used_classical_fallback) ++races_feasible;
      for (const qjo::StrandOutcome& o : report.portfolio.race.strands) {
        auto it = strands.find(o.name);
        if (it == strands.end() || !o.eligible) continue;
        StrandAgg& agg = it->second;
        ++agg.races;
        if (o.won) ++agg.wins;
        agg.ms.push_back(o.total_ms);
        agg.sweeps += static_cast<double>(o.sweeps_completed);
        agg.seconds += o.total_ms / 1000.0;
        if (o.feasible) {
          agg.to_incumbent.push_back(
              static_cast<double>(o.sweeps_to_incumbent));
        }
      }
    } else if (backend == qjo::QjoBackend::kQuantumAnnealerSim) {
      embed_ms.push_back(st.Of("embedding"));
      phys_qubits.push_back(report.anneal.physical_qubits);
      max_chain.push_back(report.anneal.max_chain_length);
      anneal_ms.push_back(st.Of("solve.quantum_annealer_sim") -
                          st.Of("embedding") - st.Of("embed_qubo"));
    } else if (backend == qjo::QjoBackend::kQaoaSimulator) {
      qaoa_run_ms.push_back(st.Of("qaoa_run"));
      qaoa_angles_ms.push_back(st.Of("qaoa_angles"));
      sample_ms.push_back(st.Of("sample"));
      transpile_ms.push_back(st.Of("transpile"));
      depth.push_back(report.gate.circuit_depth);
      two_qubit.push_back(report.gate.two_qubit_gates);
    }
  }
  const double attempted = static_cast<double>(run.samples.size());
  const qjo::OptimizerService::Stats& stats = run.stats;

  out->SetP50Tail("serve.submit_us", "us", submit_us);
  out->SetP50("serve.plan_key_us.p50", "us", replay.plan_key_us);
  out->SetP50Tail("serve.queue_ms", "ms", queue_ms);
  out->SetP50Tail("serve.solve_ms", "ms", solve_ms);
  out->SetP50("serve.handoff_ms.p50", "ms", handoff_ms);
  out->Set("serve.cache_hit_ratio", "share", run.plan_cache.hit_rate());
  out->Set("serve.coalesced_ratio", "share",
           Ratio(static_cast<double>(coalesced), attempted));
  out->Set("serve.warm_hit_ratio", "share",
           Ratio(static_cast<double>(stats.warm_hits), attempted));
  out->Set("serve.solves_per_unique_key", "ratio",
           Ratio(static_cast<double>(stats.solves),
                 static_cast<double>(keys.size())));
  out->Set("serve.rejected_ratio", "share",
           Ratio(static_cast<double>(stats.rejected_queue_full +
                                     stats.rejected_tenant_quota +
                                     stats.rejected_rate_limited),
                 attempted));
  out->Set("serve.expired_in_queue_ratio", "share",
           Ratio(static_cast<double>(stats.expired_in_queue), attempted));
  out->Set("degraded_ratio", "share",
           Ratio(static_cast<double>(stats.degraded), attempted));
  uint64_t failed = 0;
  for (const Sample& s : run.samples) failed += Answered(s) ? 0 : 1;
  out->Set("error_ratio", "share",
           Ratio(static_cast<double>(failed), attempted));

  out->SetP50Tail("core.encode_ms", "ms", encode_ms);
  out->Set("core.build_cache_hit_ratio", "share", run.build_cache.hit_rate());
  out->Set("core.qubo_vars.mean", "vars", Mean(qubo_vars));
  out->SetP50Tail("core.race_ms", "ms", race_ms);
  out->Set("core.race_feasible_ratio", "share",
           Ratio(static_cast<double>(races_feasible),
                 static_cast<double>(races)));
  out->SetP50("core.postprocess_ms.p50", "ms", post_ms);
  for (const auto& [name, agg] : strands) {
    const std::string prefix = "core.strand." + name;
    out->SetP50(prefix + ".ms", "ms", agg.ms);
    out->Set(prefix + ".sweeps_per_s", "1/s", Ratio(agg.sweeps, agg.seconds));
    out->Set(prefix + ".sweeps_to_incumbent", "count", Mean(agg.to_incumbent));
    out->Set(prefix + ".win_ratio", "share",
             Ratio(static_cast<double>(agg.wins), static_cast<double>(races)),
             "eligible in " + std::to_string(agg.races) + " of " +
                 std::to_string(races) + " races");
  }
  out->SetP50Tail("jo.oracle_ms", "ms", oracle_ms);
  out->SetP50("embedding.ms.p50", "ms", embed_ms);
  out->Set("embedding.physical_qubits.mean", "qubits", Mean(phys_qubits));
  out->Set("embedding.max_chain.mean", "qubits", Mean(max_chain));
  out->Set("embedding.fail_ratio", "share",
           Ratio(static_cast<double>(embed_fail),
                 static_cast<double>(annealer_requests)));
  out->SetP50("sim.anneal_ms.p50", "ms", anneal_ms);
  out->SetP50("sim.qaoa_run_ms.p50", "ms", qaoa_run_ms);
  out->SetP50("sim.qaoa_angles_ms.p50", "ms", qaoa_angles_ms);
  out->SetP50("sim.sample_ms.p50", "ms", sample_ms);
  out->SetP50("transpiler.ms.p50", "ms", transpile_ms);
  out->Set("transpiler.depth.mean", "count", Mean(depth));
  out->Set("transpiler.two_qubit_gates.mean", "count", Mean(two_qubit));
  out->Set("util.pool_tasks_per_request", "count",
           Ratio(static_cast<double>(run.pool_tasks), attempted));
  const Tail lag = TailOf(lag_ms);
  out->Set("loadgen.lag_ms.tail", "ms", lag.value, MetricSet::TailNote(lag));
  const double traced_p50 = Percentile(Latencies(run), 0.5);
  out->Set("obs.trace_overhead_ratio", "ratio",
           Ratio(traced_p50, untraced_p50_ms),
           "traced p50 " + Num(traced_p50) + " ms / untraced p50 " +
               Num(untraced_p50_ms) + " ms");
  out->Set("trace.unattributed_ratio", "share",
           Ratio(unattributed, latency_sum));
  out->Set("check.mismatches", "count", static_cast<double>(check_mismatches),
           std::to_string(replay.compared) +
               " served reports compared with a direct solve");
}

void PrintErrors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::cout << "check failed: " << e << "\n";
  }
}

int Run(const Args& args) {
  Workload workload;
  if (!MakeWorkload(args.workload, args.seed, &workload)) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  PrintHost(args);
  References references;
  MetricSet metrics;
  uint64_t attempted = 0, failed = 0, mismatches = 0;

  if (!args.trace) {
    std::vector<double> setup_s;
    Deployment deployment;
    double total_s = 0.0;
    while (setup_s.size() < kMinSetups ||
           (total_s < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
      deployment = Deployment{};  // tear the previous one down untimed
      const Clock::time_point t0 = Clock::now();
      deployment = SetUp(workload, nullptr, nullptr);
      setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
      total_s += setup_s.back();
    }
    const RunResult run = Drive(workload, deployment, args.seconds, nullptr);
    const CheckSummary checks =
        CheckAnswers(run.samples, workload.plan_sample, references);
    EndToEnd(workload, run, checks, setup_s, &metrics);
    attempted = checks.attempted;
    failed = checks.failed;
    mismatches = checks.mismatches;
    PrintErrors(checks.errors);
    for (const std::string& f : checks.failures) std::cout << f << "\n";
    std::cout << "check.mismatches = " << mismatches << " count\n";
  } else {
    // Untraced half window: the baseline of obs.trace_overhead_ratio.
    double untraced_p50 = 0.0;
    {
      Deployment deployment = SetUp(workload, nullptr, nullptr);
      const RunResult run =
          Drive(workload, deployment, args.seconds / 2.0, nullptr);
      untraced_p50 = Percentile(Latencies(run), 0.5);
    }
    qjo::TraceRecorder trace;
    qjo::MetricsRegistry registry;
    SpanLog spans;
    Deployment deployment = SetUp(workload, &trace, &registry);
    const RunResult run = Drive(workload, deployment, args.seconds / 2.0,
                                &spans);
    const Replay replay = ReplayRequests(workload, run, deployment.pool.get(),
                                         references, spans);
    const CheckSummary checks =
        CheckAnswers(run.samples, workload.plan_sample, references);
    mismatches = checks.mismatches + replay.mismatches;
    attempted = checks.attempted;
    failed = checks.failed;
    PrintErrors(checks.errors);
    PrintErrors(replay.errors);
    MetricSet end_to_end;
    EndToEnd(workload, run, checks, {}, &end_to_end);
    std::cout << "traced window (end-to-end, for reference):\n";
    end_to_end.Print(std::cout);
    PerLayer(run, replay, untraced_p50, mismatches, &metrics);
    const std::vector<Span> all_spans = spans.spans();
    for (const auto& [name, ms] : SelfTimesMs(all_spans)) {
      std::cout << "self_ms " << name << " = " << Num(ms) << " ms\n";
    }
    if (!args.trace_out.empty()) {
      if (WriteChromeTrace(args.trace_out, trace, all_spans)) {
        std::cout << "chrome trace: " << args.trace_out << "\n";
      } else {
        std::cerr << "cannot write " << args.trace_out << "\n";
      }
    }
  }
  metrics.Print(std::cout);
  std::cout << "{\"correct\": " << (mismatches == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.Json() << "}" << std::endl;
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: servebench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--trace-out <file>] [--commit <id>]"
                 " [--source-digest <hex>]\nworkloads:";
    for (const std::string& name : servebench::WorkloadNames()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 2;
  }
  return servebench::Run(args);
}
