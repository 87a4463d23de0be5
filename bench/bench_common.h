#ifndef QJO_BENCH_BENCH_COMMON_H_
#define QJO_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace qjo::bench {

/// Global effort multiplier for the reproduction benches, set via the
/// QJO_BENCH_SCALE environment variable. 1.0 = defaults tuned to finish
/// the whole suite in minutes on a laptop; raise towards the paper's full
/// shot/repeat counts (e.g. QJO_BENCH_SCALE=4), lower for smoke runs.
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("QJO_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double value = std::atof(env);
    return value > 0.0 ? value : 1.0;
  }();
  return scale;
}

inline int Scaled(int base, int min_value = 1) {
  const int value = static_cast<int>(base * Scale());
  return value < min_value ? min_value : value;
}

/// Size of the bench's thread pool (see Pool()), set via the
/// QJO_BENCH_PARALLELISM environment variable; default = all hardware
/// threads. Results are bit-identical for every value — only reads/sec
/// changes — so benches report the value they ran with.
inline int Parallelism() {
  static const int parallelism = [] {
    const char* env = std::getenv("QJO_BENCH_PARALLELISM");
    if (env != nullptr) {
      const int value = std::atoi(env);
      if (value > 0) return value;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  return parallelism;
}

/// The one thread pool of Parallelism() threads every parallel read loop
/// of a bench runs on (solvers never create threads of their own).
inline ThreadPool* Pool() {
  static ThreadPool pool(Parallelism());
  return &pool;
}

/// One named number of a bench's JSON artifact.
struct Metric {
  std::string name;
  double value;
};

/// Writes `metrics` to `path` as the flat JSON object every BENCH_*.json
/// is, plus `bench_hw_concurrency` (the host's hardware threads), so a
/// parallel figure measured on a 1-core host can be told apart from a
/// real one. Prints "wrote <path>".
inline void WriteJson(const std::string& path, std::vector<Metric> metrics) {
  const unsigned hw = std::thread::hardware_concurrency();
  metrics.push_back({"bench_hw_concurrency", static_cast<double>(hw)});
  std::ofstream out(path);
  out << "{\n";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << "  \"" << metrics[i].name << "\": " << metrics[i].value
        << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  out << "}\n";
  out.close();
  std::cout << "wrote " << path << std::endl;
}

/// Section banner mirroring the paper artefact being reproduced. Also
/// switches stdout to line buffering so long-running benches stream
/// progress when redirected to a file.
inline void Banner(const std::string& id, const std::string& title) {
  static const bool buffered = [] {
    std::setvbuf(stdout, nullptr, _IOLBF, 1 << 14);
    return true;
  }();
  (void)buffered;
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void PaperNote(const std::string& note) {
  std::printf("[paper] %s\n", note.c_str());
}

/// Process-wide observability session for the bench binaries, driven by
/// the QJO_TRACE_OUT / QJO_METRICS_OUT environment variables (unset =
/// null sinks, zero overhead). Every pipeline a bench runs calls
/// Apply(config) so all runs of the process land in one trace/metrics
/// file; Flush() (also invoked at exit) writes the files. Attaching the
/// sinks never changes bench results.
class ObsSession {
 public:
  static ObsSession& Get() {
    static ObsSession session;
    return session;
  }

  TraceRecorder* trace() {
    return trace_out_.empty() ? nullptr : &trace_;
  }
  MetricsRegistry* metrics() {
    return metrics_out_.empty() ? nullptr : &metrics_;
  }

  /// Attaches the session's sinks to any config with `trace`/`metrics`
  /// pointer members (SolverControl, RunContext) or an embedded
  /// RunContext named `run` (QjoConfig).
  template <typename Config>
  void Apply(Config& config) {
    if constexpr (requires { config.run.trace; }) {
      config.run.trace = trace();
      config.run.metrics = metrics();
    } else {
      config.trace = trace();
      config.metrics = metrics();
    }
  }

  /// Writes the configured output files; safe to call repeatedly (later
  /// calls rewrite with the accumulated data).
  void Flush() {
    if (!trace_out_.empty() && !trace_.WriteChromeTraceFile(trace_out_)) {
      std::fprintf(stderr, "[obs] failed to write trace to %s\n",
                   trace_out_.c_str());
    }
    if (!metrics_out_.empty() && !metrics_.WriteJsonFile(metrics_out_)) {
      std::fprintf(stderr, "[obs] failed to write metrics to %s\n",
                   metrics_out_.c_str());
    }
  }

 private:
  ObsSession() {
    const char* trace_env = std::getenv("QJO_TRACE_OUT");
    const char* metrics_env = std::getenv("QJO_METRICS_OUT");
    if (trace_env != nullptr) trace_out_ = trace_env;
    if (metrics_env != nullptr) metrics_out_ = metrics_env;
  }

  // Flushing from the destructor (not atexit) keeps the write inside the
  // sinks' lifetime: an atexit handler registered during construction
  // would run *after* this static object's destructor.
  ~ObsSession() { Flush(); }

  std::string trace_out_;
  std::string metrics_out_;
  TraceRecorder trace_;
  MetricsRegistry metrics_;
};

}  // namespace qjo::bench

#endif  // QJO_BENCH_BENCH_COMMON_H_
