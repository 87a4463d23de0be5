// Google-benchmark microbenchmarks for the performance-critical substrate
// operations: QUBO energy evaluation, state-vector gate application, QAOA
// cost-spectrum construction, SWAP routing, SQA sweeps, Pegasus
// construction, and the parallel read loops of the stochastic solvers
// (items/sec = reads/sec; the per-read fan-out is the paper's classical
// sampling bottleneck).
//
// On top of the google-benchmark registrations, a hand-rolled kernel
// suite times the reference/incremental/batched annealing kernels and
// the serial-vs-pooled 2^n simulator loops and writes the numbers to
// BENCH_kernels.json (machine-readable evidence for the kernel rework).
// The suite exits nonzero when a batched kernel breaks its bit-identity
// contract against the incremental one, so the ctest smoke doubles as a
// correctness gate. Run with --kernels_only to skip the google-benchmark
// part; set QJO_KERNEL_BENCH_FAST=1 for the quick ctest smoke
// configuration and QJO_BENCH_KERNELS_JSON to redirect the output file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "circuit/qaoa_builder.h"
#include "core/quantum_optimizer.h"
#include "obs/obs.h"
#include "embedding/minor_embedding.h"
#include "jo/query_generator.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "qubo/solvers.h"
#include "sim/qaoa_simulator.h"
#include "sim/sqa.h"
#include "sim/statevector.h"
#include "topology/vendor_topologies.h"
#include "transpiler/transpiler.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

Qubo MakeRandomQubo(int n, double edge_probability, uint64_t seed) {
  Rng rng(seed);
  Qubo q(n);
  for (int i = 0; i < n; ++i) {
    q.AddLinear(i, rng.UniformDouble(-2, 2));
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(edge_probability)) {
        q.AddQuadratic(i, j, rng.UniformDouble(-2, 2));
      }
    }
  }
  return q;
}

void BM_QuboEnergy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Qubo qubo = MakeRandomQubo(n, 0.3, 1);
  Rng rng(2);
  std::vector<int> bits(n);
  for (auto& b : bits) b = rng.Bernoulli(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qubo.Energy(bits));
  }
}
BENCHMARK(BM_QuboEnergy)->Arg(32)->Arg(128)->Arg(512);

void BM_QuboBruteForce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Qubo qubo = MakeRandomQubo(n, 0.3, 3);
  for (auto _ : state) {
    auto result = SolveQuboBruteForce(qubo);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_QuboBruteForce)->Arg(12)->Arg(16)->Arg(20);

void BM_StateVectorLayer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto sv = StateVector::Create(n);
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) sv->Apply(Gate::Single(GateType::kRx, q, 0.3));
  }
  state.SetItemsProcessed(state.iterations() * n * (uint64_t{1} << n));
}
BENCHMARK(BM_StateVectorLayer)->Arg(10)->Arg(14)->Arg(18);

void BM_QaoaCostSpectrum(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const IsingModel ising = QuboToIsing(MakeRandomQubo(n, 0.3, 4));
  for (auto _ : state) {
    auto sim = QaoaSimulator::Create(ising);
    benchmark::DoNotOptimize(sim);
  }
}
BENCHMARK(BM_QaoaCostSpectrum)->Arg(12)->Arg(16)->Arg(20);

void BM_QaoaRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const IsingModel ising = QuboToIsing(MakeRandomQubo(n, 0.3, 5));
  auto sim = QaoaSimulator::Create(ising);
  QaoaParameters params{{0.2}, {0.7}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim->Run(params));
  }
}
BENCHMARK(BM_QaoaRun)->Arg(12)->Arg(16)->Arg(20);

void BM_Transpile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const IsingModel ising = QuboToIsing(MakeRandomQubo(n, 0.3, 6));
  auto logical = BuildQaoaCircuit(ising, QaoaParameters{{0.1}, {0.2}});
  const CouplingGraph device = MakeIbmFalcon27();
  TranspileOptions options;
  options.gate_set = NativeGateSet::kIbm;
  uint64_t seed = 0;
  for (auto _ : state) {
    options.seed = ++seed;
    auto result = Transpile(*logical, device, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Transpile)->Arg(12)->Arg(20)->Arg(27);

void BM_SqaRead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const IsingModel ising = QuboToIsing(MakeRandomQubo(n, 0.2, 7));
  SqaOptions options;
  options.num_reads = 1;
  options.annealing_time_us = 20.0;
  Rng rng(8);
  for (auto _ : state) {
    auto samples = RunSqa(ising, options, rng);
    benchmark::DoNotOptimize(samples);
  }
}
BENCHMARK(BM_SqaRead)->Arg(32)->Arg(128)->Arg(512);

// --- Parallel solver runtime: reads/sec across pool sizes. ---
// Each variant builds its pool once, outside the timed loop. Every
// variant first checks that its sorted energies are bit-identical to the
// serial run — the determinism contract of the runtime — and fails the
// benchmark if not.

SaOptions MakeSaReadOptions(ThreadPool* pool) {
  SaOptions options;
  options.num_reads = 1000;
  options.sweeps_per_read = 64;
  options.control.pool = pool;
  return options;
}

void BM_SaReads(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  const Qubo qubo = MakeRandomQubo(64, 0.2, 11);
  static const std::vector<double> kSerialEnergies = [] {
    const Qubo reference_qubo = MakeRandomQubo(64, 0.2, 11);
    Rng rng(21);
    const auto reads =
        SolveQuboSimulatedAnnealing(reference_qubo, MakeSaReadOptions(nullptr),
                                    rng);
    std::vector<double> energies;
    for (const auto& read : reads) energies.push_back(read.energy);
    return energies;
  }();
  const SaOptions options = MakeSaReadOptions(&pool);
  {
    Rng rng(21);
    const auto reads = SolveQuboSimulatedAnnealing(qubo, options, rng);
    for (size_t i = 0; i < reads.size(); ++i) {
      if (reads[i].energy != kSerialEnergies[i]) {
        state.SkipWithError("energies not bit-identical to serial run");
        return;
      }
    }
  }
  for (auto _ : state) {
    Rng rng(21);
    auto reads = SolveQuboSimulatedAnnealing(qubo, options, rng);
    benchmark::DoNotOptimize(reads);
  }
  state.SetItemsProcessed(state.iterations() * options.num_reads);
}
BENCHMARK(BM_SaReads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_TabuRestarts(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  const Qubo qubo = MakeRandomQubo(64, 0.2, 13);
  TabuOptions options;
  options.num_restarts = 64;
  options.iterations_per_restart = 400;
  options.control.pool = &pool;
  for (auto _ : state) {
    Rng rng(23);
    auto restarts = SolveQuboTabuSearch(qubo, options, rng);
    benchmark::DoNotOptimize(restarts);
  }
  state.SetItemsProcessed(state.iterations() * options.num_restarts);
}
BENCHMARK(BM_TabuRestarts)->Arg(1)->Arg(8)->UseRealTime();

void BM_SqaReadsParallel(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  const IsingModel ising = QuboToIsing(MakeRandomQubo(96, 0.15, 17));
  SqaOptions options;
  options.num_reads = 64;
  options.annealing_time_us = 10.0;
  options.sweeps_per_us = 3.0;
  options.trotter_slices = 8;
  options.ice_sigma = 0.015;
  options.control.pool = &pool;
  for (auto _ : state) {
    Rng rng(27);
    auto samples = RunSqa(ising, options, rng);
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(state.iterations() * options.num_reads);
}
BENCHMARK(BM_SqaReadsParallel)->Arg(1)->Arg(8)->UseRealTime();

void BM_JoinOrderBatch(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  std::vector<Query> queries;
  for (int q = 0; q < 8; ++q) {
    Rng gen_rng(700 + q);
    QueryGenOptions gen;
    gen.num_relations = 4;
    gen.graph_type = QueryGraphType::kChain;
    gen.min_log_card = 1.0;
    gen.max_log_card = 2.0;
    auto query = GenerateQuery(gen, gen_rng);
    if (query.ok()) queries.push_back(*query);
  }
  QjoConfig config;
  config.backend = QjoBackend::kSimulatedAnnealing;
  config.shots = 512;
  config.seed = 29;
  config.run.pool = &pool;
  bench::ObsSession::Get().Apply(config);
  for (auto _ : state) {
    auto reports = OptimizeJoinOrderBatch(queries, config);
    benchmark::DoNotOptimize(reports);
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_JoinOrderBatch)->Arg(1)->Arg(8)->UseRealTime();

void BM_PegasusConstruction(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto g = MakePegasus(m);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_PegasusConstruction)->Arg(4)->Arg(8)->Arg(16);

void BM_MinorEmbedding(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < k; ++i)
    for (int j = i + 1; j < k; ++j) edges.emplace_back(i, j);
  auto target = MakePegasus(4);
  EmbeddingOptions options;
  options.tries = 1;
  Rng rng(9);
  for (auto _ : state) {
    auto e = FindMinorEmbedding(edges, k, *target, options, rng);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_MinorEmbedding)->Arg(4)->Arg(8)->Arg(12);

// --- Hand-rolled kernel suite: BENCH_kernels.json -------------------------

/// Best-of-`repeats` wall time of fn(), in seconds.
template <typename Fn>
double BestSeconds(Fn&& fn, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

using bench::Metric;

int RunKernelBenchSuite() {
  const bool fast = std::getenv("QJO_KERNEL_BENCH_FAST") != nullptr;
  int parallelism = static_cast<int>(std::thread::hardware_concurrency());
  if (const char* p = std::getenv("QJO_BENCH_PARALLELISM")) {
    parallelism = std::atoi(p);
  }
  parallelism = std::max(parallelism, 2);
  const int repeats = fast ? 2 : 3;
  std::vector<Metric> metrics;
  metrics.push_back({"parallelism", static_cast<double>(parallelism)});
  // SIMD tier the dispatched kernels run on: 0 scalar, 1 sse2, 2 avx2,
  // 3 avx512 (host-resolved, capped by QJO_SIMD).
  metrics.push_back(
      {"simd_isa", static_cast<double>(static_cast<int>(Simd().isa))});
  metrics.push_back({"fast_mode", fast ? 1.0 : 0.0});
  double sink = 0.0;  // keeps the timed work observable

  // SA proposals/sec on a fully dense QUBO: the O(degree) reference scan
  // vs incremental local fields vs the SoA replica-batched SIMD kernel.
  // The batched numbers only count if the kernel honours its contract, so
  // the suite first checks its reads bit-identical to the incremental
  // ones and fails (nonzero exit) on any mismatch.
  {
    const int n = 128;
    const int reads = fast ? 4 : 16;
    const int sweeps = fast ? 30 : 200;
    const Qubo qubo = MakeRandomQubo(n, 1.0, 31);
    qubo.Csr();  // build the CSR outside the timed region
    const double proposals =
        static_cast<double>(reads) * sweeps * n;
    const auto solve = [&](SolverKernel kernel) {
      SaOptions options;
      options.num_reads = reads;
      options.sweeps_per_read = sweeps;
      options.kernel = kernel;
      Rng rng(33);
      return SolveQuboSimulatedAnnealing(qubo, options, rng);
    };
    {
      const auto incremental = solve(SolverKernel::kIncremental);
      const auto batched = solve(SolverKernel::kBatched);
      for (size_t i = 0; i < incremental.size(); ++i) {
        if (batched[i].energy != incremental[i].energy ||
            batched[i].assignment != incremental[i].assignment) {
          std::cerr << "kernel bench suite: batched SA reads are not "
                       "bit-identical to the incremental kernel\n";
          return 1;
        }
      }
    }
    const auto time_kernel = [&](SolverKernel kernel) {
      return BestSeconds([&] { sink += solve(kernel).front().energy; },
                         repeats);
    };
    const double t_ref = time_kernel(SolverKernel::kReference);
    const double t_inc = time_kernel(SolverKernel::kIncremental);
    const double t_bat = time_kernel(SolverKernel::kBatched);
    metrics.push_back({"sa_dense_n", static_cast<double>(n)});
    metrics.push_back({"sa_proposals_per_sec_reference", proposals / t_ref});
    metrics.push_back({"sa_proposals_per_sec_incremental", proposals / t_inc});
    metrics.push_back({"sa_proposals_per_sec_batched", proposals / t_bat});
    metrics.push_back(
        {"sa_batched_replicas_per_sec", static_cast<double>(reads) / t_bat});
    metrics.push_back({"sa_incremental_speedup", t_ref / t_inc});
    metrics.push_back({"sa_batched_speedup", t_inc / t_bat});
  }

  // Tabu move rate under the same comparison (each move re-reads all n
  // deltas; the incremental kernel serves them from the field cache).
  {
    const int n = 128;
    const int restarts = fast ? 2 : 6;
    const int iterations = fast ? 60 : 300;
    const Qubo qubo = MakeRandomQubo(n, 1.0, 37);
    qubo.Csr();
    const double moves = static_cast<double>(restarts) * iterations;
    const auto time_kernel = [&](SolverKernel kernel) {
      return BestSeconds(
          [&] {
            TabuOptions options;
            options.num_restarts = restarts;
            options.iterations_per_restart = iterations;
            options.kernel = kernel;
            Rng rng(41);
            sink += SolveQuboTabuSearch(qubo, options, rng).front().energy;
          },
          repeats);
    };
    const double t_ref = time_kernel(SolverKernel::kReference);
    const double t_inc = time_kernel(SolverKernel::kIncremental);
    metrics.push_back({"tabu_moves_per_sec_reference", moves / t_ref});
    metrics.push_back({"tabu_moves_per_sec_incremental", moves / t_inc});
    metrics.push_back({"tabu_incremental_speedup", t_ref / t_inc});
  }

  // SQA per-slice spin updates/sec across the three kernels, with the
  // same bit-identity gate on the batched one.
  {
    const int n = 96;
    const IsingModel ising = QuboToIsing(MakeRandomQubo(n, 0.5, 43));
    SqaOptions base;
    base.num_reads = fast ? 4 : 16;
    base.annealing_time_us = fast ? 5.0 : 10.0;
    base.sweeps_per_us = 2.0;
    base.trotter_slices = 8;
    base.ice_sigma = 0.015;
    const int sweeps = std::max(
        8, static_cast<int>(base.annealing_time_us * base.sweeps_per_us));
    const double updates = static_cast<double>(base.num_reads) * sweeps *
                           base.trotter_slices * n;
    const auto solve = [&](SolverKernel kernel) {
      SqaOptions options = base;
      options.kernel = kernel;
      Rng rng(47);
      return RunSqa(ising, options, rng);
    };
    {
      const auto incremental = solve(SolverKernel::kIncremental);
      const auto batched = solve(SolverKernel::kBatched);
      for (size_t i = 0; i < incremental->size(); ++i) {
        if ((*batched)[i].energy != (*incremental)[i].energy ||
            (*batched)[i].spins != (*incremental)[i].spins) {
          std::cerr << "kernel bench suite: batched SQA samples are not "
                       "bit-identical to the incremental kernel\n";
          return 1;
        }
      }
    }
    const auto time_kernel = [&](SolverKernel kernel) {
      return BestSeconds([&] { sink += solve(kernel)->front().energy; },
                         repeats);
    };
    const double t_ref = time_kernel(SolverKernel::kReference);
    const double t_inc = time_kernel(SolverKernel::kIncremental);
    const double t_bat = time_kernel(SolverKernel::kBatched);
    metrics.push_back({"sqa_spin_updates_per_sec_reference", updates / t_ref});
    metrics.push_back(
        {"sqa_spin_updates_per_sec_incremental", updates / t_inc});
    metrics.push_back({"sqa_batched_spin_updates_per_sec", updates / t_bat});
    metrics.push_back({"sqa_incremental_speedup", t_ref / t_inc});
    metrics.push_back({"sqa_batched_speedup", t_inc / t_bat});
  }

  // QAOA 2^n loops, serial vs pooled, at the paper-scale qubit count.
  {
    const int nq = fast ? 16 : 20;
    const IsingModel ising = QuboToIsing(MakeRandomQubo(nq, 0.3, 53));
    auto sim = QaoaSimulator::Create(ising);
    QaoaParameters params;
    params.gammas = {0.2};
    params.betas = {0.7};
    // Amplitudes touched per Run: cost phase + nq mixer butterflies +
    // the expectation reduction, each a full 2^nq sweep.
    const double amplitudes =
        static_cast<double>(uint64_t{1} << nq) * (nq + 2);
    const double t_serial =
        BestSeconds([&] { sink += sim->Run(params); }, repeats);
    ThreadPool pool(parallelism);
    sim->set_pool(&pool);
    const double t_parallel =
        BestSeconds([&] { sink += sim->Run(params); }, repeats);
    metrics.push_back({"qaoa_qubits", static_cast<double>(nq)});
    metrics.push_back({"qaoa_amplitudes_per_sec_serial", amplitudes / t_serial});
    metrics.push_back(
        {"qaoa_amplitudes_per_sec_parallel", amplitudes / t_parallel});
    metrics.push_back({"qaoa_parallel_speedup", t_serial / t_parallel});
  }

  // SA reads/sec through the pooled per-read fan-out (end-to-end rate the
  // paper's sampling experiments consume). The pool is created once,
  // outside the timed region, and shared across the timed calls via
  // `control.pool` — per-call pool construction/teardown is bench
  // harness overhead, not solver throughput, and on small hosts it used
  // to eat the whole pooled gain. The batched kernel's group fan-out
  // also keeps ~16 reads per task, so dispatch amortises even when the
  // thread count oversubscribes the host.
  {
    const int n = 96;
    const int reads = fast ? 16 : 64;
    const int pool_repeats = fast ? 3 : 7;
    const Qubo qubo = MakeRandomQubo(n, 0.3, 59);
    qubo.Csr();
    ThreadPool pool(parallelism);
    const auto time_reads = [&](int threads) {
      return BestSeconds(
          [&] {
            SaOptions options;
            options.num_reads = reads;
            options.sweeps_per_read = fast ? 32 : 64;
            if (threads > 1) options.control.pool = &pool;
            Rng rng(61);
            sink += SolveQuboSimulatedAnnealing(qubo, options, rng)
                        .front()
                        .energy;
          },
          pool_repeats);
    };
    metrics.push_back({"sa_reads_per_sec_serial", reads / time_reads(1)});
    metrics.push_back(
        {"sa_reads_per_sec_parallel", reads / time_reads(parallelism)});
  }

  const char* json_path = std::getenv("QJO_BENCH_KERNELS_JSON");
  const std::string path =
      json_path != nullptr ? json_path : "BENCH_kernels.json";
  std::cout << "kernel bench suite (" << (fast ? "fast" : "full")
            << " mode), sink=" << sink << ":\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << "\n";
  }
  bench::WriteJson(path, metrics);
  return 0;
}

// --- Observability overhead suite: BENCH_obs_overhead.json ---------------
//
// Gates the "< 1% when disabled" budget of the obs layer. A truly
// uninstrumented binary does not exist any more, so the null-sink cost
// is bounded from primitives: the measured ns/op of a disabled StageSpan
// times the number of null-sink sites a solver run executes, as a
// fraction of the run's wall time. The attached-sink overhead is also
// measured (informational — attached runs pay for real clock reads), and
// attached results are checked bit-identical to null-sink results.
// Returns nonzero (failing the ctest smoke) when the estimated null-sink
// overhead exceeds 5%.
int RunObsOverheadSuite() {
  const bool fast = std::getenv("QJO_KERNEL_BENCH_FAST") != nullptr ||
                    std::getenv("QJO_OBS_BENCH_FAST") != nullptr;
  const int repeats = fast ? 3 : 5;
  std::vector<Metric> metrics_out;
  metrics_out.push_back(
      {"simd_isa", static_cast<double>(static_cast<int>(Simd().isa))});
  metrics_out.push_back({"fast_mode", fast ? 1.0 : 0.0});
  // The overhead workload is deliberately serial; emitted so the suite
  // satisfies the common bench schema (tools/check_bench_schema.py).
  metrics_out.push_back({"parallelism", 1.0});

  // 1. Disabled-primitive cost: a StageSpan with both sinks null must
  // compile down to a couple of branches. DoNotOptimize keeps the loop
  // from being deleted wholesale.
  const int64_t span_ops = fast ? (int64_t{1} << 20) : (int64_t{1} << 22);
  const double span_seconds = BestSeconds(
      [&] {
        for (int64_t i = 0; i < span_ops; ++i) {
          StageSpan span(nullptr, "noop");
          benchmark::DoNotOptimize(&span);
        }
      },
      repeats);
  const double null_span_ns =
      span_seconds / static_cast<double>(span_ops) * 1e9;
  metrics_out.push_back({"null_span_ns", null_span_ns});

  // 2. SA workload, null sinks vs attached sinks, with a bit-identity
  // check between the two.
  const int n = 96;
  const int reads = fast ? 8 : 32;
  const int sweeps = fast ? 48 : 96;
  const Qubo qubo = MakeRandomQubo(n, 0.3, 67);
  qubo.Csr();
  const auto run_sa = [&](TraceRecorder* trace,
                          MetricsRegistry* metrics) {
    SaOptions options;
    options.num_reads = reads;
    options.sweeps_per_read = sweeps;
    options.control.trace = trace;
    options.control.metrics = metrics;
    Rng rng(71);
    return SolveQuboSimulatedAnnealing(qubo, options, rng);
  };
  const std::vector<QuboSolution> null_reads = run_sa(nullptr, nullptr);
  {
    TraceRecorder trace;
    MetricsRegistry metrics;
    const std::vector<QuboSolution> traced_reads = run_sa(&trace, &metrics);
    for (size_t i = 0; i < null_reads.size(); ++i) {
      if (traced_reads[i].energy != null_reads[i].energy ||
          traced_reads[i].assignment != null_reads[i].assignment) {
        std::cerr << "obs overhead suite: traced SA run is not "
                     "bit-identical to the null-sink run\n";
        return 1;
      }
    }
  }
  double sink = 0.0;
  const double t_null = BestSeconds(
      [&] { sink += run_sa(nullptr, nullptr).front().energy; }, repeats);
  double t_attached;
  {
    TraceRecorder trace;
    MetricsRegistry metrics;
    t_attached = BestSeconds(
        [&] { sink += run_sa(&trace, &metrics).front().energy; }, repeats);
  }
  metrics_out.push_back({"sa_solve_seconds_null", t_null});
  metrics_out.push_back({"sa_solve_seconds_attached", t_attached});
  metrics_out.push_back(
      {"attached_overhead_fraction", t_attached / t_null - 1.0});

  // 3. Null-sink overhead estimate: per run the solver executes one
  // solve-level span, one span per read, and one guarded metrics flush
  // per read (the per-sweep/per-proposal paths only touch locals). Count
  // the flush guard as another span-sized site to stay conservative.
  const double null_sites = 1.0 + 2.0 * static_cast<double>(reads);
  const double estimated_null_overhead =
      null_sites * null_span_ns * 1e-9 / t_null;
  metrics_out.push_back(
      {"estimated_null_overhead_fraction", estimated_null_overhead});

  const char* json_path = std::getenv("QJO_OBS_OVERHEAD_JSON");
  const std::string path =
      json_path != nullptr ? json_path : "BENCH_obs_overhead.json";
  std::cout << "obs overhead suite (" << (fast ? "fast" : "full")
            << " mode), sink=" << sink << ":\n";
  for (const Metric& m : metrics_out) {
    std::cout << "  " << m.name << " = " << m.value << "\n";
  }
  bench::WriteJson(path, metrics_out);

  if (estimated_null_overhead > 0.05) {
    std::cerr << "obs overhead suite: estimated null-sink overhead "
              << estimated_null_overhead * 100.0
              << "% exceeds the 5% regression gate\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace qjo

int main(int argc, char** argv) {
  bool kernels_only = false;
  bool obs_overhead_only = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--kernels_only") {
      kernels_only = true;
      continue;
    }
    if (std::string(argv[i]) == "--obs_overhead_only") {
      obs_overhead_only = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (obs_overhead_only) return qjo::RunObsOverheadSuite();
  const int obs_status = qjo::RunObsOverheadSuite();
  const int kernel_status = qjo::RunKernelBenchSuite();
  const int suite_status = obs_status != 0 ? obs_status : kernel_status;
  if (kernels_only) return suite_status;
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return suite_status;
}
