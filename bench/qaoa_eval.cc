// Throughput benchmark for the fused QAOA evaluation path, the evidence
// artifact of the simulator fast-path rework (BENCH_qaoa.json):
//
//  - mixer amplitude updates/sec, fused cache-blocked kernel vs the
//    per-qubit reference sweeps;
//  - angle-grid evaluations/sec, batched fused EvaluateBatch vs serial
//    reference Run calls, on the depth-3 gamma x beta sweep the
//    optimiser's grid refinement performs at paper scale (20 qubits);
//  - the spectrum the pipeline serves: a JO encoding's palette size,
//    QaoaSimulator::Create time and first Run time (which builds the
//    phase table), on the paper_backends QAOA instance class.
//
// Both comparisons first assert the determinism contract — fused and
// reference energies (and one full amplitude vector) must be
// bit-identical — and the binary exits non-zero on any mismatch, so the
// speedups it reports are only ever measured between kernels that agree.
//
// Environment:
//   QJO_QAOA_BENCH_FAST=1   small instance for the ctest smoke entry
//   QJO_BENCH_QAOA_JSON     output path (default BENCH_qaoa.json)
//   QJO_BENCH_PARALLELISM   pool size for the batched arm (default:
//                           hardware concurrency; 1 = no pool)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/qubo_cache.h"
#include "jo/query_generator.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "sim/qaoa_simulator.h"
#include "sim/sim_kernel.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/stats.h"
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

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The QUBO of a JO encoding as served to the QAOA backend: a chain
/// query at `omega` with one threshold, redrawn until it fits in
/// `max_qubits` (as the paper_backends workload does).
StatusOr<IsingModel> JoIsing(int relations, double omega, int max_qubits,
                             uint64_t seed) {
  Rng rng(seed);
  QueryGenOptions query_options;
  query_options.num_relations = relations;
  query_options.graph_type = QueryGraphType::kChain;
  JoEncodingOptions options;
  options.num_thresholds = 1;
  options.omega = omega;
  for (int draw = 0; draw < 64; ++draw) {
    QJO_ASSIGN_OR_RETURN(Query query, GenerateQuery(query_options, rng));
    QJO_ASSIGN_OR_RETURN(std::shared_ptr<const JoQuboEncoding> encoding,
                         BuildJoQuboEncoding(query, options));
    if (encoding->bilp.num_variables() <= max_qubits) {
      return QuboToIsing(encoding->encoding.qubo);
    }
  }
  return Status::NotFound("no JO encoding within the qubit cap");
}

using bench::Metric;

int RunQaoaEvalBench() {
  const bool fast = std::getenv("QJO_QAOA_BENCH_FAST") != nullptr;
  int parallelism = static_cast<int>(std::thread::hardware_concurrency());
  if (const char* p = std::getenv("QJO_BENCH_PARALLELISM")) {
    parallelism = std::atoi(p);
  }
  parallelism = std::max(parallelism, 1);

  const int nq = fast ? 16 : 20;
  const int depth = fast ? 2 : 3;
  const int gamma_points = fast ? 3 : 6;
  const int beta_points = fast ? 4 : 8;
  const int repeats = fast ? 2 : 3;
  const uint64_t size = uint64_t{1} << nq;

  const IsingModel ising = QuboToIsing(MakeRandomQubo(nq, 0.3, 53));
  auto sim = QaoaSimulator::Create(ising);
  if (!sim.ok()) {
    std::cerr << "QaoaSimulator::Create failed" << std::endl;
    return 1;
  }

  std::vector<Metric> metrics;
  metrics.push_back({"fast_mode", fast ? 1.0 : 0.0});
  metrics.push_back({"parallelism", static_cast<double>(parallelism)});
  metrics.push_back({"qaoa_qubits", static_cast<double>(nq)});
  metrics.push_back({"qaoa_depth", static_cast<double>(depth)});
  double sink = 0.0;  // keeps the timed work observable
  bool identical = true;

  // --- Kernel identity: one full evaluation, amplitude by amplitude. ---
  {
    QaoaParameters params;
    for (int rep = 0; rep < depth; ++rep) {
      params.gammas.push_back(0.25 + 0.1 * rep);
      params.betas.push_back(0.85 - 0.15 * rep);
    }
    auto reference = QaoaSimulator::Create(ising);
    const double ef = sim->Run(params, SimKernel::kFused);
    const double er = reference->Run(params, SimKernel::kReference);
    if (ef != er) identical = false;
    const auto& af = sim->amplitudes();
    const auto& ar = reference->amplitudes();
    for (uint64_t i = 0; i < size; ++i) {
      if (af[i] != ar[i]) {
        identical = false;
        break;
      }
    }
    metrics.push_back({"amplitudes_identical", identical ? 1.0 : 0.0});
  }

  // --- Mixer layer: amplitude updates/sec, fused vs reference. ---
  // Each of the nq butterfly sweeps updates all 2^nq amplitudes; the
  // fused kernel performs the same updates in ceil(nq/14) memory passes.
  {
    const int layers = fast ? 4 : 8;
    const double updates =
        static_cast<double>(layers) * nq * static_cast<double>(size);
    const auto time_kernel = [&](SimKernel kernel) {
      return BestSeconds(
          [&] {
            for (int l = 0; l < layers; ++l) {
              sim->ApplyMixerLayer(0.3 + 0.01 * l, kernel);
            }
            sink += sim->Probability(0);
          },
          repeats);
    };
    const double t_ref = time_kernel(SimKernel::kReference);
    const double t_fused = time_kernel(SimKernel::kFused);
    metrics.push_back({"mixer_amps_per_sec_reference", updates / t_ref});
    metrics.push_back({"mixer_amps_per_sec_fused", updates / t_fused});
    metrics.push_back({"mixer_fused_speedup", t_ref / t_fused});
  }

  // --- Per-ISA mixer throughput: the fused kernel at every SIMD tier
  // this host can execute (what QJO_SIMD=<tier> would dispatch). Before
  // timing a tier, one deterministic full evaluation is run under it and
  // its energy and amplitude vector are compared bit-for-bit against the
  // scalar tier, so a cross-tier divergence fails the binary the same
  // way a fused/reference mismatch does.
  {
    const SimdIsa dispatch_isa = Simd().isa;
    metrics.push_back(
        {"simd_isa", static_cast<double>(static_cast<int>(dispatch_isa))});
    std::vector<SimdIsa> tiers;
    for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kAvx2,
                        SimdIsa::kAvx512}) {
      if (SimdOpsFor(isa) != nullptr) tiers.push_back(isa);
    }

    QaoaParameters params;
    for (int rep = 0; rep < depth; ++rep) {
      params.gammas.push_back(0.21 + 0.07 * rep);
      params.betas.push_back(0.77 - 0.11 * rep);
    }
    auto tier_sim = QaoaSimulator::Create(ising);
    SetSimd(SimdIsa::kScalar);
    const double scalar_energy = tier_sim->Run(params, SimKernel::kFused);
    const auto scalar_amps = tier_sim->amplitudes();  // copied baseline

    const int layers = fast ? 4 : 8;
    const double updates =
        static_cast<double>(layers) * nq * static_cast<double>(size);
    for (const SimdIsa isa : tiers) {
      SetSimd(isa);
      if (isa != SimdIsa::kScalar) {
        const double e = tier_sim->Run(params, SimKernel::kFused);
        if (e != scalar_energy) identical = false;
        const auto& amps = tier_sim->amplitudes();
        for (uint64_t i = 0; i < size; ++i) {
          if (amps[i] != scalar_amps[i]) {
            identical = false;
            break;
          }
        }
      }
      const double t_tier = BestSeconds(
          [&] {
            for (int l = 0; l < layers; ++l) {
              sim->ApplyMixerLayer(0.3 + 0.01 * l, SimKernel::kFused);
            }
            sink += sim->Probability(0);
          },
          repeats);
      metrics.push_back({std::string("mixer_amps_per_sec_") + SimdIsaName(isa),
                         updates / t_tier});
    }
    SetSimd(dispatch_isa);  // restore the host-resolved dispatch
    metrics.push_back({"simd_tiers_identical", identical ? 1.0 : 0.0});
  }

  // --- Angle grid: evaluations/sec, batched fused vs serial reference. ---
  // Gamma-major order, the layout the optimiser's grid refinement emits:
  // consecutive evaluations share a gamma, so the fused kernel reuses its
  // phase table across the whole beta row.
  {
    std::vector<QaoaParameters> grid;
    grid.reserve(static_cast<size_t>(gamma_points) * beta_points);
    for (int i = 0; i < gamma_points; ++i) {
      for (int j = 0; j < beta_points; ++j) {
        QaoaParameters params;
        for (int rep = 0; rep < depth; ++rep) {
          params.gammas.push_back(0.15 + 0.12 * i + 0.03 * rep);
          params.betas.push_back(0.9 - 0.08 * j - 0.05 * rep);
        }
        grid.push_back(std::move(params));
      }
    }
    const double evals = static_cast<double>(grid.size());
    metrics.push_back({"grid_points", evals});

    std::vector<double> serial_energies(grid.size());
    const double t_serial = BestSeconds(
        [&] {
          for (size_t i = 0; i < grid.size(); ++i) {
            serial_energies[i] = sim->Run(grid[i], SimKernel::kReference);
          }
        },
        fast ? 1 : 2);

    std::optional<ThreadPool> pool;
    if (parallelism > 1) {
      pool.emplace(parallelism);
      sim->set_pool(&*pool);
    }
    std::vector<double> batched_energies;
    const double t_batched = BestSeconds(
        [&] { batched_energies = sim->EvaluateBatch(grid); }, repeats);
    sim->set_pool(nullptr);

    for (size_t i = 0; i < grid.size(); ++i) {
      if (batched_energies[i] != serial_energies[i]) identical = false;
      sink += batched_energies[i];
    }
    metrics.push_back({"energies_identical", identical ? 1.0 : 0.0});
    metrics.push_back({"grid_evals_per_sec_serial_reference",
                       evals / t_serial});
    metrics.push_back({"grid_evals_per_sec_batched_fused", evals / t_batched});
    metrics.push_back({"grid_speedup", t_serial / t_batched});
  }

  // --- The served spectrum: a JO encoding instead of a random QUBO. ---
  // Full mode uses the paper_backends instance class (3-relation chain,
  // omega 3, one threshold, <= 23 qubits; 5-12 float levels). Every
  // 3-relation encoding has 22+ qubits, so fast mode drops to a
  // 2-relation chain at omega 1 (6 qubits). Each repeat builds a fresh
  // simulator, so the first Run includes the phase-table build a served
  // request pays; the fused state is checked against the reference.
  {
    auto ising = fast ? JoIsing(2, 1.0, 6, 7) : JoIsing(3, 3.0, 23, 7);
    if (!ising.ok()) {
      std::cerr << "JO encoding failed: " << ising.status().ToString()
                << std::endl;
      return 1;
    }
    std::optional<ThreadPool> pool;
    if (parallelism > 1) pool.emplace(parallelism);
    QaoaParameters params{{0.37}, {0.52}};
    std::vector<double> create_ms, first_run_ms;
    size_t levels = 0;
    std::optional<QaoaSimulator> jo_sim;
    for (int r = 0; r < (fast ? 3 : 5); ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      auto created = QaoaSimulator::Create(*ising);
      create_ms.push_back(MsSince(t0));
      jo_sim.emplace(std::move(created).value());
      jo_sim->set_pool(pool ? &*pool : nullptr);
      const auto t1 = std::chrono::steady_clock::now();
      sink += jo_sim->Run(params);
      first_run_ms.push_back(MsSince(t1));
      levels = jo_sim->num_levels();
    }
    auto reference = QaoaSimulator::Create(*ising);
    const double er = reference->Run(params, SimKernel::kReference);
    const bool jo_identical = jo_sim->Run(params) == er &&
                              jo_sim->amplitudes() == reference->amplitudes();
    if (!jo_identical) identical = false;
    metrics.push_back({"jo_qubits", static_cast<double>(ising->num_spins())});
    metrics.push_back({"jo_spectrum_levels", static_cast<double>(levels)});
    metrics.push_back({"jo_create_ms", Quantile(create_ms, 0.5)});
    metrics.push_back({"jo_first_run_ms", Quantile(first_run_ms, 0.5)});
    metrics.push_back({"jo_identical", jo_identical ? 1.0 : 0.0});
  }

  const char* json_path = std::getenv("QJO_BENCH_QAOA_JSON");
  const std::string path = json_path != nullptr ? json_path : "BENCH_qaoa.json";
  std::cout << "qaoa eval bench (" << (fast ? "fast" : "full")
            << " mode), sink=" << sink << ":\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << "\n";
  }
  bench::WriteJson(path, metrics);

  if (!identical) {
    std::cerr << "FATAL: fused/batched results are not bit-identical to the "
                 "serial reference kernel"
              << std::endl;
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace qjo

int main() { return qjo::RunQaoaEvalBench(); }
