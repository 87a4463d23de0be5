#include "core/quantum_optimizer.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "circuit/qaoa_builder.h"
#include "jo/classical.h"
#include "qubo/ising.h"
#include "qubo/solvers.h"
#include "sim/qaoa_analytic.h"
#include "sim/qaoa_simulator.h"
#include "topology/vendor_topologies.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace qjo {

QjoConfig::QjoConfig() : device(IbmAucklandProperties()) {
  transpile.gate_set = NativeGateSet::kIbm;
  sqa.num_reads = 1000;
  sqa.ice_sigma = 0.015;
}

const char* QjoBackendName(QjoBackend backend) {
  switch (backend) {
    case QjoBackend::kExact:
      return "exact";
    case QjoBackend::kSimulatedAnnealing:
      return "simulated_annealing";
    case QjoBackend::kQaoaSimulator:
      return "qaoa_simulator";
    case QjoBackend::kQuantumAnnealerSim:
      return "quantum_annealer_sim";
    case QjoBackend::kPortfolio:
      return "portfolio";
  }
  return "unknown";
}

std::string QjoReport::Summary() const {
  std::ostringstream os;
  os << "logical qubits: " << encoding.bilp_variables
     << ", quadratic terms: " << encoding.qubo_quadratic_terms << "\n";
  if (gate.circuit_depth > 0) {
    os << "circuit depth: " << gate.circuit_depth
       << ", 2q gates: " << gate.two_qubit_gates
       << ", est. fidelity: " << FormatDouble(gate.fidelity, 4) << "\n";
  }
  if (anneal.physical_qubits > 0) {
    os << "physical qubits: " << anneal.physical_qubits
       << ", max chain: " << anneal.max_chain_length
       << ", chain breaks: " << FormatPercent(anneal.mean_chain_break_fraction)
       << "\n";
  }
  if (stage_timings.total_ms > 0.0) {
    double solve_ms = 0.0;
    for (const StageTimings::Stage& stage : stage_timings.stages) {
      if (stage.name.rfind("solve.", 0) == 0) solve_ms += stage.ms;
    }
    os << "pipeline: " << FormatDouble(stage_timings.total_ms, 2)
       << " ms (encode " << FormatDouble(stage_timings.Of("encode"), 2)
       << " ms, solve " << FormatDouble(solve_ms, 2) << " ms)\n";
  }
  if (!simd_isa.empty()) os << "simd: " << simd_isa << "\n";
  os << "samples: " << stats.total << " (valid "
     << FormatPercent(stats.valid_fraction()) << ", optimal "
     << FormatPercent(stats.optimal_fraction()) << ")\n";
  if (found_valid) {
    os << "best cost: " << best_cost << " (optimum " << optimal_cost << ")";
  } else {
    os << "no valid solution sampled (optimum " << optimal_cost << ")";
  }
  if (!portfolio.winner.empty()) {
    os << "\n" << portfolio.Summary();
  }
  return os.str();
}

namespace {

/// Expands a sampled basis state into a bit vector (LSB = variable 0).
std::vector<int> BasisToBits(uint64_t basis, int num_bits) {
  std::vector<int> bits(num_bits);
  for (int i = 0; i < num_bits; ++i) {
    bits[i] = static_cast<int>((basis >> i) & 1);
  }
  return bits;
}

}  // namespace

StatusOr<QjoReport> OptimizeJoinOrder(const Query& query,
                                      const QjoConfig& config) {
  if (query.num_relations() < 2) {
    return Status::InvalidArgument("need at least 2 relations");
  }
  QJO_RETURN_IF_ERROR(ValidateRunContext(config.run));
  Rng rng(config.seed);
  QjoReport report;
  // Spans that feed report.stage_timings close inside their own scope —
  // none may be alive at the return statement, where the report is moved
  // into the result before locals unwind.
  const auto pipeline_start = std::chrono::steady_clock::now();

  // --- Encode: JO -> MILP -> BILP -> QUBO (Sec. 3), via the memoizing
  // cache when one is attached (repeated fingerprints skip the rebuild).
  std::shared_ptr<const JoQuboEncoding> entry;
  {
    StageSpan encode_span(config.run.trace, "encode", &report.stage_timings);
    JoEncodingOptions encode_options;
    encode_options.thresholds = config.thresholds;
    encode_options.num_thresholds = config.num_thresholds;
    encode_options.omega = config.omega;
    if (config.qubo_cache != nullptr) {
      QJO_ASSIGN_OR_RETURN(
          entry, config.qubo_cache->GetOrBuild(query, encode_options));
    } else {
      QJO_ASSIGN_OR_RETURN(entry, BuildJoQuboEncoding(query, encode_options));
    }
  }
  const JoMilpModel& milp = entry->milp;
  const BilpModel& bilp = entry->bilp;
  const QuboEncoding& encoding = entry->encoding;

  report.encoding.milp_variables = milp.model().num_variables();
  report.encoding.bilp_variables = bilp.num_variables();
  report.encoding.qubo_quadratic_terms = encoding.qubo.num_quadratic_terms();
  // Which SIMD tier the stochastic solves' kernels run on
  // (host-resolved).
  report.simd_isa = Simd().name;
  if (config.run.metrics != nullptr) {
    config.run.metrics->Count("pipeline.runs");
    config.run.metrics->GaugeMax(
        "simd.isa", static_cast<double>(static_cast<int>(Simd().isa)));
    config.run.metrics->GaugeMax("pipeline.bilp_variables",
                             report.encoding.bilp_variables);
    config.run.metrics->GaugeMax("pipeline.qubo_quadratic_terms",
                             report.encoding.qubo_quadratic_terms);
    if (config.qubo_cache != nullptr) {
      // Cache stats are cumulative, so max-merge across shards/runs
      // yields the latest totals.
      const QuboBuildCache::Stats cache = config.qubo_cache->stats();
      config.run.metrics->GaugeMax("qubo_cache.hits",
                               static_cast<double>(cache.hits));
      config.run.metrics->GaugeMax("qubo_cache.misses",
                               static_cast<double>(cache.misses));
      config.run.metrics->GaugeMax("qubo_cache.evictions",
                               static_cast<double>(cache.evictions));
    }
  }

  // Ground truth for optimality labelling. Past kMaxDpRelations the DP
  // tables would not fit, so the reference degrades to the greedy plan:
  // "optimal" labels then mean "matched the classical reference", and the
  // pipeline keeps solving instead of failing the whole query.
  JoResult oracle;
  {
    StageSpan oracle_span(config.run.trace, "oracle_dp", &report.stage_timings);
    auto exact = OptimizeDp(query);
    if (exact.ok()) {
      oracle = std::move(*exact);
    } else if (exact.status().code() == StatusCode::kResourceExhausted) {
      QJO_ASSIGN_OR_RETURN(oracle, OptimizeGreedy(query));
    } else {
      return exact.status();
    }
  }
  report.optimal_order = oracle.order;
  report.optimal_cost = oracle.cost;

  // --- Solve on the selected backend. ---
  std::vector<std::vector<int>> samples;
  {
  const std::string solve_stage =
      std::string("solve.") + QjoBackendName(config.backend);
  StageSpan solve_span(config.run.trace, solve_stage.c_str(),
                       &report.stage_timings);
  switch (config.backend) {
    case QjoBackend::kExact: {
      QJO_ASSIGN_OR_RETURN(QuboSolution best,
                           SolveQuboBruteForce(encoding.qubo));
      samples.push_back(best.assignment);
      break;
    }
    case QjoBackend::kSimulatedAnnealing: {
      SaOptions sa;
      sa.num_reads = std::max(1, config.shots / 8);
      sa.control.pool = config.run.pool;
      sa.control.stop = config.run.stop;
      sa.control.trace = config.run.trace;
      sa.control.metrics = config.run.metrics;
      const std::vector<QuboSolution> reads =
          SolveQuboSimulatedAnnealing(encoding.qubo, sa, rng);
      for (const auto& read : reads) samples.push_back(read.assignment);
      break;
    }
    case QjoBackend::kQaoaSimulator: {
      // Sampled basis states are decoded through a uint64_t, so anything
      // past 64 logical variables would silently truncate to garbage
      // bits; fail loudly instead. (The simulator's own memory limit is
      // far below this — the check documents the decode boundary.)
      if (bilp.num_variables() > 64) {
        return Status::ResourceExhausted(
            "QAOA backend supports at most 64 logical variables (basis "
            "states are decoded from uint64_t)");
      }
      const IsingModel ising = QuboToIsing(encoding.qubo);
      StatusOr<QaoaSimulator> created = [&] {
        StageSpan spectrum_span(config.run.trace, "qaoa_spectrum",
                                &report.stage_timings);
        return QaoaSimulator::Create(ising);
      }();
      QJO_ASSIGN_OR_RETURN(QaoaSimulator sim, std::move(created));
      // The 2^n amplitude loops run blocked on the shared pool (serial
      // without one); chunking is thread-count-independent, so the report
      // does not depend on the pool size.
      sim.set_pool(config.run.pool);
      sim.set_metrics(config.run.metrics);
      QaoaAngles angles;
      {
        StageSpan angles_span(config.run.trace, "qaoa_angles",
                              &report.stage_timings);
        angles = OptimizeQaoaAngles(ising, config.qaoa_iterations, rng);
      }
      report.gate.gamma = angles.gamma;
      report.gate.beta = angles.beta;
      if (config.qaoa_grid > 1) {
        StageSpan grid_span(config.run.trace, "qaoa_grid",
                            &report.stage_timings);
        // Local grid refinement around the analytic angles: one batched
        // sweep over a gamma-major qaoa_grid^2 grid in [0.5, 1.5] x the
        // analytic values. Gamma-major order maximises phase-table reuse
        // inside EvaluateBatch; the argmin takes the lowest index on
        // ties, so the result is independent of the pool size.
        const int g = config.qaoa_grid;
        std::vector<QaoaParameters> grid;
        grid.reserve(static_cast<size_t>(g) * g);
        for (int i = 0; i < g; ++i) {
          const double sg = 0.5 + 1.0 * i / (g - 1);
          for (int j = 0; j < g; ++j) {
            const double sb = 0.5 + 1.0 * j / (g - 1);
            QaoaParameters candidate;
            candidate.gammas = {angles.gamma * sg};
            candidate.betas = {angles.beta * sb};
            grid.push_back(std::move(candidate));
          }
        }
        const std::vector<double> energies = sim.EvaluateBatch(grid);
        size_t best = 0;
        for (size_t i = 1; i < energies.size(); ++i) {
          if (energies[i] < energies[best]) best = i;
        }
        report.gate.gamma = grid[best].gammas[0];
        report.gate.beta = grid[best].betas[0];
      }
      QaoaParameters params;
      params.gammas = {report.gate.gamma};
      params.betas = {report.gate.beta};
      {
        StageSpan run_span(config.run.trace, "qaoa_run", &report.stage_timings);
        sim.Run(params);
      }

      // Transpile the circuit for the device to obtain depth and fidelity.
      {
        StageSpan transpile_span(config.run.trace, "transpile",
                                 &report.stage_timings);
        QJO_ASSIGN_OR_RETURN(QuantumCircuit logical,
                             BuildQaoaCircuit(ising, params));
        const CouplingGraph topology = config.gate_topology.has_value()
                                           ? *config.gate_topology
                                           : MakeIbmFalcon27();
        TranspileOptions transpile = config.transpile;
        transpile.seed = rng.Next();
        QJO_ASSIGN_OR_RETURN(TranspileResult physical,
                             Transpile(logical, topology, transpile));
        report.gate.circuit_depth = physical.depth;
        report.gate.two_qubit_gates = physical.two_qubit_gate_count;
        report.gate.fidelity =
            config.noiseless
                ? 1.0
                : EstimateCircuitFidelity(physical.circuit, config.device);
        report.gate.timings =
            EstimateQpuTimings(physical.circuit, config.shots, config.device);
      }

      StageSpan sample_span(config.run.trace, "sample", &report.stage_timings);
      const std::vector<uint64_t> raw =
          sim.Sample(config.shots, report.gate.fidelity, rng);
      samples.reserve(raw.size());
      for (uint64_t basis : raw) {
        samples.push_back(BasisToBits(basis, bilp.num_variables()));
      }
      break;
    }
    case QjoBackend::kQuantumAnnealerSim: {
      CouplingGraph topology;
      if (config.annealer_topology.has_value()) {
        topology = *config.annealer_topology;
      } else {
        QJO_ASSIGN_OR_RETURN(topology, MakePegasus(6));
      }
      std::optional<Embedding> embedding;
      std::optional<EmbeddedQubo> embedded;
      {
        StageSpan embed_span(config.run.trace, "embedding",
                             &report.stage_timings);
        QJO_ASSIGN_OR_RETURN(
            embedding,
            FindMinorEmbedding(encoding.qubo.Edges(),
                               encoding.qubo.num_variables(), topology,
                               config.embedding, rng));
      }
      {
        StageSpan embed_qubo_span(config.run.trace, "embed_qubo",
                                  &report.stage_timings);
        QJO_ASSIGN_OR_RETURN(embedded,
                             EmbedQubo(encoding.qubo, *embedding, topology,
                                       config.embed_qubo));
      }
      report.anneal.physical_qubits = embedding->NumPhysicalQubits();
      report.anneal.max_chain_length = embedding->MaxChainLength();
      report.anneal.chain_strength = embedded->chain_strength;

      const IsingModel physical_ising = QuboToIsing(embedded->physical);
      SqaOptions sqa = config.sqa;
      sqa.kernel = SolverKernel::kBatched;
      sqa.control.pool = config.run.pool;
      sqa.control.stop = config.run.stop;
      sqa.control.trace = config.run.trace;
      sqa.control.metrics = config.run.metrics;
      QJO_ASSIGN_OR_RETURN(std::vector<SqaSample> reads,
                           RunSqa(physical_ising, sqa, rng));
      double chain_breaks = 0.0;
      for (const SqaSample& read : reads) {
        const UnembeddedSample logical =
            UnembedSample(SpinsToBits(read.spins), embedded->embedding, rng);
        chain_breaks += logical.chain_break_fraction;
        samples.push_back(logical.logical_bits);
      }
      if (!reads.empty()) {
        report.anneal.mean_chain_break_fraction =
            chain_breaks / static_cast<double>(reads.size());
      }
      break;
    }
    case QjoBackend::kPortfolio: {
      PortfolioOptions race = config.portfolio;
      // The decomposition strand re-encodes window subqueries constantly;
      // the pipeline's shared build cache absorbs the repeats.
      race.decomp.cache = config.qubo_cache;
      QJO_ASSIGN_OR_RETURN(
          report.portfolio,
          RunJoPortfolio(query, *entry, race, config.run, rng));
      if (config.qubo_cache != nullptr) {
        const QuboBuildCache::Stats cache = config.qubo_cache->stats();
        report.portfolio.cache_hits = cache.hits;
        report.portfolio.cache_misses = cache.misses;
        report.portfolio.cache_hit_rate = cache.hit_rate();
      }
      if (!report.portfolio.race.best_assignment.empty()) {
        samples.push_back(report.portfolio.race.best_assignment);
      }
      break;
    }
  }
  }  // solve span

  {
    StageSpan post_span(config.run.trace, "postprocess", &report.stage_timings);
    report.stats = EvaluateSamples(milp, samples, oracle.cost, &bilp);
  }
  report.found_valid = report.stats.found_valid;
  report.best_order = report.stats.best_order;
  report.best_cost = report.stats.best_cost;
  if (config.backend == QjoBackend::kPortfolio) {
    // The portfolio guarantees a plan (classical fallback included) even
    // when its best QUBO sample decodes as invalid.
    report.found_valid = report.portfolio.found_valid;
    report.best_order = report.portfolio.best_order;
    report.best_cost = report.portfolio.best_cost;
  }
  if (config.run.metrics != nullptr) {
    config.run.metrics->Count("pipeline.samples",
                          static_cast<uint64_t>(report.stats.total));
    if (config.run.pool != nullptr) {
      // Cumulative dispatch count of the shared pool; max-merge keeps the
      // latest value.
      config.run.metrics->GaugeMax(
          "pool.tasks_dispatched",
          static_cast<double>(config.run.pool->tasks_dispatched()));
    }
  }
  const auto pipeline_end = std::chrono::steady_clock::now();
  if (config.run.trace != nullptr) {
    // Root span enclosing every stage; recorded directly (a StageSpan
    // would still be alive at the return, after the report moved out).
    config.run.trace->Record("pipeline", pipeline_start, pipeline_end);
  }
  report.stage_timings.total_ms =
      std::chrono::duration<double, std::milli>(pipeline_end - pipeline_start)
          .count();
  return report;
}

std::vector<StatusOr<QjoReport>> OptimizeJoinOrderBatch(
    std::span<const Query> queries, const QjoConfig& config) {
  std::vector<StatusOr<QjoReport>> reports(
      queries.size(), Status::Internal("batch slot not executed"));
  if (queries.empty()) return reports;

  // Every query sees the caller's pool, both for the query-level fan-out
  // and for its inner read loops (nested ParallelFor is safe): whichever
  // level has the most work soaks up the threads. Per-query results do
  // not depend on this sharing — seed-splitting makes them bit-identical
  // to a serial one-by-one run.
  QjoConfig per_query = config;

  // Batch-wide QUBO-build cache: repeated query shapes (same
  // cardinalities, predicates, thresholds, omega) encode once. Cached
  // entries are deterministic, so sharing cannot change any result.
  std::optional<QuboBuildCache> owned_cache;
  if (per_query.qubo_cache == nullptr) {
    owned_cache.emplace();
    per_query.qubo_cache = &*owned_cache;
  }
  ParallelFor(config.run.pool, 0, static_cast<int64_t>(queries.size()),
              [&](int64_t i) {
                reports[i] = OptimizeJoinOrder(queries[i], per_query);
              });
  return reports;
}

}  // namespace qjo
