// Ablations for the annealing track: (a) chain-strength sweep — the knob
// the paper tuned per problem size; (b) Chimera (2000Q generation) vs
// Pegasus (Advantage) embedding sizes — topology co-design for annealers.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/quantum_optimizer.h"
#include "embedding/minor_embedding.h"
#include "jo/query_generator.h"
#include "lp/bilp.h"
#include "lp/jo_encoder.h"
#include "qubo/bilp_to_qubo.h"
#include "topology/vendor_topologies.h"
#include "util/strings.h"

namespace qjo {
namespace {

void ChainStrengthSweep() {
  std::printf("\n[a] chain-strength sweep (4-relation chain query)\n");
  std::printf("%12s | %8s %8s | %12s\n", "multiplier", "valid", "optimal",
              "chain breaks");
  auto pegasus = MakePegasus(6);
  if (!pegasus.ok()) return;
  const int reads = bench::Scaled(400, 50);
  long long total_reads = 0;
  const auto sweep_start = std::chrono::steady_clock::now();
  for (double multiplier : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    Rng gen_rng(31);
    QueryGenOptions gen;
    gen.num_relations = 4;
    gen.graph_type = QueryGraphType::kChain;
    gen.min_log_card = 2.0;
    gen.max_log_card = 4.0;
    auto query = GenerateQuery(gen, gen_rng);
    if (!query.ok()) return;
    QjoConfig config;
    config.backend = QjoBackend::kQuantumAnnealerSim;
    config.num_thresholds = 1;
    config.annealer_topology = *pegasus;
    config.sqa.num_reads = reads;
    config.embed_qubo.chain_strength_multiplier = multiplier;
    config.seed = 41;
    bench::ObsSession::Get().Apply(config);
    config.run.pool = bench::Pool();
    auto report = OptimizeJoinOrder(*query, config);
    if (!report.ok()) {
      std::printf("%12.2f | failed: %s\n", multiplier,
                  report.status().ToString().c_str());
      continue;
    }
    total_reads += reads;
    std::printf("%12.2f | %8s %8s | %12s\n", multiplier,
                FormatPercent(report->stats.valid_fraction(), 2).c_str(),
                FormatPercent(report->stats.optimal_fraction(), 2).c_str(),
                FormatPercent(report->anneal.mean_chain_break_fraction, 1).c_str());
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();
  if (total_reads > 0 && elapsed > 0.0) {
    std::printf("throughput: %lld reads in %.1fs -> %.0f reads/sec "
                "(parallelism %d, incl. embedding)\n",
                total_reads, elapsed,
                static_cast<double>(total_reads) / elapsed,
                bench::Parallelism());
  }
  std::printf(
      "over-strong chains drown the problem Hamiltonian (quality falls);\n"
      "moderately soft chains tolerate some breaks that majority-vote\n"
      "unembedding repairs — which is why the paper tunes the strength\n"
      "per problem size instead of using a fixed rule.\n");
}

void TopologyGenerationSweep() {
  std::printf("\n[b] annealer topology generations: Chimera vs Pegasus\n");
  std::printf("%10s | %-8s | %8s %9s %9s\n", "relations", "target", "logical",
              "physical", "max-chain");
  auto chimera = MakeChimera(16);   // 2048 qubits (2000Q scale)
  auto pegasus = MakePegasus(8);    // 1344 qubits
  if (!chimera.ok() || !pegasus.ok()) return;
  for (int t : {3, 4, 5}) {
    Rng gen_rng(900 + t);
    QueryGenOptions gen;
    gen.num_relations = t;
    gen.graph_type = QueryGraphType::kChain;
    gen.min_log_card = 2.0;
    gen.max_log_card = 4.0;
    auto query = GenerateQuery(gen, gen_rng);
    if (!query.ok()) continue;
    JoMilpOptions options;
    options.thresholds = MakeGeometricThresholds(*query, 1);
    auto milp = EncodeJoAsMilp(*query, options);
    if (!milp.ok()) continue;
    auto bilp = LowerToBilp(milp->model(), 1.0);
    if (!bilp.ok()) continue;
    auto encoding = ConvertBilpToQubo(*bilp, QuboConversionOptions{});
    if (!encoding.ok()) continue;
    for (const auto& [name, target] :
         {std::pair<const char*, const CouplingGraph*>{"chimera",
                                                       &*chimera},
          {"pegasus", &*pegasus}}) {
      Rng rng(77);
      EmbeddingOptions eopts;
      eopts.tries = 3;
      auto embedding = FindMinorEmbedding(encoding->qubo.Edges(),
                                          encoding->qubo.num_variables(),
                                          *target, eopts, rng);
      if (!embedding.ok()) {
        std::printf("%10d | %-8s | %8d %9s %9s\n", t, name,
                    encoding->qubo.num_variables(), "none", "-");
        continue;
      }
      std::printf("%10d | %-8s | %8d %9d %9d\n", t, name,
                  encoding->qubo.num_variables(),
                  embedding->NumPhysicalQubits(),
                  embedding->MaxChainLength());
    }
  }
  std::printf(
      "Pegasus' degree-15 connectivity needs fewer and shorter chains than\n"
      "degree-6 Chimera — the annealer-side co-design story.\n");
}

void BatchThroughput() {
  std::printf("\n[c] batched pipeline runs (OptimizeJoinOrderBatch, "
              "annealer backend)\n");
  auto pegasus = MakePegasus(6);
  if (!pegasus.ok()) return;
  std::vector<Query> queries;
  for (QueryGraphType type : {QueryGraphType::kChain, QueryGraphType::kStar,
                              QueryGraphType::kCycle, QueryGraphType::kChain}) {
    Rng gen_rng(600 + static_cast<int>(queries.size()));
    QueryGenOptions gen;
    gen.num_relations = 4;
    gen.graph_type = type;
    gen.min_log_card = 2.0;
    gen.max_log_card = 4.0;
    auto query = GenerateQuery(gen, gen_rng);
    if (query.ok()) queries.push_back(*query);
  }
  if (queries.empty()) return;
  const int reads = bench::Scaled(200, 50);
  QjoConfig config;
  config.backend = QjoBackend::kQuantumAnnealerSim;
  config.num_thresholds = 1;
  config.annealer_topology = *pegasus;
  config.sqa.num_reads = reads;
  config.seed = 43;
  bench::ObsSession::Get().Apply(config);
  config.run.pool = bench::Pool();
  const auto start = std::chrono::steady_clock::now();
  const auto reports = OptimizeJoinOrderBatch(queries, config);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  int completed = 0;
  for (const auto& report : reports) {
    if (report.ok()) ++completed;
  }
  const long long total_reads =
      static_cast<long long>(completed) * static_cast<long long>(reads);
  std::printf("%d/%zu queries x %d reads in %.1fs -> %.0f reads/sec "
              "(one pool of %d threads shared across queries and reads)\n",
              completed, queries.size(), reads, elapsed,
              elapsed > 0.0 ? static_cast<double>(total_reads) / elapsed : 0.0,
              bench::Parallelism());
}

void Run() {
  bench::Banner("Ablation", "annealing knobs: chain strength & topology");
  ChainStrengthSweep();
  TopologyGenerationSweep();
  BatchThroughput();
}

}  // namespace
}  // namespace qjo

int main() {
  qjo::Run();
  return 0;
}
