// Reproduces Table 3: average fraction of valid and optimal solutions over
// repeated annealing experiments (simulated quantum annealing with ICE
// noise on minor-embedded QUBOs), for 3/4/5-relation chain/star/cycle
// queries and annealing times of 20/60/100 us. Each experiment embeds its
// query once and reuses the embedding across annealing times (as on real
// hardware).
//
// Exits 1 when an experiment fails to build, embed or anneal, or when a
// 3-relation cell yields no valid sample (the paper's easiest cells sit
// at ~25-33% valid); the ctest smoke runs it at a small QJO_BENCH_SCALE.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/postprocess.h"
#include "embedding/embedded_qubo.h"
#include "embedding/minor_embedding.h"
#include "jo/classical.h"
#include "jo/query_generator.h"
#include "lp/bilp.h"
#include "lp/jo_encoder.h"
#include "qubo/bilp_to_qubo.h"
#include "qubo/ising.h"
#include "sim/sqa.h"
#include "topology/vendor_topologies.h"
#include "util/strings.h"

namespace qjo {
namespace {

constexpr double kAnnealTimes[] = {20.0, 60.0, 100.0};

struct CellStats {
  double valid_sum = 0.0;
  double optimal_sum = 0.0;
  double chain_break_sum = 0.0;
  int completed = 0;
};

int Run() {
  const int reads = bench::Scaled(500, 100);
  const int experiments = bench::Scaled(4, 2);
  bench::Banner("Table 3",
                "annealing solution quality (SQA + ICE noise, Pegasus)");
  bench::PaperNote(
      "paper (1000 reads x 20 experiments): 3 relations ~25-33% valid / "
      "~8-10% optimal; 4 relations ~1.5-3.2% valid / ~0.2-0.4% optimal; 5 "
      "relations <=0.07% valid, 0% optimal; annealing time has minimal "
      "impact");

  auto pegasus = MakePegasus(8);  // 1344 qubits: ample for <=5 relations
  if (!pegasus.ok()) return 1;

  const int parallelism = bench::Parallelism();
  RunContext sqa_run;
  sqa_run.pool = bench::Pool();
  bench::ObsSession::Get().Apply(sqa_run);
  long long total_reads = 0;
  int failed_experiments = 0;
  int empty_cells = 0;
  double total_sqa_seconds = 0.0;

  std::printf("\n%d reads x %d experiments per cell "
              "(QJO_BENCH_SCALE=4 for the paper's 20), "
              "parallelism %d (QJO_BENCH_PARALLELISM)\n",
              reads, experiments, parallelism);
  std::printf("%-8s %3s | %10s | %8s %8s | %10s %10s\n", "graph", "T",
              "t_anneal", "valid", "optimal", "phys-qubits", "chainbreak");

  for (QueryGraphType type : {QueryGraphType::kChain, QueryGraphType::kStar,
                              QueryGraphType::kCycle}) {
    for (int t : {3, 4, 5}) {
      if (type == QueryGraphType::kStar && t == 3) continue;  // = chain
      CellStats cells[3];
      int physical = 0;
      for (int e = 0; e < experiments; ++e) {
        Rng rng(9000 + 1000 * t + 100 * static_cast<int>(type) + e);
        const auto fail = [&](const char* step, const Status& status) {
          std::fprintf(stderr, "FAIL: %s t=%d experiment %d: %s: %s\n",
                       QueryGraphTypeName(type), t, e, step,
                       status.ToString().c_str());
          ++failed_experiments;
        };
        QueryGenOptions gen;
        gen.num_relations = t;
        gen.graph_type = type;
        gen.min_log_card = 2.0;
        gen.max_log_card = 4.0;
        auto query = GenerateQuery(gen, rng);
        if (!query.ok()) {
          fail("query", query.status());
          continue;
        }
        JoMilpOptions options;
        options.thresholds = MakeGeometricThresholds(*query, 1);
        auto milp = EncodeJoAsMilp(*query, options);
        if (!milp.ok()) {
          fail("encoding", milp.status());
          continue;
        }
        auto bilp = LowerToBilp(milp->model(), 1.0);
        if (!bilp.ok()) {
          fail("bilp", bilp.status());
          continue;
        }
        auto encoding = ConvertBilpToQubo(*bilp, QuboConversionOptions{});
        if (!encoding.ok()) {
          fail("qubo", encoding.status());
          continue;
        }
        auto oracle = OptimizeDp(*query);
        if (!oracle.ok()) {
          fail("oracle", oracle.status());
          continue;
        }

        auto embedding = FindMinorEmbedding(
            encoding->qubo.Edges(), encoding->qubo.num_variables(), *pegasus,
            EmbeddingOptions{}, rng, bench::Pool());
        if (!embedding.ok()) {
          fail("embedding", embedding.status());
          continue;
        }
        auto embedded = EmbedQubo(encoding->qubo, *embedding, *pegasus,
                                  EmbedQuboOptions{});
        if (!embedded.ok()) {
          fail("embed_qubo", embedded.status());
          continue;
        }
        physical = embedding->NumPhysicalQubits();
        const IsingModel physical_ising = QuboToIsing(embedded->physical);

        for (int time_index = 0; time_index < 3; ++time_index) {
          SqaOptions sqa;
          sqa.num_reads = reads;
          sqa.annealing_time_us = kAnnealTimes[time_index];
          sqa.ice_sigma = 0.015;
          // Cost knobs: the paper's own finding is that annealing time
          // hardly matters, so a coarser time -> sweep mapping and fewer
          // Trotter replicas preserve the table's shape at a fraction of
          // the Monte-Carlo cost.
          sqa.sweeps_per_us = 3.0;
          sqa.trotter_slices = 8;
          const auto sqa_start = std::chrono::steady_clock::now();
          auto sqa_reads = RunSqa(physical_ising, sqa, sqa_run, rng);
          total_sqa_seconds +=
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            sqa_start)
                  .count();
          if (!sqa_reads.ok()) {
            fail("sqa", sqa_reads.status());
            continue;
          }
          total_reads += sqa_reads->size();
          std::vector<std::vector<int>> samples;
          double chain_breaks = 0.0;
          for (const SqaSample& read : *sqa_reads) {
            const UnembeddedSample logical =
                UnembedSample(SpinsToBits(read.spins), embedded->embedding,
                              rng);
            chain_breaks += logical.chain_break_fraction;
            samples.push_back(logical.logical_bits);
          }
          const SampleSetStats stats =
              EvaluateSamples(*milp, samples, oracle->cost);
          CellStats& cell = cells[time_index];
          cell.valid_sum += stats.valid_fraction();
          cell.optimal_sum += stats.optimal_fraction();
          cell.chain_break_sum +=
              chain_breaks / static_cast<double>(sqa_reads->size());
          ++cell.completed;
        }
      }
      for (int time_index = 0; time_index < 3; ++time_index) {
        const CellStats& cell = cells[time_index];
        if (t == 3 && cell.valid_sum == 0.0) {
          std::fprintf(stderr, "FAIL: %s t=3 %.0fus: no valid sample\n",
                       QueryGraphTypeName(type), kAnnealTimes[time_index]);
          ++empty_cells;
        }
        if (cell.completed == 0) {
          std::printf("%-8s %3d | %8.0fus | all experiments failed\n",
                      QueryGraphTypeName(type), t, kAnnealTimes[time_index]);
          continue;
        }
        std::printf(
            "%-8s %3d | %8.0fus | %8s %8s | %10d %10s\n",
            QueryGraphTypeName(type), t, kAnnealTimes[time_index],
            FormatPercent(cell.valid_sum / cell.completed, 2).c_str(),
            FormatPercent(cell.optimal_sum / cell.completed, 2).c_str(),
            physical,
            FormatPercent(cell.chain_break_sum / cell.completed, 1).c_str());
      }
    }
  }
  if (total_sqa_seconds > 0.0) {
    std::printf(
        "\nthroughput: %lld SQA reads in %.1fs -> %.0f reads/sec "
        "(parallelism %d; sample sets are bit-identical at any level)\n",
        total_reads, total_sqa_seconds,
        static_cast<double>(total_reads) / total_sqa_seconds, parallelism);
  }
  return failed_experiments == 0 && empty_cells == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qjo

int main() { return qjo::Run(); }
