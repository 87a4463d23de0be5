// Golden answer digests: a fixed, seeded list of small queries runs through
// every backend and oracle, each answer is hashed, and the hashes are
// compared with tests/golden/answers.txt. The entries must also agree
// between a null pool and pools of 1 and 4 threads.
//
// Re-blessing: run
//   QJO_GOLDEN_BLESS=1 ./build/tests/golden_test
// to rewrite tests/golden/answers.txt from the current build. Do this only
// in a change that announces a per-seed change of answers (and says so in
// CHANGES.md). A change that claims bit-identical answers leaves the file
// untouched; never re-bless to make a defect pass.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/qubo_cache.h"
#include "core/quantum_optimizer.h"
#include "decomp/decomp.h"
#include "embedding/minor_embedding.h"
#include "jo/classical.h"
#include "jo/query_generator.h"
#include "topology/vendor_topologies.h"
#include "util/random.h"
#include "util/thread_pool.h"

#ifndef QJO_GOLDEN_FILE
#error "QJO_GOLDEN_FILE must name tests/golden/answers.txt"
#endif

namespace qjo {
namespace {

/// FNV-1a over the fields of one answer. Doubles enter by bit pattern, so
/// a one-ulp change moves the digest.
class Digest {
 public:
  Digest& Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Digest& Add(int v) {
    return Add(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
  Digest& Add(bool v) { return Add(uint64_t{v}); }
  Digest& Add(double v) { return Add(std::bit_cast<uint64_t>(v)); }
  Digest& Add(const std::vector<int>& v) {
    Add(static_cast<uint64_t>(v.size()));
    for (int x : v) Add(x);
    return *this;
  }
  Digest& Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    return *this;
  }

  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

Query MakeQuery(int relations, QueryGraphType shape, uint64_t seed) {
  QueryGenOptions options;
  options.num_relations = relations;
  options.graph_type = shape;
  Rng rng(seed);
  auto query = GenerateQuery(options, rng);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return std::move(query).value();
}

void AddReport(Digest& d, const QjoReport& report) {
  d.Add(report.found_valid);
  d.Add(report.best_order.order());
  d.Add(report.best_cost);
  d.Add(report.optimal_order.order());
  d.Add(report.optimal_cost);
  d.Add(report.stats.total);
  d.Add(report.stats.valid);
  d.Add(report.stats.optimal);
  d.Add(report.stats.bilp_feasible);
  d.Add(report.encoding.bilp_variables);
}

constexpr QueryGraphType kShapes[] = {
    QueryGraphType::kChain, QueryGraphType::kStar, QueryGraphType::kCycle};
constexpr const char* kShapeNames[] = {"chain", "star", "cycle"};

/// Digest of the pipeline's report for `query` under `config` on `pool`,
/// plus the backend-specific fields `extra` adds.
std::string RunPipeline(
    const Query& query, QjoConfig config, ThreadPool* pool,
    const std::function<void(Digest&, const QjoReport&)>& extra = nullptr) {
  config.run.pool = pool;
  auto report = OptimizeJoinOrder(query, config);
  if (!report.ok()) return "error:" + report.status().ToString();
  Digest d;
  AddReport(d, *report);
  if (extra) extra(d, *report);
  return d.Hex();
}

std::string ExactAnswer(int relations, uint64_t seed, double omega,
                        ThreadPool* pool) {
  QjoConfig config;
  config.backend = QjoBackend::kExact;
  config.omega = omega;
  return RunPipeline(MakeQuery(relations, QueryGraphType::kChain, seed),
                     config, pool);
}

std::string SaAnswer(int shape, ThreadPool* pool) {
  QjoConfig config;
  config.backend = QjoBackend::kSimulatedAnnealing;
  config.shots = 320;  // 40 reads
  config.seed = 11 + shape;
  return RunPipeline(MakeQuery(3, kShapes[shape], 20 + shape), config, pool);
}

void AddGate(Digest& d, const QjoReport& report) {
  d.Add(report.gate.gamma);
  d.Add(report.gate.beta);
  d.Add(report.gate.circuit_depth);
  d.Add(report.gate.fidelity);
}

std::string QaoaAnswer(int grid, ThreadPool* pool) {
  QjoConfig config;
  config.backend = QjoBackend::kQaoaSimulator;
  config.shots = 256;
  config.qaoa_grid = grid;
  config.seed = 5;
  return RunPipeline(MakeQuery(2, QueryGraphType::kChain, 31), config, pool,
                     AddGate);
}

void AddAnneal(Digest& d, const QjoReport& report) {
  d.Add(report.anneal.physical_qubits);
  d.Add(report.anneal.max_chain_length);
  d.Add(report.anneal.chain_strength);
  d.Add(report.anneal.mean_chain_break_fraction);
}

std::string AnnealerAnswer(ThreadPool* pool) {
  QjoConfig config;
  config.backend = QjoBackend::kQuantumAnnealerSim;
  config.omega = 3.0;
  config.sqa.num_reads = 16;
  config.sqa.annealing_time_us = 10.0;
  config.embedding.tries = 4;
  config.embedding.max_passes = 10;
  config.seed = 9;
  return RunPipeline(MakeQuery(3, QueryGraphType::kStar, 41), config, pool,
                     AddAnneal);
}

/// The chains themselves, for the encoding AnnealerAnswer anneals.
std::string EmbeddingAnswer(ThreadPool* pool) {
  JoEncodingOptions options;
  options.omega = 3.0;
  auto entry =
      BuildJoQuboEncoding(MakeQuery(3, QueryGraphType::kStar, 41), options);
  if (!entry.ok()) return entry.status().ToString();
  const Qubo& qubo = (*entry)->encoding.qubo;
  auto p6 = MakePegasus(6);
  if (!p6.ok()) return p6.status().ToString();
  EmbeddingOptions embedding;
  embedding.tries = 4;
  embedding.max_passes = 10;
  Rng rng(17);
  auto chains = FindMinorEmbedding(qubo.Edges(), qubo.num_variables(), *p6,
                                   embedding, rng, pool);
  if (!chains.ok()) return chains.status().ToString();
  Digest d;
  for (const std::vector<int>& chain : chains->chains) d.Add(chain);
  d.Add(rng.Next());
  return d.Hex();
}

void AddRace(Digest& d, const QjoReport& report) {
  d.Add(report.portfolio.winner);
  d.Add(report.portfolio.race.best_energy);
  for (const StrandOutcome& s : report.portfolio.race.strands) {
    d.Add(s.name);
    d.Add(s.eligible);
    d.Add(s.rounds_completed);
    d.Add(static_cast<uint64_t>(s.sweeps_completed));
    d.Add(s.best_energy);
    d.Add(s.feasible);
  }
}

/// A sweep-budget race with no deadline. At 6 qubits every strand is
/// eligible; at 24 qubits exact and QAOA sit out and the SA, tabu and SQA
/// strands race.
std::string PortfolioAnswer(int relations, int shape, uint64_t seed,
                            double omega, ThreadPool* pool) {
  QjoConfig config;
  config.backend = QjoBackend::kPortfolio;
  config.omega = omega;
  config.portfolio.sweep_budget = 512;
  config.seed = 13;
  return RunPipeline(MakeQuery(relations, kShapes[shape], seed), config, pool,
                     AddRace);
}

std::string DecompAnswer(ThreadPool* pool) {
  const Query query = MakeQuery(12, QueryGraphType::kChain, 61);
  DecompOptions options;
  options.window = 5;
  options.max_rounds = 3;
  RunContext run;
  run.pool = pool;
  Rng rng(19);
  auto report = OptimizeJoinOrderDecomposed(query, options, run, rng);
  if (!report.ok()) return report.status().ToString();
  Digest d;
  d.Add(report->order.order());
  d.Add(report->cost);
  d.Add(report->rounds);
  d.Add(report->windows_solved);
  d.Add(report->improvements);
  d.Add(report->repairs);
  return d.Hex();
}

/// The DP (dp = true) or greedy oracle; neither takes a pool.
std::string OracleAnswer(bool dp, int relations, int shape, uint64_t seed,
                         ThreadPool*) {
  const Query query = MakeQuery(relations, kShapes[shape], seed);
  auto result = dp ? OptimizeDp(query) : OptimizeGreedy(query);
  if (!result.ok()) return result.status().ToString();
  Digest d;
  d.Add(result->order.order());
  d.Add(result->cost);
  return d.Hex();
}

/// One golden entry: a name and a function returning the answer's digest
/// on the given pool (null = serial).
struct Entry {
  std::string name;
  std::function<std::string(ThreadPool*)> run;
};

std::vector<Entry> GoldenEntries() {
  std::vector<Entry> entries;
  // Every 2-relation encoding has 6 qubits; the 3-relation one at omega 3
  // (24 qubits) runs the Gray-code walk at size.
  entries.push_back({"exact/r2/s1", std::bind_front(ExactAnswer, 2, 1, 1.0)});
  entries.push_back({"exact/r2/s2", std::bind_front(ExactAnswer, 2, 2, 1.0)});
  entries.push_back(
      {"exact/r3-chain/omega3", std::bind_front(ExactAnswer, 3, 3, 3.0)});
  for (int s = 0; s < 3; ++s) {
    entries.push_back({std::string("sa/r3-") + kShapeNames[s],
                       std::bind_front(SaAnswer, s)});
  }
  // Every 3-relation encoding has >= 22 qubits, so the gate flow runs on
  // 2-relation queries; grid 4 refines the angles through EvaluateBatch.
  entries.push_back({"qaoa/r2/grid0", std::bind_front(QaoaAnswer, 0)});
  entries.push_back({"qaoa/r2/grid4", std::bind_front(QaoaAnswer, 4)});
  entries.push_back({"annealer/r3-star/p6", AnnealerAnswer});
  entries.push_back({"embedding/r3-star/p6", EmbeddingAnswer});
  entries.push_back(
      {"portfolio/r2", std::bind_front(PortfolioAnswer, 2, 0, 51, 1.0)});
  for (int s = 0; s < 2; ++s) {
    entries.push_back({std::string("portfolio/r3-") + kShapeNames[s],
                       std::bind_front(PortfolioAnswer, 3, s, 52 + s, 3.0)});
  }
  entries.push_back({"decomp/r12-chain", DecompAnswer});
  for (int relations : {5, 9}) {
    for (int s = 0; s < 3; ++s) {
      const std::string suffix =
          "/r" + std::to_string(relations) + "-" + kShapeNames[s];
      const uint64_t seed = 70 + relations + s;
      for (bool dp : {true, false}) {
        const std::string name = (dp ? "dp" : "greedy") + suffix;
        entries.push_back(
            {name, std::bind_front(OracleAnswer, dp, relations, s, seed)});
      }
    }
  }
  return entries;
}

std::map<std::string, std::string> ReadGoldenFile() {
  std::map<std::string, std::string> golden;
  std::ifstream in(QJO_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    fields >> name >> digest;
    golden[name] = digest;
  }
  return golden;
}

void WriteGoldenFile(const std::vector<Entry>& entries,
                     const std::map<std::string, std::string>& digests) {
  std::ofstream out(QJO_GOLDEN_FILE);
  out << "# Golden answer digests (tests/golden_test.cc): <entry> <FNV-1a "
         "digest>.\n"
         "# Re-bless with QJO_GOLDEN_BLESS=1 only for an announced per-seed "
         "change.\n";
  for (const Entry& entry : entries) {
    out << entry.name << ' ' << digests.at(entry.name) << '\n';
  }
}

TEST(GoldenTest, AnswersMatchCheckedInDigests) {
  const std::vector<Entry> entries = GoldenEntries();
  std::map<std::string, std::string> serial;
  for (const Entry& entry : entries) {
    const std::string digest = entry.run(nullptr);
    // A digest is 16 hex digits; anything else is a failed solve's status.
    EXPECT_EQ(digest.size(), 16u) << entry.name << ": " << digest;
    ASSERT_TRUE(serial.emplace(entry.name, digest).second)
        << "duplicate entry " << entry.name;
  }
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (const Entry& entry : entries) {
      EXPECT_EQ(entry.run(&pool), serial.at(entry.name))
          << entry.name << " differs between a null pool and a pool of "
          << threads;
    }
  }

  const char* bless = std::getenv("QJO_GOLDEN_BLESS");
  if (bless != nullptr && std::string(bless) == "1") {
    WriteGoldenFile(entries, serial);
    GTEST_SKIP() << "re-blessed " << QJO_GOLDEN_FILE;
  }

  const std::map<std::string, std::string> golden = ReadGoldenFile();
  ASSERT_FALSE(golden.empty()) << "no digests in " << QJO_GOLDEN_FILE;
  std::vector<std::string> moved;
  for (const Entry& entry : entries) {
    const auto it = golden.find(entry.name);
    if (it == golden.end()) {
      moved.push_back(entry.name + " (not in the golden file)");
    } else if (it->second != serial.at(entry.name)) {
      moved.push_back(entry.name + " (golden " + it->second + ", now " +
                      serial.at(entry.name) + ")");
    }
  }
  for (const auto& [name, digest] : golden) {
    (void)digest;
    if (!serial.contains(name)) moved.push_back(name + " (no longer run)");
  }
  std::string report;
  for (const std::string& m : moved) report += "\n  " + m;
  EXPECT_TRUE(moved.empty()) << moved.size() << " golden entries moved:"
                             << report;
}

}  // namespace
}  // namespace qjo
