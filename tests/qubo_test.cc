#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "jo/query.h"
#include "lp/bilp.h"
#include "lp/jo_encoder.h"
#include "qubo/bilp_to_qubo.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "qubo/qubo_csr.h"
#include "qubo/solvers.h"
#include "qubo/solvers_reference.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

Qubo RandomQubo(int n, double edge_probability, Rng& rng) {
  Qubo q(n);
  for (int i = 0; i < n; ++i) {
    q.AddLinear(i, rng.UniformDouble(-2.0, 2.0));
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(edge_probability)) {
        q.AddQuadratic(i, j, rng.UniformDouble(-2.0, 2.0));
      }
    }
  }
  q.AddOffset(rng.UniformDouble(-1.0, 1.0));
  return q;
}

std::vector<int> BitsOf(uint64_t x, int n) {
  std::vector<int> bits(n);
  for (int i = 0; i < n; ++i) bits[i] = static_cast<int>((x >> i) & 1);
  return bits;
}

TEST(QuboTest, EnergyEvaluation) {
  Qubo q(3);
  q.AddLinear(0, 1.0);
  q.AddLinear(2, -2.0);
  q.AddQuadratic(0, 1, 3.0);
  q.AddOffset(0.5);
  EXPECT_DOUBLE_EQ(q.Energy({0, 0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(q.Energy({1, 0, 0}), 1.5);
  EXPECT_DOUBLE_EQ(q.Energy({1, 1, 0}), 4.5);
  EXPECT_DOUBLE_EQ(q.Energy({1, 1, 1}), 2.5);
}

TEST(QuboTest, QuadraticAccumulatesSymmetrically) {
  Qubo q(2);
  q.AddQuadratic(0, 1, 1.5);
  q.AddQuadratic(1, 0, 0.5);
  EXPECT_DOUBLE_EQ(q.quadratic(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(q.quadratic(1, 0), 2.0);
  EXPECT_EQ(q.num_quadratic_terms(), 1);
  q.AddQuadratic(0, 1, -2.0);
  EXPECT_EQ(q.num_quadratic_terms(), 0);  // cancelled out
}

TEST(QuboTest, EdgesAndAdjacency) {
  Qubo q(4);
  q.AddQuadratic(2, 0, 1.0);
  q.AddQuadratic(1, 3, 1.0);
  const auto edges = q.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], std::make_pair(0, 2));
  EXPECT_EQ(edges[1], std::make_pair(1, 3));
  const auto adjacency = q.AdjacencyLists();
  EXPECT_EQ(adjacency[0], std::vector<int>{2});
  EXPECT_EQ(adjacency[3], std::vector<int>{1});
}

TEST(IsingTest, QuboIsingEnergiesAgreeOnAllStates) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 6;
    const Qubo qubo = RandomQubo(n, 0.5, rng);
    const IsingModel ising = QuboToIsing(qubo);
    for (uint64_t x = 0; x < (uint64_t{1} << n); ++x) {
      const std::vector<int> bits = BitsOf(x, n);
      const std::vector<int> spins = BitsToSpins(bits);
      EXPECT_NEAR(qubo.Energy(bits), ising.Energy(spins), 1e-9);
    }
  }
}

TEST(IsingTest, SpinBitRoundTrip) {
  const std::vector<int> bits = {0, 1, 1, 0};
  EXPECT_EQ(SpinsToBits(BitsToSpins(bits)), bits);
}

TEST(BruteForceTest, FindsExactMinimum) {
  Rng rng(7);
  const Qubo qubo = RandomQubo(10, 0.4, rng);
  auto solution = SolveQuboBruteForce(qubo);
  ASSERT_TRUE(solution.ok());
  // Exhaustive reference.
  double best = 1e300;
  for (uint64_t x = 0; x < 1024; ++x) {
    best = std::min(best, qubo.Energy(BitsOf(x, 10)));
  }
  EXPECT_NEAR(solution->energy, best, 1e-9);
  EXPECT_NEAR(qubo.Energy(solution->assignment), solution->energy, 1e-9);
}

TEST(BruteForceTest, RejectsOversizedProblems) {
  Qubo q(30);
  q.AddLinear(0, 1.0);
  EXPECT_FALSE(SolveQuboBruteForce(q, 28).ok());
}

TEST(BruteForceTest, RejectsSixtyFourVariablesEvenWithRaisedLimit) {
  // The Gray-code walk enumerates 2^n states through a uint64_t;
  // `uint64_t{1} << 64` is UB, so 64 variables must be rejected no matter
  // how high the caller raises max_variables.
  Qubo q(64);
  q.AddLinear(0, 1.0);
  const auto at_limit = SolveQuboBruteForce(q, 64);
  ASSERT_FALSE(at_limit.ok());
  EXPECT_EQ(at_limit.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(SolveQuboBruteForce(q, 100).ok());
}

TEST(SimulatedAnnealingTest, SolvesSmallProblems) {
  Rng rng(11);
  for (int trial = 0; trial < 3; ++trial) {
    const Qubo qubo = RandomQubo(12, 0.4, rng);
    auto exact = SolveQuboBruteForce(qubo);
    ASSERT_TRUE(exact.ok());
    SaOptions options;
    options.num_reads = 20;
    options.sweeps_per_read = 500;
    const auto reads = SolveQuboSimulatedAnnealing(qubo, options, rng);
    ASSERT_FALSE(reads.empty());
    EXPECT_NEAR(BestSolution(reads).energy, exact->energy, 1e-6);
    // Reads are sorted best-first.
    for (size_t i = 1; i < reads.size(); ++i) {
      EXPECT_LE(reads[i - 1].energy, reads[i].energy);
    }
  }
}

/// Builds the paper's 3-relation instance and converts it end to end.
struct PipelineFixture {
  Query query;
  JoMilpModel milp;
  BilpModel bilp;
  QuboEncoding encoding;

  static PipelineFixture Make(int num_predicates, double omega = 1.0) {
    PipelineFixture f;
    f.query.AddRelation("R0", 10);
    f.query.AddRelation("R1", 10);
    f.query.AddRelation("R2", 10);
    const std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {0, 2}};
    for (int p = 0; p < num_predicates; ++p) {
      EXPECT_TRUE(
          f.query.AddPredicate(edges[p].first, edges[p].second, 0.1).ok());
    }
    JoMilpOptions options;
    options.thresholds = {10.0};
    options.omega = omega;
    auto milp = EncodeJoAsMilp(f.query, options);
    EXPECT_TRUE(milp.ok());
    f.milp = std::move(milp).value();
    auto bilp = LowerToBilp(f.milp.model(), omega);
    EXPECT_TRUE(bilp.ok());
    f.bilp = std::move(bilp).value();
    QuboConversionOptions qopts;
    qopts.omega = omega;
    auto encoding = ConvertBilpToQubo(f.bilp, qopts);
    EXPECT_TRUE(encoding.ok());
    f.encoding = std::move(encoding).value();
    return f;
  }
};

TEST(BilpToQuboTest, PenaltyWeightRule) {
  PipelineFixture f = PipelineFixture::Make(1);
  // Objective: theta_0 = 10 on the single cto variable; A = C/w^2 + eps.
  EXPECT_DOUBLE_EQ(f.encoding.penalty_weight, 10.0 + 1.0);
  EXPECT_EQ(f.encoding.num_problem_variables, f.milp.model().num_variables());
}

TEST(BilpToQuboTest, FeasibleAssignmentsSitAtPenaltyFloor) {
  PipelineFixture f = PipelineFixture::Make(0);
  const int n = f.encoding.qubo.num_variables();
  ASSERT_LE(n, 20);
  // For every assignment: energy = A * violation + B * objective.
  Rng rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint64_t x = rng.Next() & ((uint64_t{1} << n) - 1);
    const std::vector<int> bits = BitsOf(x, n);
    const double expected = f.encoding.penalty_weight *
                                f.bilp.ConstraintViolation(bits) +
                            f.bilp.EvaluateObjective(bits);
    EXPECT_NEAR(f.encoding.qubo.Energy(bits), expected, 1e-6);
  }
}

TEST(BilpToQuboTest, MinimumIsFeasibleAndOptimal) {
  for (int predicates = 0; predicates <= 1; ++predicates) {
    PipelineFixture f = PipelineFixture::Make(predicates);
    auto ground = SolveQuboBruteForce(f.encoding.qubo);
    ASSERT_TRUE(ground.ok());
    EXPECT_TRUE(f.bilp.IsFeasible(ground->assignment))
        << "predicates=" << predicates;
    // Energy at the minimum equals the BILP objective (H_A term is 0).
    EXPECT_NEAR(ground->energy, f.bilp.EvaluateObjective(ground->assignment),
                1e-6);
  }
}

TEST(BilpToQuboTest, PenaltyWeightOverrideAblation) {
  // With a tiny penalty weight, cheating becomes energetically attractive:
  // the ground state may violate constraints. This is the ablation that
  // motivates the paper's A = C/w^2 + eps rule.
  PipelineFixture f = PipelineFixture::Make(0);
  QuboConversionOptions weak;
  weak.penalty_weight_override = 0.01;
  auto encoding = ConvertBilpToQubo(f.bilp, weak);
  ASSERT_TRUE(encoding.ok());
  auto ground = SolveQuboBruteForce(encoding->qubo);
  ASSERT_TRUE(ground.ok());
  // The paper-rule ground state stays feasible (checked above); the weak
  // one is strictly lower in "objective - savings" terms and infeasible
  // here because the all-zeros state dodges every leaf constraint.
  EXPECT_FALSE(f.bilp.IsFeasible(ground->assignment));
}

TEST(BilpToQuboTest, CoefficientRoundingKeepsExactFeasibility) {
  // With omega = 0.1 and integer-log inputs, rounding must not break the
  // achievability of zero penalty.
  PipelineFixture f = PipelineFixture::Make(1, 0.1);
  auto ground = SolveQuboBruteForce(f.encoding.qubo);
  ASSERT_TRUE(ground.ok());
  EXPECT_NEAR(f.encoding.qubo.Energy(ground->assignment),
              f.bilp.EvaluateObjective(ground->assignment), 1e-6);
}

TEST(TabuSearchTest, SolvesSmallProblems) {
  Rng rng(19);
  for (int trial = 0; trial < 3; ++trial) {
    const Qubo qubo = RandomQubo(14, 0.4, rng);
    auto exact = SolveQuboBruteForce(qubo);
    ASSERT_TRUE(exact.ok());
    TabuOptions options;
    options.num_restarts = 8;
    options.iterations_per_restart = 1500;
    const auto restarts = SolveQuboTabuSearch(qubo, options, rng);
    ASSERT_EQ(restarts.size(), 8u);
    EXPECT_NEAR(restarts.front().energy, exact->energy, 1e-6);
    // Reported energies match re-evaluation.
    for (const auto& r : restarts) {
      EXPECT_NEAR(qubo.Energy(r.assignment), r.energy, 1e-6);
    }
  }
}

TEST(TabuSearchTest, EscapesLocalMinima) {
  // A frustrated two-cluster instance with a deceptive local minimum:
  // plain steepest descent from all-zeros stalls; tabu keeps moving.
  Qubo qubo(6);
  for (int i = 0; i < 6; ++i) qubo.AddLinear(i, 1.0);
  qubo.AddQuadratic(0, 1, -3.0);
  qubo.AddQuadratic(2, 3, -3.0);
  qubo.AddQuadratic(4, 5, -3.0);
  auto exact = SolveQuboBruteForce(qubo);
  ASSERT_TRUE(exact.ok());
  Rng rng(23);
  TabuOptions options;
  options.num_restarts = 4;
  const auto restarts = SolveQuboTabuSearch(qubo, options, rng);
  EXPECT_NEAR(restarts.front().energy, exact->energy, 1e-9);
}

TEST(SaScheduleTest, FinalSweepRunsAtFinalTemperature) {
  // Regression: the cooling exponent used to be 1/sweeps instead of
  // 1/(sweeps - 1), so the last sweep ran one cooling step short of
  // t_final. Pin the endpoints of the resolved geometric schedule.
  Qubo q(4);
  q.AddLinear(0, 2.0);
  SaOptions options;
  options.sweeps_per_read = 50;
  options.initial_temperature = 8.0;
  options.final_temperature = 0.25;
  const SaSchedule schedule = ResolveSaSchedule(q, options);
  EXPECT_DOUBLE_EQ(schedule.t_initial, 8.0);
  EXPECT_DOUBLE_EQ(schedule.t_final, 0.25);
  double temperature = schedule.t_initial;
  for (int sweep = 1; sweep < options.sweeps_per_read; ++sweep) {
    temperature *= schedule.cooling;
  }
  EXPECT_NEAR(temperature, schedule.t_final, 1e-12);
}

TEST(SaScheduleTest, SingleSweepDegeneratesToInitialTemperature) {
  Qubo q(4);
  q.AddLinear(0, 2.0);
  SaOptions options;
  options.sweeps_per_read = 1;
  options.initial_temperature = 8.0;
  options.final_temperature = 0.25;
  const SaSchedule schedule = ResolveSaSchedule(q, options);
  EXPECT_DOUBLE_EQ(schedule.cooling, 1.0);
}

TEST(SaScheduleTest, AutoTemperaturesTrackCoefficients) {
  Qubo q(4);
  q.AddLinear(0, -6.0);
  q.AddQuadratic(1, 2, 3.0);
  const SaSchedule schedule = ResolveSaSchedule(q, SaOptions{});
  EXPECT_DOUBLE_EQ(schedule.t_initial, 6.0);
  EXPECT_DOUBLE_EQ(schedule.t_final, 6.0 * 1e-3);
  EXPECT_LT(schedule.cooling, 1.0);
  EXPECT_GT(schedule.cooling, 0.0);
}

TEST(SimulatedAnnealingTest, DeterministicAcrossParallelism) {
  Rng make_rng(29);
  const Qubo qubo = RandomQubo(24, 0.3, make_rng);
  SaOptions options;
  options.num_reads = 16;
  options.sweeps_per_read = 120;
  std::vector<std::vector<QuboSolution>> runs;
  for (int parallelism : {1, 2, 8}) {
    ThreadPool pool(parallelism);
    options.control.pool = &pool;
    Rng rng(31);
    runs.push_back(SolveQuboSimulatedAnnealing(qubo, options, rng));
    // The solver consumes exactly one draw from the caller's RNG no
    // matter the thread count, so follow-up draws stay aligned too.
    Rng reference(31);
    reference.Next();  // the draw the solver consumed
    EXPECT_EQ(rng.Next(), reference.Next());
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].energy, runs[0][i].energy)
          << "run " << run << " read " << i;
      EXPECT_EQ(runs[run][i].assignment, runs[0][i].assignment);
    }
  }
}

TEST(TabuSearchTest, DeterministicAcrossParallelism) {
  Rng make_rng(37);
  const Qubo qubo = RandomQubo(20, 0.35, make_rng);
  TabuOptions options;
  options.num_restarts = 12;
  options.iterations_per_restart = 300;
  std::vector<std::vector<QuboSolution>> runs;
  for (int parallelism : {1, 2, 8}) {
    ThreadPool pool(parallelism);
    options.control.pool = &pool;
    Rng rng(41);
    runs.push_back(SolveQuboTabuSearch(qubo, options, rng));
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].energy, runs[0][i].energy)
          << "run " << run << " restart " << i;
      EXPECT_EQ(runs[run][i].assignment, runs[0][i].assignment);
    }
  }
}

TEST(QuboTest, MaxAbsCoefficient) {
  Qubo q(3);
  q.AddLinear(0, -5.0);
  q.AddQuadratic(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(q.MaxAbsCoefficient(), 5.0);
}

TEST(QuboDeathTest, QuadraticRejectsDiagonalAndOutOfRange) {
  Qubo q(3);
  q.AddQuadratic(0, 1, 1.0);
  EXPECT_DEATH(q.quadratic(1, 1), "CHECK failed");
  EXPECT_DEATH(q.quadratic(-1, 0), "CHECK failed");
  EXPECT_DEATH(q.quadratic(0, 3), "CHECK failed");
  EXPECT_DEATH(q.AddQuadratic(2, 2, 1.0), "CHECK failed");
  EXPECT_DEATH(q.AddQuadratic(-1, 1, 1.0), "CHECK failed");
  EXPECT_DEATH(q.AddQuadratic(1, 3, 1.0), "CHECK failed");
}

/// Reference energy straight off the term list — deliberately independent
/// of both the CSR layout and Qubo::Energy.
double TermListEnergy(const Qubo& q, const std::vector<int>& x) {
  double energy = q.offset();
  for (int i = 0; i < q.num_variables(); ++i) {
    if (x[i]) energy += q.linear(i);
  }
  for (const auto& [i, j, w] : q.QuadraticTerms()) {
    if (x[i] && x[j]) energy += w;
  }
  return energy;
}

TEST(QuboCsrTest, EnergyAndFlipDeltaMatchTermListReference) {
  Rng rng(77);
  for (int trial = 0; trial < 16; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(24));
    const Qubo qubo = RandomQubo(n, 0.4, rng);
    const QuboCsr& csr = qubo.Csr();
    ASSERT_EQ(csr.num_variables(), n);
    ASSERT_EQ(csr.num_entries(), 2 * qubo.num_quadratic_terms());
    for (int s = 0; s < 8; ++s) {
      std::vector<int> x(n);
      for (int i = 0; i < n; ++i) x[i] = rng.Bernoulli(0.5) ? 1 : 0;
      EXPECT_NEAR(csr.Energy(x), TermListEnergy(qubo, x), 1e-9);
      const std::vector<double> fields = csr.LocalFields(x);
      for (int i = 0; i < n; ++i) {
        std::vector<int> flipped = x;
        flipped[i] ^= 1;
        const double expected = TermListEnergy(qubo, flipped) -
                                TermListEnergy(qubo, x);
        EXPECT_NEAR(csr.FlipDelta(x, i), expected, 1e-9)
            << "trial " << trial << " flip " << i;
        // O(1) proposal off the persistent fields must agree with the
        // O(degree) scan.
        EXPECT_NEAR(x[i] ? -fields[i] : fields[i], expected, 1e-9);
      }
    }
  }
}

TEST(QuboCsrTest, ApplyFlipKeepsFieldsAndEnergyInSync) {
  Rng rng(83);
  const int n = 24;
  const Qubo qubo = RandomQubo(n, 0.5, rng);
  const QuboCsr& csr = qubo.Csr();
  std::vector<int> x(n);
  for (int i = 0; i < n; ++i) x[i] = rng.Bernoulli(0.5) ? 1 : 0;
  std::vector<double> fields = csr.LocalFields(x);
  double energy = csr.Energy(x);
  for (int step = 0; step < 300; ++step) {
    const int i = static_cast<int>(rng.UniformInt(n));
    energy += x[i] ? -fields[i] : fields[i];
    csr.ApplyFlip(i, x, fields);
  }
  EXPECT_NEAR(energy, csr.Energy(x), 1e-9);
  const std::vector<double> fresh = csr.LocalFields(x);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(fields[i], fresh[i], 1e-9) << "field " << i;
  }
}

/// Random QUBO whose coefficients are multiples of 1/64 with small
/// magnitude: every sum the kernels form is exactly representable, so
/// floating-point addition is associative on these problems and the
/// incremental kernel must reproduce the reference kernel's trajectory
/// bit for bit, not merely approximately.
Qubo DyadicRandomQubo(int n, double edge_probability, Rng& rng) {
  Qubo q(n);
  const auto dyadic = [&rng] {
    return (static_cast<double>(rng.UniformInt(257)) - 128.0) / 64.0;
  };
  for (int i = 0; i < n; ++i) {
    q.AddLinear(i, dyadic());
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(edge_probability)) q.AddQuadratic(i, j, dyadic());
    }
  }
  return q;
}

// The parity tests below run production (null pool, then pools of 1, 4
// and 8 threads) against the serial reference loops of
// qubo/solvers_reference.h, which run once.

TEST(SimulatedAnnealingTest, KernelsBitIdenticalOnDyadicProblems) {
  // The scanning reference sums each delta over the neighbourhood, the
  // production kernel reads it from persistent fields: on dyadic weights
  // both sums are exact, so the trajectories agree bit for bit.
  Rng make_rng(91);
  const Qubo qubo = DyadicRandomQubo(40, 0.5, make_rng);
  SaOptions options;
  options.num_reads = 8;
  options.sweeps_per_read = 100;
  Rng rng_ref(19);
  const auto reference = SolveQuboSimulatedAnnealingReference(
      qubo, options, rng_ref, ReferenceDelta::kScan);
  for (int parallelism : {0, 1, 4, 8}) {
    std::optional<ThreadPool> pool;
    if (parallelism > 0) pool.emplace(parallelism);
    options.control.pool = pool ? &*pool : nullptr;
    Rng rng(19);
    const auto production = SolveQuboSimulatedAnnealing(qubo, options, rng);
    ASSERT_EQ(production.size(), reference.size());
    for (size_t i = 0; i < production.size(); ++i) {
      EXPECT_EQ(production[i].energy, reference[i].energy)
          << "parallelism " << parallelism << " read " << i;
      EXPECT_EQ(production[i].assignment, reference[i].assignment);
    }
  }
}

TEST(SimulatedAnnealingTest, BatchedKernelsBitIdenticalToScalarReads) {
  // The batched SoA kernel performs the *same* per-replica FP operations
  // as the scalar local-field reads (exact +-1 * w products, same draw
  // sequence), so bit-identity holds on continuous weights — no dyadic
  // restriction — for every replica count (full groups, partial tail
  // lanes, a single lane) at every parallelism.
  Rng make_rng(91);
  for (int n : {17, 40}) {
    const Qubo qubo = RandomQubo(n, 0.5, make_rng);
    SaOptions options;
    options.sweeps_per_read = 80;
    for (int num_reads : {1, 4, 17}) {
      options.num_reads = num_reads;
      options.control.pool = nullptr;
      Rng rng_ref(19);
      const auto scalar = SolveQuboSimulatedAnnealingReference(
          qubo, options, rng_ref, ReferenceDelta::kLocalFields);
      for (int parallelism : {0, 1, 4, 8}) {
        std::optional<ThreadPool> pool;
        if (parallelism > 0) pool.emplace(parallelism);
        options.control.pool = pool ? &*pool : nullptr;
        Rng rng_bat(19);
        const auto batched =
            SolveQuboSimulatedAnnealing(qubo, options, rng_bat);
        ASSERT_EQ(scalar.size(), batched.size());
        for (size_t i = 0; i < scalar.size(); ++i) {
          EXPECT_EQ(scalar[i].energy, batched[i].energy)
              << "n " << n << " reads " << num_reads << " parallelism "
              << parallelism << " read " << i;
          EXPECT_EQ(scalar[i].assignment, batched[i].assignment);
        }
      }
    }
  }
}

TEST(TabuSearchTest, KernelsBitIdenticalOnDyadicProblems) {
  Rng make_rng(97);
  const Qubo qubo = DyadicRandomQubo(32, 0.5, make_rng);
  TabuOptions options;
  options.num_restarts = 6;
  options.iterations_per_restart = 250;
  Rng rng_ref(23);
  const auto reference = SolveQuboTabuSearchReference(qubo, options, rng_ref);
  for (int parallelism : {0, 1, 4, 8}) {
    std::optional<ThreadPool> pool;
    if (parallelism > 0) pool.emplace(parallelism);
    options.control.pool = pool ? &*pool : nullptr;
    Rng rng_inc(23);
    const auto incremental = SolveQuboTabuSearch(qubo, options, rng_inc);
    ASSERT_EQ(incremental.size(), reference.size());
    for (size_t i = 0; i < incremental.size(); ++i) {
      EXPECT_EQ(incremental[i].energy, reference[i].energy)
          << "parallelism " << parallelism << " restart " << i;
      EXPECT_EQ(incremental[i].assignment, reference[i].assignment);
    }
  }
}

TEST(SimulatedAnnealingTest, KernelsConvergeEquallyOnContinuousProblems) {
  // On continuous weights the production kernel and the scanning
  // reference may drift apart by rounding, but both must still find the
  // same optimum of a small problem.
  Rng make_rng(101);
  const Qubo qubo = RandomQubo(14, 0.5, make_rng);
  const QuboSolution exact = *SolveQuboBruteForce(qubo);
  SaOptions options;
  options.num_reads = 24;
  options.sweeps_per_read = 400;
  Rng rng(29);
  const auto reads = SolveQuboSimulatedAnnealing(qubo, options, rng);
  EXPECT_NEAR(reads.front().energy, exact.energy, 1e-6);
  Rng rng_ref(29);
  const auto reference = SolveQuboSimulatedAnnealingReference(
      qubo, options, rng_ref, ReferenceDelta::kScan);
  EXPECT_NEAR(reference.front().energy, exact.energy, 1e-6);
}


// --- Cooperative cancellation (the portfolio stop token). ---

TEST(SimulatedAnnealingTest, StopTokenCancelsLongRun) {
  Rng make_rng(131);
  const Qubo qubo = RandomQubo(64, 0.5, make_rng);
  SaOptions options;
  options.num_reads = 4;
  options.sweeps_per_read = 50'000'000;  // hours of work if uncancelled
  std::atomic<bool> stop{false};
  options.control.stop = &stop;
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true, std::memory_order_relaxed);
  });
  Rng rng(31);
  const auto reads = SolveQuboSimulatedAnnealing(qubo, options, rng);
  canceller.join();
  // The run returned (that is the point); truncated reads are still valid
  // assignments with consistent energies.
  ASSERT_EQ(reads.size(), 4u);
  for (const auto& read : reads) {
    ASSERT_EQ(read.assignment.size(), 64u);
    // The incremental kernel tracks energy by flip deltas; allow the
    // rounding drift of thousands of sweeps.
    EXPECT_NEAR(read.energy, qubo.Energy(read.assignment),
                1e-9 * (1.0 + std::abs(read.energy)) * 1e3);
  }
}

TEST(SimulatedAnnealingTest, PreSetStopTokenReturnsImmediately) {
  Rng make_rng(137);
  const Qubo qubo = RandomQubo(32, 0.5, make_rng);
  SaOptions options;
  options.num_reads = 2;
  options.sweeps_per_read = 50'000'000;
  std::atomic<bool> stop{true};
  options.control.stop = &stop;
  Rng rng(37);
  const auto reads = SolveQuboSimulatedAnnealing(qubo, options, rng);
  ASSERT_EQ(reads.size(), 2u);
  for (const auto& read : reads) {
    EXPECT_DOUBLE_EQ(read.energy, qubo.Energy(read.assignment));
  }
}

TEST(SimulatedAnnealingTest, UnsetStopTokenMatchesNoToken) {
  Rng make_rng(139);
  const Qubo qubo = RandomQubo(24, 0.5, make_rng);
  SaOptions options;
  options.num_reads = 6;
  options.sweeps_per_read = 200;
  Rng rng_plain(41);
  const auto plain = SolveQuboSimulatedAnnealing(qubo, options, rng_plain);
  std::atomic<bool> stop{false};
  options.control.stop = &stop;
  Rng rng_token(41);
  const auto with_token = SolveQuboSimulatedAnnealing(qubo, options, rng_token);
  ASSERT_EQ(plain.size(), with_token.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].energy, with_token[i].energy);
    EXPECT_EQ(plain[i].assignment, with_token[i].assignment);
  }
}

TEST(TabuSearchTest, StopTokenCancelsLongRun) {
  Rng make_rng(149);
  const Qubo qubo = RandomQubo(64, 0.5, make_rng);
  TabuOptions options;
  options.num_restarts = 4;
  options.iterations_per_restart = 50'000'000;
  std::atomic<bool> stop{false};
  options.control.stop = &stop;
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true, std::memory_order_relaxed);
  });
  Rng rng(43);
  const auto restarts = SolveQuboTabuSearch(qubo, options, rng);
  canceller.join();
  ASSERT_EQ(restarts.size(), 4u);
  for (const auto& restart : restarts) {
    ASSERT_EQ(restart.assignment.size(), 64u);
    EXPECT_NEAR(restart.energy, qubo.Energy(restart.assignment),
                1e-9 * (1.0 + std::abs(restart.energy)) * 1e3);
  }
}

TEST(TabuSearchTest, UnsetStopTokenMatchesNoToken) {
  Rng make_rng(151);
  const Qubo qubo = RandomQubo(24, 0.5, make_rng);
  TabuOptions options;
  options.num_restarts = 4;
  options.iterations_per_restart = 150;
  Rng rng_plain(47);
  const auto plain = SolveQuboTabuSearch(qubo, options, rng_plain);
  std::atomic<bool> stop{false};
  options.control.stop = &stop;
  Rng rng_token(47);
  const auto with_token = SolveQuboTabuSearch(qubo, options, rng_token);
  ASSERT_EQ(plain.size(), with_token.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].energy, with_token[i].energy);
    EXPECT_EQ(plain[i].assignment, with_token[i].assignment);
  }
}

}  // namespace
}  // namespace qjo
