#ifndef QJO_SIM_QAOA_SIMULATOR_H_
#define QJO_SIM_QAOA_SIMULATOR_H_

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "circuit/qaoa_builder.h"
#include "qubo/ising.h"
#include "util/random.h"
#include "util/statusor.h"

namespace qjo {

class MetricsRegistry;
class ThreadPool;

/// Specialised QAOA state-vector simulator. Exploits the diagonality of
/// the cost operator: the full cost spectrum E(x) is computed once by a
/// Gray-code sweep over the CSR coupling graph, after which each circuit
/// evaluation is an element-wise phase multiplication plus n RX
/// butterflies. Amplitudes are stored in single precision so 27-qubit
/// problems (the paper's largest gate-based instances) fit comfortably in
/// memory.
///
/// The spectrum is stored as a palette of its distinct float energies
/// plus one level id per basis state. A JO QUBO's energy is a few
/// penalty levels plus the objective, so its 2^n states share a handful
/// of levels (5-12 on the 3-relation paper encodings), and a per-gamma
/// phase table needs one sincos per level instead of one per state. Ids
/// are uint8_t while the palette has at most 256 levels, uint16_t up to
/// 65,536 and uint32_t beyond (one re-encode per widening). The
/// Gray-code walk visits each aligned 2^14 block of states contiguously,
/// and the levels a block adds are numbered in ascending basis order
/// within it, so even a spectrum where almost every state has its own
/// level gathers a block's phases from one ascending palette range.
/// Levels are keyed on the float's bit pattern, so every state keeps
/// exactly the float the walk computed.
///
/// Each layer is fused: the phase multiply and all mixer butterflies with
/// bit index inside a 2^14-amplitude cache block run in one sweep per
/// block (~ceil(n/14) passes per layer instead of n+1), the remaining
/// high qubits follow in a column-tiled second sweep, and the per-gamma
/// phase factors are cached across evaluations. The first layer also
/// creates the state: the uniform amplitude is folded into its phase
/// factors, so each block writes amp0 * exp(-i gamma E) straight into
/// the state instead of loading it first, and no separate pass
/// initialises the 2^n amplitudes. The state lives in a page-backed
/// buffer (StateBuffer), mapped directly rather than through malloc and
/// never value-initialised, so its first write, page faults included,
/// lands on the pool's threads block by block. Amplitudes compare equal
/// under operator== at every parallelism level with the gate-at-a-time
/// oracle RunQaoaReference (sim/qaoa_reference.h, test and bench only).
class QaoaSimulator {
 public:
  /// Builds the simulator and cost spectrum. Fails above 27 qubits.
  static StatusOr<QaoaSimulator> Create(const IsingModel& ising);

  int num_qubits() const { return num_qubits_; }

  /// Attaches an externally-owned pool (nullptr = serial, the default).
  /// Run() uses it for the 2^n amplitude loops (only from 2^18
  /// amplitudes up; below that dispatch costs more than the sweep);
  /// EvaluateBatch() uses it for
  /// parameter-set-level parallelism. Not owned.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Attaches a metrics registry (nullptr = no metrics, the default; not
  /// owned). Publishes qaoa.phase_table_hits/misses and
  /// qaoa.scratch_reuse/scratch_alloc. Under EvaluateBatch these counts
  /// depend on which in-flight evaluation grabs which scratch buffer —
  /// they are scheduling telemetry, excluded from the deterministic-merge
  /// contract (the evaluation *results* stay bit-identical regardless).
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Cost spectrum E(x) including the Ising offset, one float per basis
  /// state, expanded from the level palette on every call.
  std::vector<float> cost_spectrum() const;

  /// Number of distinct float energies in the spectrum.
  size_t num_levels() const { return palette_.size(); }

  /// Runs the QAOA circuit for `parameters`, leaving the final state
  /// loaded; returns <H_C>. The first layer writes every amplitude, so
  /// nothing a previous call left in the buffer reaches the result. The
  /// amplitude buffer and the per-gamma phase tables are retained across
  /// calls, so repeated evaluations map no memory after the first.
  double Run(const QaoaParameters& parameters);

  /// Evaluates <H_C> for every parameter set of `batch`. Parallelises at
  /// the parameter-set level on the attached pool — one scratch
  /// statevector per in-flight evaluation, serial amplitude loops inside
  /// — which is the profitable axis for n <= ~22 where per-sweep
  /// parallelism cannot amortise its dispatch. Results land in
  /// slot-indexed order and depend only on the parameters, so they are
  /// bit-identical at every parallelism level and equal to calling Run()
  /// entry by entry. Scratch buffers persist across calls; the state
  /// loaded by a previous Run() is left untouched.
  std::vector<double> EvaluateBatch(std::span<const QaoaParameters> batch);

  /// Applies one mixer layer (RX(2 beta) on every qubit) to the loaded
  /// state. Exposed for kernel parity tests and the mixer benchmark;
  /// Run() must have been called.
  void ApplyMixerLayer(double beta);

  /// Samples `shots` bitstrings from the loaded state through a global
  /// depolarising channel with survival probability `fidelity`: each shot
  /// is drawn from the ideal distribution with probability `fidelity` and
  /// uniformly otherwise (the deeper the physical circuit, the lower the
  /// fidelity, the more uniform the output — the NISQ behaviour of
  /// Table 2). Run() must have been called.
  std::vector<uint64_t> Sample(int shots, double fidelity, Rng& rng);

  /// Probability of basis state x in the loaded state.
  double Probability(uint64_t basis) const;

  /// Amplitudes of the loaded state (Run() must have been called). The
  /// view aliases the live buffer: the next Run() or ApplyMixerLayer()
  /// overwrites what it shows, so copy it to keep a snapshot.
  std::span<const std::complex<float>> amplitudes() const;

  /// Ground-state energy and one minimising bitstring of the spectrum;
  /// O(1) — the argmin is tracked while the spectrum is built, with ties
  /// resolved towards the smallest basis index.
  double MinCost(uint64_t* argmin = nullptr) const;

 private:
  /// Cached phase factors exp(-i gamma E) for one gamma value, one per
  /// palette level (indexed by level id, not by basis state).
  struct PhaseTable {
    std::vector<std::complex<float>> factors;
    float gamma = 0.0f;
  };

  /// Small round-robin cache of phase tables, one per recent gamma, so a
  /// depth-p evaluation keeps all p of its layer tables live and a
  /// gamma-major grid sweep reuses them across the whole beta row. A
  /// table holds one factor per level, so it is a few bytes for a JO
  /// spectrum and at most 2^n factors for one with all-distinct levels.
  /// `initial` holds the first layer's table scaled by the uniform
  /// amplitude; it is rebuilt by every evaluation.
  struct PhaseTableCache {
    std::vector<PhaseTable> entries;
    size_t next_evict = 0;
    std::vector<std::complex<float>> initial;
  };

  /// Amplitude storage of one state: an anonymous private mapping of
  /// exactly the bytes it needs, advised MADV_HUGEPAGE (ignored where
  /// transparent huge pages are unavailable). Its contents are left as
  /// the kernel or the last evaluation left them; RunCore's first layer
  /// writes every amplitude. Move-only.
  class StateBuffer {
   public:
    StateBuffer() = default;
    StateBuffer(StateBuffer&& other) noexcept;
    StateBuffer& operator=(StateBuffer&& other) noexcept;
    ~StateBuffer();

    /// Makes the buffer hold `size` amplitudes, keeping the mapping when
    /// the size is unchanged. Throws std::bad_alloc if mmap fails.
    void Resize(size_t size);

    std::complex<float>* data() { return data_; }
    const std::complex<float>* data() const { return data_; }
    size_t size() const { return size_; }

   private:
    void Release();

    std::complex<float>* data_ = nullptr;
    size_t size_ = 0;
  };

  /// Per-evaluation scratch: amplitude buffer plus phase-table cache.
  struct EvalScratch {
    StateBuffer amps;
    PhaseTableCache tables;
  };

  QaoaSimulator(const IsingModel& ising);

  void BuildCostSpectrum(const IsingModel& ising);

  /// Shared evaluation core: sizes `state`, applies p fused layers (the
  /// first one writes the state from the uniform superposition), returns
  /// <H_C>. `pool` parallelises the amplitude loops (Run); EvaluateBatch
  /// passes nullptr because its parallelism lives at the batch level.
  double RunCore(const QaoaParameters& parameters, StateBuffer& state,
                 PhaseTableCache& tables, ThreadPool* pool) const;

  /// Returns the cached (building on miss) per-level phase factors for
  /// `gamma`.
  const std::complex<float>* PhaseFactors(float gamma, PhaseTableCache& tables,
                                          ThreadPool* pool) const;

  /// Scales the per-level `factors` by the uniform amplitude `amp0` into
  /// `tables.initial`, the table of the layer that creates the state.
  const std::complex<float>* InitialFactors(const std::complex<float>* factors,
                                            float amp0, PhaseTableCache& tables,
                                            ThreadPool* pool) const;

  int num_qubits_ = 0;
  /// Distinct float energies: blocks in Gray-walk order, the levels each
  /// block adds in ascending basis order.
  std::vector<float> palette_;
  /// Palette index of every basis state, as narrow as the palette allows.
  std::variant<std::vector<uint8_t>, std::vector<uint16_t>,
               std::vector<uint32_t>>
      level_;
  float min_cost_ = 0.0f;
  uint64_t argmin_ = 0;
  StateBuffer amplitudes_;
  PhaseTableCache phase_tables_;
  std::vector<std::unique_ptr<EvalScratch>> batch_scratch_;
  bool state_loaded_ = false;
  ThreadPool* pool_ = nullptr;           // not owned
  MetricsRegistry* metrics_ = nullptr;   // not owned
};

}  // namespace qjo

#endif  // QJO_SIM_QAOA_SIMULATOR_H_
