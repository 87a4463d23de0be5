#include "sim/qaoa_simulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>

#include "obs/obs.h"
#include "qubo/qubo_csr.h"
#include "util/check.h"
#include "util/sampling.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace qjo {
namespace {

/// Fixed block size for the 2^n amplitude loops. Chunk boundaries never
/// depend on the thread count, so results are bit-identical at every
/// parallelism level (see ParallelForBlocks). A 2^14-amplitude block is
/// 128 KiB of complex<float> — it fits in L2, which is what makes fusing
/// the phase multiply with the low-qubit butterflies profitable: the
/// block is loaded once per layer instead of once per gate.
constexpr int kBlockQubits = 14;
constexpr int64_t kBlock = int64_t{1} << kBlockQubits;

/// Column tile (in amplitudes) for the high-qubit mixer sweep: all
/// qubits with bit >= kBlockQubits are applied to one 2^11-column strip
/// before moving to the next, so the strip's rows stay cache-resident
/// across the whole high-qubit pass.
constexpr int64_t kHighTile = int64_t{1} << 11;

/// Per-gamma phase tables kept live: a depth-p evaluation needs p of
/// them for cross-evaluation reuse, hence a small cache rather than a
/// single slot. A table holds one factor per palette level.
constexpr size_t kPhaseTableEntries = 8;

/// States below this amplitude count skip parallel dispatch entirely:
/// a 2^18-amplitude sweep takes tens of microseconds, the same order as
/// waking pool workers, so forking buys nothing and (dispatched from
/// inside an already-parallel region) used to oversubscribe the pool.
constexpr int64_t kMinParallelAmplitudes = int64_t{1} << 18;

/// Phase factors the fused layer expands per phase_rows call: 2^10
/// complex<float> (8 KiB), an L1-resident stack buffer.
constexpr int64_t kGatherChunk = int64_t{1} << 10;

/// Flat open-addressed map from a float's bit pattern to its palette id:
/// linear probing over a power-of-two table kept at most half full,
/// Fibonacci-hashed so the zero low mantissa bits of integer-valued
/// energies still spread. A JO spectrum's handful of levels fits in a
/// few cache lines.
class LevelIndex {
 public:
  /// Returns the palette id of `value`, appending it to `palette` when
  /// its bit pattern is new.
  uint32_t FindOrAdd(float value, std::vector<float>& palette) {
    const uint32_t key = std::bit_cast<uint32_t>(value);
    for (size_t s = Home(key);; s = (s + 1) & mask_) {
      if (slots_[s].id == kEmpty) {
        const uint32_t id = static_cast<uint32_t>(palette.size());
        palette.push_back(value);
        slots_[s] = Slot{key, id};
        if (2 * palette.size() > slots_.size()) Grow();
        return id;
      }
      if (slots_[s].key == key) return slots_[s].id;
    }
  }

  /// Points the entry of `value`, which must exist, at palette id `id`.
  void Renumber(float value, uint32_t id) {
    const uint32_t key = std::bit_cast<uint32_t>(value);
    size_t s = Home(key);
    while (slots_[s].id == kEmpty || slots_[s].key != key) s = (s + 1) & mask_;
    slots_[s].id = id;
  }

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};
  struct Slot {
    uint32_t key = 0;
    uint32_t id = kEmpty;
  };

  size_t Home(uint32_t key) const { return (key * 0x9E3779B1u) >> shift_; }

  void Grow() {
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(2 * old.size(), Slot{});
    mask_ = slots_.size() - 1;
    --shift_;
    for (const Slot& slot : old) {
      if (slot.id == kEmpty) continue;
      size_t s = Home(slot.key);
      while (slots_[s].id != kEmpty) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(64);
  size_t mask_ = 63;
  int shift_ = 32 - 6;
};

/// The Gray-code walk of the cost spectrum, one aligned block at a time:
/// Gray-code steps [j 2^b, (j + 1) 2^b) visit exactly the states of one
/// aligned 2^b block. Each step flips one spin, updates E(x) in double
/// precision from the CSR row of that spin, interns the float of E(x)
/// into the palette and stores its id at x. A block that added levels
/// then renumbers them in ascending basis order, so on a spectrum of
/// mostly distinct levels a block's ids ascend and the phase gather
/// streams through the tables.
class SpectrumWalk {
 public:
  SpectrumWalk(const IsingModel& ising, uint64_t block,
               std::vector<float>& palette)
      : ising_(ising),
        csr_(IsingCsr::FromIsing(ising)),
        block_(block),
        spins_(ising.num_spins(), 1),
        palette_(palette) {
    // Bit b set in x means spin b is -1 (QUBO bit 1); x = 0 is all +1.
    energy_ = ising.offset;
    for (double h : ising.h) energy_ += h;
    for (const auto& [i, j, w] : ising.couplings) {
      (void)i;
      (void)j;
      energy_ += w;
    }
    // State 0 takes level 0, which a zero-filled `level` already holds.
    const float f0 = static_cast<float>(energy_);
    palette_.clear();
    id_ = index_.FindOrAdd(f0, palette_);
    key_ = std::bit_cast<uint32_t>(f0);
    min_cost_ = f0;
  }

  /// Walks on to the end of the current block, storing ids into `level`
  /// (2^n entries, zero-filled). Returns false when a new level does not
  /// fit in Id: that step is taken but its id is not stored — the caller
  /// widens `level`, stores id() at x() and resumes.
  template <typename Id>
  bool Resume(std::vector<Id>& level) {
    // Locals, not members: stores through a uint8_t* may alias anything
    // whose address escaped, which would force a reload per step.
    const int32_t* offsets = csr_.offsets.data();
    const int32_t* columns = csr_.columns.data();
    const double* weights = csr_.weights.data();
    const double* h = ising_.h.data();
    int8_t* spins = spins_.data();
    Id* ids = level.data();
    uint64_t step = step_;
    uint64_t x = x_;
    double energy = energy_;
    uint32_t key = key_;
    uint32_t id = id_;
    float min_cost = min_cost_;
    uint64_t argmin = argmin_;
    bool fits = true;
    for (const uint64_t end = block_end_; step < end; ++step) {
      const int bit = static_cast<int>(__builtin_ctzll(step));
      // Flipping spin `bit`: dE = -2 s_bit (h_bit + sum_j J_bj s_j).
      double field = h[bit];
      for (int32_t e = offsets[bit]; e < offsets[bit + 1]; ++e) {
        field += weights[e] * static_cast<double>(spins[columns[e]]);
      }
      energy -= 2.0 * static_cast<double>(spins[bit]) * field;
      spins[bit] = static_cast<int8_t>(-spins[bit]);
      x ^= uint64_t{1} << bit;
      const float fc = static_cast<float>(energy);
      // Running argmin; the tie-break towards the smallest basis index is
      // load-bearing because the Gray-code walk does not visit x in
      // ascending order, while the O(2^n) scan this replaced did.
      if (fc < min_cost || (fc == min_cost && x < argmin)) {
        min_cost = fc;
        argmin = x;
      }
      // Consecutive states often share a level; skip the lookup then.
      const uint32_t fc_key = std::bit_cast<uint32_t>(fc);
      if (fc_key != key) {
        key = fc_key;
        id = index_.FindOrAdd(fc, palette_);
        if constexpr (sizeof(Id) < sizeof(uint32_t)) {
          if (id > uint32_t{std::numeric_limits<Id>::max()}) {
            ++step;
            fits = false;
            break;
          }
        }
      }
      ids[x] = static_cast<Id>(id);
    }
    step_ = step;
    x_ = x;
    energy_ = energy;
    key_ = key;
    id_ = id;
    min_cost_ = min_cost;
    argmin_ = argmin;
    return fits;
  }

  /// Renumbers the levels the block just walked added, in ascending
  /// basis order, and moves on to the next block. Call after Resume
  /// returned true.
  template <typename Id>
  void FinishBlock(std::vector<Id>& level) {
    const uint32_t lo = block_lo_;
    const uint32_t added = static_cast<uint32_t>(palette_.size()) - lo;
    block_end_ += block_;
    block_lo_ = static_cast<uint32_t>(palette_.size());
    if (added == 0) return;
    constexpr uint32_t kUnset = ~uint32_t{0};
    std::vector<uint32_t> renumbered(added, kUnset);
    uint32_t next = lo;
    const uint64_t base = x_ & ~(block_ - 1);
    for (uint64_t x = base; x < base + block_; ++x) {
      const uint32_t id = level[x];
      if (id < lo) continue;
      uint32_t& to = renumbered[id - lo];
      if (to == kUnset) to = next++;
      level[x] = static_cast<Id>(to);
    }
    const std::vector<float> added_levels(palette_.begin() + lo,
                                          palette_.end());
    for (uint32_t k = 0; k < added; ++k) {
      palette_[renumbered[k]] = added_levels[k];
      index_.Renumber(added_levels[k], renumbered[k]);
    }
    if (id_ >= lo) id_ = renumbered[id_ - lo];
  }

  uint64_t x() const { return x_; }
  uint32_t id() const { return id_; }
  float min_cost() const { return min_cost_; }
  uint64_t argmin() const { return argmin_; }

 private:
  const IsingModel& ising_;
  // Shared flat CSR adjacency for O(degree) energy deltas; its per-row
  // entry order matches the adjacency-list build it replaced, so the
  // spectrum is bit-identical.
  const IsingCsr csr_;
  const uint64_t block_;
  std::vector<int8_t> spins_;
  std::vector<float>& palette_;
  LevelIndex index_;
  uint64_t step_ = 1;            // next Gray-code step k; flips bit ctz(k)
  uint64_t block_end_ = block_;  // first step of the next block
  uint32_t block_lo_ = 0;        // palette size when the block started
  uint64_t x_ = 0;               // basis state after the last step
  double energy_ = 0.0;
  uint32_t key_ = 0;  // bit pattern of the last state's float energy
  uint32_t id_ = 0;   // and its palette id
  float min_cost_ = 0.0f;
  uint64_t argmin_ = 0;
};

/// Gates per-sweep parallelism on the state size: below
/// kMinParallelAmplitudes the dispatch overhead exceeds the loop body and
/// the sweeps run serially.
ThreadPool* GatedPool(ThreadPool* pool, uint64_t amplitudes) {
  return amplitudes >= static_cast<uint64_t>(kMinParallelAmplitudes) ? pool
                                                                     : nullptr;
}

// ---------------------------------------------------------------------------
// Butterfly and phase kernels live in util/simd (runtime-dispatched
// scalar/SSE2/AVX2/AVX-512 tiers). All tiers compute exactly
//   lo' = c*lo + (0,-sn)*hi     hi' = (0,-sn)*lo + c*hi
// with the same per-component rounding as the std::complex expression of
// the gate-at-a-time oracle (sim/qaoa_reference.cc), so fused and oracle
// amplitudes compare equal with operator== (only signs of zeros can
// differ) on every tier — see the determinism contract in util/simd.h. Dispatch granularity is one
// block or row run per indirect call, so the function-pointer hop is
// amortised over thousands of amplitudes.
// ---------------------------------------------------------------------------

/// Mixer butterflies for all qubits with bit >= block_qubits. Amplitude
/// index = row * bsz + column; high qubits only pair up row indices at a
/// fixed column, so the sweep walks 2^11-column strips and applies every
/// high qubit (ascending, matching the reference order) while the strip
/// is hot. Strips are independent, which is also the parallel axis.
void MixerHighSweep(float* amps, int n, int block_qubits, float c, float sn,
                    ThreadPool* pool) {
  const int h = n - block_qubits;
  if (h <= 0) return;
  const int64_t bsz = int64_t{1} << block_qubits;
  const int64_t tile = std::min(bsz, kHighTile);
  const int64_t half_rows = int64_t{1} << (h - 1);
  const SimdOps& simd = Simd();
  ParallelForBlocks(
      pool, 0, bsz, tile, [&](int64_t col_begin, int64_t col_end) {
        for (int64_t l0 = col_begin; l0 < col_end; l0 += tile) {
          const int64_t cols = std::min(tile, col_end - l0);
          for (int q = 0; q < h; ++q) {
            const int64_t rbit = int64_t{1} << q;
            const int64_t rlow = rbit - 1;
            for (int64_t rk = 0; rk < half_rows; ++rk) {
              const int64_t row = ((rk & ~rlow) << 1) | (rk & rlow);
              float* lo = amps + 2 * (row * bsz + l0);
              float* hi = amps + 2 * ((row | rbit) * bsz + l0);
              simd.butterfly_rows(lo, hi, 2 * cols, c, sn);
            }
          }
        }
      });
}

/// One fused QAOA layer: per 2^14 block, the cost phase multiply and the
/// low-qubit mixer run back to back while the block is cache-resident
/// (one memory pass instead of 1 + block_qubits); the remaining high
/// qubits follow in the column-tiled sweep. `factors` is the per-gamma
/// phase table over the palette; each block expands its states' factors
/// kGatherChunk at a time into a stack buffer for phase_rows.
template <typename Id>
void FusedLayer(std::complex<float>* amps_c, const Id* level,
                const std::complex<float>* factors, float beta, int n,
                ThreadPool* pool) {
  const uint64_t size = uint64_t{1} << n;
  const int block_qubits = std::min(n, kBlockQubits);
  const int64_t bsz = int64_t{1} << block_qubits;
  const float c = std::cos(beta);
  const float sn = std::sin(beta);
  float* amps = reinterpret_cast<float*>(amps_c);
  const float* table = reinterpret_cast<const float*>(factors);
  const SimdOps& simd = Simd();

  ParallelForBlocks(
      pool, 0, static_cast<int64_t>(size), bsz,
      [&](int64_t begin, int64_t end) {
        alignas(64) float gathered[2 * kGatherChunk];
        for (int64_t b0 = begin; b0 < end; b0 += bsz) {
          for (int64_t g0 = b0; g0 < b0 + bsz; g0 += kGatherChunk) {
            const int64_t count = std::min(kGatherChunk, b0 + bsz - g0);
            // Local copies: the captured pointers would be reloaded on
            // every element, since the buffer stores might alias them.
            const Id* ids = level + g0;
            const float* factor = table;
            for (int64_t i = 0; i < count; ++i) {
              std::memcpy(gathered + 2 * i, factor + 2 * size_t{ids[i]},
                          2 * sizeof(float));
            }
            simd.phase_rows(amps + 2 * g0, gathered, 2 * count);
          }
          simd.mixer_low_block(amps + 2 * b0, bsz, block_qubits, c, sn);
        }
      });
  MixerHighSweep(amps, n, block_qubits, c, sn, pool);
}

}  // namespace

QaoaSimulator::QaoaSimulator(const IsingModel& ising)
    : num_qubits_(ising.num_spins()) {
  BuildCostSpectrum(ising);
}

StatusOr<QaoaSimulator> QaoaSimulator::Create(const IsingModel& ising) {
  if (ising.num_spins() < 1 || ising.num_spins() > 27) {
    return Status::InvalidArgument("QAOA simulator supports 1..27 qubits");
  }
  return QaoaSimulator(ising);
}

void QaoaSimulator::BuildCostSpectrum(const IsingModel& ising) {
  const uint64_t size = uint64_t{1} << num_qubits_;
  const uint64_t block = uint64_t{1} << std::min(num_qubits_, kBlockQubits);
  SpectrumWalk walk(ising, block, palette_);
  level_ = std::vector<uint8_t>(size);
  for (uint64_t walked = 0; walked < size; walked += block) {
    while (!std::visit([&](auto& level) { return walk.Resume(level); },
                       level_)) {
      // The 257th (65,537th) level: re-encode the ids one width up, store
      // the state that overflowed, and resume the walk.
      if (const auto* ids = std::get_if<std::vector<uint8_t>>(&level_)) {
        level_ = std::vector<uint16_t>(ids->begin(), ids->end());
      } else {
        const auto& narrow = std::get<std::vector<uint16_t>>(level_);
        level_ = std::vector<uint32_t>(narrow.begin(), narrow.end());
      }
      std::visit([&](auto& level) { level[walk.x()] = walk.id(); }, level_);
    }
    std::visit([&](auto& level) { walk.FinishBlock(level); }, level_);
  }
  min_cost_ = walk.min_cost();
  argmin_ = walk.argmin();
}

std::vector<float> QaoaSimulator::cost_spectrum() const {
  return std::visit(
      [&](const auto& level) {
        std::vector<float> spectrum(level.size());
        for (size_t i = 0; i < level.size(); ++i) {
          spectrum[i] = palette_[level[i]];
        }
        return spectrum;
      },
      level_);
}

const std::complex<float>* QaoaSimulator::PhaseFactors(
    float gamma, PhaseTableCache& tables, ThreadPool* pool) const {
  for (const PhaseTable& entry : tables.entries) {
    if (entry.gamma == gamma) {
      if (metrics_ != nullptr) metrics_->Count("qaoa.phase_table_hits");
      return entry.factors.data();
    }
  }
  if (metrics_ != nullptr) metrics_->Count("qaoa.phase_table_misses");
  PhaseTable* slot = nullptr;
  if (tables.entries.size() < kPhaseTableEntries) {
    slot = &tables.entries.emplace_back();
  } else {
    slot = &tables.entries[tables.next_evict];
    tables.next_evict = (tables.next_evict + 1) % kPhaseTableEntries;
  }
  const size_t levels = palette_.size();
  slot->factors.resize(levels);
  slot->gamma = gamma;
  std::complex<float>* factors = slot->factors.data();
  const float* palette = palette_.data();
  ParallelForBlocks(pool, 0, static_cast<int64_t>(levels), kBlock,
                    [&](int64_t begin, int64_t end) {
                      for (int64_t l = begin; l < end; ++l) {
                        const float angle = -gamma * palette[l];
                        factors[l] = std::complex<float>(std::cos(angle),
                                                         std::sin(angle));
                      }
                    });
  return factors;
}

double QaoaSimulator::RunCore(const QaoaParameters& parameters,
                              std::vector<std::complex<float>>& amps_vec,
                              PhaseTableCache& tables,
                              ThreadPool* pool) const {
  QJO_CHECK_GT(parameters.p(), 0);
  QJO_CHECK_EQ(parameters.gammas.size(), parameters.betas.size());
  const uint64_t size = uint64_t{1} << num_qubits_;
  const float amp0 = 1.0f / std::sqrt(static_cast<float>(size));
  amps_vec.assign(size, std::complex<float>(amp0, 0.0f));

  std::complex<float>* amps = amps_vec.data();
  const float* palette = palette_.data();
  return std::visit(
      [&](const auto& level_ids) {
        const auto* level = level_ids.data();
        for (int rep = 0; rep < parameters.p(); ++rep) {
          const float gamma = static_cast<float>(parameters.gammas[rep]);
          const float beta = static_cast<float>(parameters.betas[rep]);
          FusedLayer(amps, level, PhaseFactors(gamma, tables, pool), beta,
                     num_qubits_, pool);
        }
        return ParallelBlockedSum(
            pool, static_cast<int64_t>(size), kBlock,
            [&](int64_t begin, int64_t end) {
              double partial = 0.0;
              for (int64_t i = begin; i < end; ++i) {
                partial += static_cast<double>(std::norm(amps[i])) *
                           static_cast<double>(palette[level[i]]);
              }
              return partial;
            });
      },
      level_);
}

double QaoaSimulator::Run(const QaoaParameters& parameters) {
  const uint64_t size = uint64_t{1} << num_qubits_;
  const double energy =
      RunCore(parameters, amplitudes_, phase_tables_, GatedPool(pool_, size));
  state_loaded_ = true;
  return energy;
}

std::vector<double> QaoaSimulator::EvaluateBatch(
    std::span<const QaoaParameters> batch) {
  std::vector<double> energies(batch.size());
  if (batch.empty()) return energies;

  // Scratch statevectors are recycled through a freelist: concurrent
  // evaluations never share one, and the pool never holds more than the
  // peak in-flight count. Which scratch an evaluation gets is
  // scheduling-dependent, but RunCore's result is a pure function of the
  // parameters (the amplitude buffer is fully re-assigned and a reused
  // phase table holds exactly the factors a rebuild would produce), so
  // slot i of the result is bit-identical at every parallelism level.
  std::mutex mutex;
  std::vector<EvalScratch*> free_list;
  free_list.reserve(batch_scratch_.size());
  for (const auto& scratch : batch_scratch_) free_list.push_back(scratch.get());

  ParallelFor(pool_, 0, static_cast<int64_t>(batch.size()), [&](int64_t i) {
    EvalScratch* scratch = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!free_list.empty()) {
        scratch = free_list.back();
        free_list.pop_back();
      }
    }
    if (scratch == nullptr) {
      if (metrics_ != nullptr) metrics_->Count("qaoa.scratch_alloc");
      auto owned = std::make_unique<EvalScratch>();
      scratch = owned.get();
      std::lock_guard<std::mutex> lock(mutex);
      batch_scratch_.push_back(std::move(owned));
    } else if (metrics_ != nullptr) {
      metrics_->Count("qaoa.scratch_reuse");
    }
    // Serial amplitude loops inside: the parallelism budget is spent at
    // the batch level, and pool workers would refuse nested dispatch
    // anyway (see ThreadPool::ParallelFor).
    energies[static_cast<size_t>(i)] =
        RunCore(batch[static_cast<size_t>(i)], scratch->amps, scratch->tables,
                /*pool=*/nullptr);
    {
      std::lock_guard<std::mutex> lock(mutex);
      free_list.push_back(scratch);
    }
  });
  return energies;
}

double QaoaSimulator::Expectation(double gamma, double beta) {
  QaoaParameters params;
  params.gammas = {gamma};
  params.betas = {beta};
  return Run(params);
}

void QaoaSimulator::ApplyMixerLayer(double beta) {
  QJO_CHECK(state_loaded_) << "call Run() before ApplyMixerLayer()";
  const uint64_t size = uint64_t{1} << num_qubits_;
  ThreadPool* pool = GatedPool(pool_, size);
  const float b = static_cast<float>(beta);
  const int block_qubits = std::min(num_qubits_, kBlockQubits);
  const int64_t bsz = int64_t{1} << block_qubits;
  const float c = std::cos(b);
  const float sn = std::sin(b);
  float* amps = reinterpret_cast<float*>(amplitudes_.data());
  const SimdOps& simd = Simd();
  ParallelForBlocks(pool, 0, static_cast<int64_t>(size), bsz,
                    [&](int64_t begin, int64_t end) {
                      for (int64_t b0 = begin; b0 < end; b0 += bsz) {
                        simd.mixer_low_block(amps + 2 * b0, bsz, block_qubits,
                                             c, sn);
                      }
                    });
  MixerHighSweep(amps, num_qubits_, block_qubits, c, sn, pool);
}

std::vector<uint64_t> QaoaSimulator::Sample(int shots, double fidelity,
                                            Rng& rng) {
  QJO_CHECK(state_loaded_) << "call Run() before Sample()";
  QJO_CHECK_GT(shots, 0);
  QJO_CHECK_GE(fidelity, 0.0);
  QJO_CHECK_LE(fidelity, 1.0);
  const uint64_t size = uint64_t{1} << num_qubits_;

  std::vector<uint64_t> samples;
  samples.reserve(shots);
  int ideal_shots = 0;
  for (int s = 0; s < shots; ++s) {
    if (rng.Bernoulli(fidelity)) {
      ++ideal_shots;
    } else {
      samples.push_back(rng.Next() & (size - 1));  // depolarised shot
    }
  }
  if (ideal_shots > 0) {
    SampleByInverseCdf(
        size,
        [this](uint64_t i) {
          return static_cast<double>(std::norm(amplitudes_[i]));
        },
        ideal_shots, rng, samples);
  }
  rng.Shuffle(samples);
  return samples;
}

double QaoaSimulator::Probability(uint64_t basis) const {
  QJO_CHECK(state_loaded_);
  QJO_CHECK_LT(basis, amplitudes_.size());
  return static_cast<double>(std::norm(amplitudes_[basis]));
}

const std::vector<std::complex<float>>& QaoaSimulator::amplitudes() const {
  QJO_CHECK(state_loaded_) << "call Run() before amplitudes()";
  return amplitudes_;
}

double QaoaSimulator::MinCost(uint64_t* argmin) const {
  if (argmin != nullptr) *argmin = argmin_;
  return static_cast<double>(min_cost_);
}

}  // namespace qjo
