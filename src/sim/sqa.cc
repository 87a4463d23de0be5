#include "sim/sqa.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/obs.h"
#include "qubo/metropolis.h"
#include "qubo/qubo_csr.h"
#include "util/check.h"
#include "util/simd.h"

namespace qjo {
namespace {

/// Replicas per SoA group of the kBatched kernel (see the SA counterpart
/// in qubo/solvers.cc — same chunking discipline, so group membership
/// depends only on the read index and results are parallelism-invariant).
constexpr int kReplicaBatch = 16;

/// Below/at this many accepted lanes the neighbour update walks the
/// accepted lanes' strided plane entries directly.
constexpr int kScalarUpdateLanes = 2;

/// Fixed per-group schedule parameters, resolved once by RunSqa.
struct SqaScheduleParams {
  int num_sweeps = 0;
  int slices = 0;
  double scale = 0.0;
  double temperature = 0.0;
  double gamma0 = 0.0;
};

/// One SoA group of the kBatched SQA kernel: `lanes` reads anneal in
/// lock step, each with its own ICE-perturbed h/J planes, spin planes
/// and per-slice field planes keyed (p * n + i) * lanes + r. Lane r
/// replays scalar read first_read+r draw for draw (Gaussians for the ICE
/// noise, Bernoullis for the spin init, one uniform per uphill
/// proposal), and every arithmetic expression mirrors the incremental
/// kernel's operand order, so samples are bit-identical to kIncremental.
void RunSqaBatchedGroup(const IsingModel& ising, const IsingCsr& csr,
                        const SqaOptions& options,
                        const SqaScheduleParams& params, const Rng& base,
                        int64_t first_read, int lanes,
                        std::vector<SqaSample>& samples) {
  const int n = ising.num_spins();
  const int slices = params.slices;
  const double temperature = params.temperature;
  const SolverControl& control = options.control;
  const SimdOps& simd = Simd();
  const int64_t L = lanes;
  const size_t num_edges = ising.couplings.size();

  std::vector<Rng> rngs;
  rngs.reserve(static_cast<size_t>(lanes));
  for (int r = 0; r < lanes; ++r) {
    rngs.push_back(base.Fork(static_cast<uint64_t>(first_read + r)));
  }

  // Per-lane ICE-perturbed coefficients and spins, drawn in the scalar
  // read's exact order: n field Gaussians, then one Gaussian per
  // coupling, then slices*n spin Bernoullis.
  const double sigma = options.ice_sigma * params.scale;
  std::vector<double> h_plane(static_cast<size_t>(n) * L);
  std::vector<double> cw_plane(num_edges * L);
  std::vector<int8_t> spins(static_cast<size_t>(slices) * n * L);
  for (int r = 0; r < lanes; ++r) {
    Rng& lane_rng = rngs[r];
    for (int i = 0; i < n; ++i) {
      h_plane[static_cast<size_t>(i) * L + r] =
          ising.h[i] + (sigma > 0.0 ? sigma * lane_rng.Gaussian() : 0.0);
    }
    for (size_t e = 0; e < num_edges; ++e) {
      cw_plane[e * L + r] =
          std::get<2>(ising.couplings[e]) +
          (sigma > 0.0 ? sigma * lane_rng.Gaussian() : 0.0);
    }
    for (size_t idx = 0; idx < static_cast<size_t>(slices) * n; ++idx) {
      spins[idx * L + r] = lane_rng.Bernoulli(0.5) ? 1 : -1;
    }
  }

  // Per-slice local-field planes, accumulated in the scalar kernel's
  // k order per (p, i).
  std::vector<double> fields(static_cast<size_t>(slices) * n * L);
  for (int r = 0; r < lanes; ++r) {
    for (int p = 0; p < slices; ++p) {
      const size_t slice_base = static_cast<size_t>(p) * n;
      for (int i = 0; i < n; ++i) {
        double field = h_plane[static_cast<size_t>(i) * L + r];
        for (int32_t k = csr.offsets[i]; k < csr.offsets[i + 1]; ++k) {
          field += cw_plane[static_cast<size_t>(csr.edge_ids[k]) * L + r] *
                   static_cast<double>(
                       spins[(slice_base + csr.columns[k]) * L + r]);
        }
        fields[(slice_base + i) * L + r] = field;
      }
    }
  }

  std::vector<double> dir(static_cast<size_t>(lanes));
  std::vector<int> accepted_lane(static_cast<size_t>(lanes));
  MetropolisBands bands;
  bands.Prepare(temperature);  // fixed temperature across SQA sweeps
  int sweeps_run = 0;
  uint64_t slice_flips = 0;
  for (int sweep = 0; sweep < params.num_sweeps; ++sweep) {
    if (control.stop != nullptr &&
        control.stop->load(std::memory_order_relaxed)) {
      break;
    }
    ++sweeps_run;
    const double s_frac = static_cast<double>(sweep) /
                          static_cast<double>(params.num_sweeps - 1);
    const double gamma = params.gamma0 * (1.0 - s_frac);
    const double arg = std::max(gamma / (slices * temperature), 1e-12);
    const double j_perp =
        std::min(-(slices * temperature / 2.0) * std::log(std::tanh(arg)),
                 50.0 * params.scale);

    for (int p = 0; p < slices; ++p) {
      int8_t* slice = &spins[static_cast<size_t>(p) * n * L];
      const int8_t* up =
          &spins[static_cast<size_t>((p + 1) % slices) * n * L];
      const int8_t* down =
          &spins[static_cast<size_t>((p + slices - 1) % slices) * n * L];
      double* slice_fields = &fields[static_cast<size_t>(p) * n * L];
      for (int i = 0; i < n; ++i) {
        int8_t* srow = slice + static_cast<size_t>(i) * L;
        const int8_t* uprow = up + static_cast<size_t>(i) * L;
        const int8_t* downrow = down + static_cast<size_t>(i) * L;
        double* frow = slice_fields + static_cast<size_t>(i) * L;
        int num_accepted = 0;
        for (int r = 0; r < lanes; ++r) {
          double delta =
              -2.0 * static_cast<double>(srow[r]) * frow[r] / slices;
          delta += 2.0 * static_cast<double>(srow[r]) * j_perp *
                   (static_cast<double>(uprow[r]) +
                    static_cast<double>(downrow[r]));
          const bool accept =
              delta <= 0.0 || bands.UnderExp(rngs[r].UniformDouble(), -delta);
          if (accept) {
            srow[r] = static_cast<int8_t>(-srow[r]);
            ++slice_flips;
            // += 2 J new_s per neighbour; +-2.0 * J is exact, so the
            // vector update matches the scalar += two_s * J bit for bit.
            dir[r] = 2.0 * static_cast<double>(srow[r]);
            accepted_lane[num_accepted++] = r;
          } else {
            dir[r] = 0.0;
          }
        }
        if (num_accepted == 0) continue;
        const int32_t row_begin = csr.offsets[i];
        const int count = csr.offsets[i + 1] - row_begin;
        if (count == 0) continue;
        if (num_accepted <= kScalarUpdateLanes) {
          for (int a = 0; a < num_accepted; ++a) {
            const int r = accepted_lane[a];
            const double two_s = dir[r];
            for (int32_t k = row_begin; k < row_begin + count; ++k) {
              slice_fields[static_cast<size_t>(csr.columns[k]) * L + r] +=
                  two_s * cw_plane[static_cast<size_t>(csr.edge_ids[k]) * L + r];
            }
          }
        } else {
          simd.sqa_row_update(slice_fields, csr.columns.data() + row_begin,
                              csr.edge_ids.data() + row_begin, cw_plane.data(),
                              count, L, dir.data());
        }
      }
    }
  }

  if (control.metrics != nullptr) {
    control.metrics->Count("sqa.reads", static_cast<uint64_t>(lanes));
    control.metrics->Count("sqa.sweeps", static_cast<uint64_t>(lanes) *
                                             static_cast<uint64_t>(sweeps_run));
    control.metrics->Count("sqa.proposals",
                           static_cast<uint64_t>(lanes) *
                               static_cast<uint64_t>(sweeps_run) *
                               static_cast<uint64_t>(slices) *
                               static_cast<uint64_t>(n));
    control.metrics->Count("sqa.slice_flips", slice_flips);
  }

  // Per lane: the slice with the lowest *true* classical energy, scanned
  // in the scalar kernel's slice order (strict < keeps the first).
  for (int r = 0; r < lanes; ++r) {
    SqaSample best;
    best.energy = std::numeric_limits<double>::infinity();
    std::vector<int> candidate(n);
    for (int p = 0; p < slices; ++p) {
      for (int i = 0; i < n; ++i) {
        candidate[i] =
            spins[(static_cast<size_t>(p) * n + i) * L + r];
      }
      const double energy = ising.Energy(candidate);
      if (energy < best.energy) {
        best.energy = energy;
        best.spins = candidate;
      }
    }
    samples[static_cast<size_t>(first_read) + r] = std::move(best);
  }
}

}  // namespace

StatusOr<std::vector<SqaSample>> RunSqa(const IsingModel& ising,
                                        const SqaOptions& options, Rng& rng) {
  const int n = ising.num_spins();
  if (n == 0) return Status::InvalidArgument("empty Ising model");
  if (options.num_reads <= 0 || options.annealing_time_us <= 0.0 ||
      options.sweeps_per_us <= 0.0 || options.trotter_slices < 2) {
    return Status::InvalidArgument("bad SQA schedule parameters");
  }

  const int num_sweeps = std::max(
      8, static_cast<int>(options.annealing_time_us * options.sweeps_per_us));
  const int slices = options.trotter_slices;
  const double scale = std::max(ising.MaxAbsCoefficient(), 1e-9);
  const double temperature = options.relative_temperature * scale;
  const double gamma0 = options.relative_initial_field * scale;
  // Shared flat adjacency; entries carry the coupling index so each read
  // can look up its own ICE-perturbed weights through the one structure.
  const IsingCsr csr = IsingCsr::FromIsing(ising);
  const bool incremental = options.kernel == SolverKernel::kIncremental;

  // One draw off the shared generator, then one forked stream per read:
  // the sample set is bit-identical for every parallelism level and
  // thread interleaving (reads land in pre-sized slots).
  const SolverControl& control = options.control;
  StageSpan solve_span(control.trace, "sqa.solve");
  const Rng base(rng.Next());
  std::vector<SqaSample> samples(options.num_reads);

  if (options.kernel == SolverKernel::kBatched) {
    SqaScheduleParams params;
    params.num_sweeps = num_sweeps;
    params.slices = slices;
    params.scale = scale;
    params.temperature = temperature;
    params.gamma0 = gamma0;
    const int64_t groups =
        (options.num_reads + kReplicaBatch - 1) / kReplicaBatch;
    const auto run_group = [&](int64_t group) {
      StageSpan group_span(control.trace, "sqa.read_batch");
      const int64_t first_read = group * kReplicaBatch;
      const int lanes = static_cast<int>(std::min<int64_t>(
          kReplicaBatch, options.num_reads - first_read));
      RunSqaBatchedGroup(ising, csr, options, params, base, first_read, lanes,
                         samples);
    };
    ParallelFor(control.pool, 0, groups, run_group);
    return samples;
  }

  const auto run_read = [&](int64_t read) {
    StageSpan read_span(control.trace, "sqa.read");
    Rng read_rng = base.Fork(static_cast<uint64_t>(read));

    // Per-read perturbed coefficients (ICE noise), drawn from the read's
    // own stream so noise realisations stay attached to their read.
    std::vector<double> h(ising.h);
    std::vector<double> coupling_weights(ising.couplings.size());
    const double sigma = options.ice_sigma * scale;
    for (int i = 0; i < n; ++i) {
      h[i] = ising.h[i] + (sigma > 0.0 ? sigma * read_rng.Gaussian() : 0.0);
    }
    for (size_t e = 0; e < ising.couplings.size(); ++e) {
      coupling_weights[e] =
          std::get<2>(ising.couplings[e]) +
          (sigma > 0.0 ? sigma * read_rng.Gaussian() : 0.0);
    }

    // spins[p * n + i] in {-1, +1}.
    std::vector<int8_t> spins(static_cast<size_t>(slices) * n);
    for (auto& s : spins) s = read_rng.Bernoulli(0.5) ? 1 : -1;

    // Incremental kernel: persistent classical local fields per Trotter
    // slice, fields[p * n + i] = h_i + sum_j J_ij s_pj, updated on
    // accepted flips only; a proposal is then O(1). The replica term
    // needs no cache — it reads two spins directly.
    std::vector<double> fields;
    if (incremental) {
      fields.assign(static_cast<size_t>(slices) * n, 0.0);
      for (int p = 0; p < slices; ++p) {
        const int8_t* slice = &spins[static_cast<size_t>(p) * n];
        double* slice_fields = &fields[static_cast<size_t>(p) * n];
        for (int i = 0; i < n; ++i) {
          double field = h[i];
          for (int32_t k = csr.offsets[i]; k < csr.offsets[i + 1]; ++k) {
            field += coupling_weights[csr.edge_ids[k]] *
                     static_cast<double>(slice[csr.columns[k]]);
          }
          slice_fields[i] = field;
        }
      }
    }

    int sweeps_run = 0;
    uint64_t slice_flips = 0;
    for (int sweep = 0; sweep < num_sweeps; ++sweep) {
      if (control.stop != nullptr &&
          control.stop->load(std::memory_order_relaxed)) {
        break;
      }
      ++sweeps_run;
      const double s_frac =
          static_cast<double>(sweep) / static_cast<double>(num_sweeps - 1);
      const double gamma = gamma0 * (1.0 - s_frac);
      // Replica coupling J_perp = -(P T / 2) ln tanh(Gamma / (P T)) > 0.
      const double arg =
          std::max(gamma / (slices * temperature), 1e-12);
      const double j_perp = std::min(
          -(slices * temperature / 2.0) * std::log(std::tanh(arg)),
          50.0 * scale);

      for (int p = 0; p < slices; ++p) {
        int8_t* slice = &spins[static_cast<size_t>(p) * n];
        const int8_t* up = &spins[static_cast<size_t>((p + 1) % slices) * n];
        const int8_t* down =
            &spins[static_cast<size_t>((p + slices - 1) % slices) * n];
        double* slice_fields =
            incremental ? &fields[static_cast<size_t>(p) * n] : nullptr;
        for (int i = 0; i < n; ++i) {
          // Classical field (scaled by 1/P) + replica field.
          double field;
          if (incremental) {
            field = slice_fields[i];
          } else {
            field = h[i];
            for (int32_t k = csr.offsets[i]; k < csr.offsets[i + 1]; ++k) {
              field += coupling_weights[csr.edge_ids[k]] *
                       static_cast<double>(slice[csr.columns[k]]);
            }
          }
          double delta =
              -2.0 * static_cast<double>(slice[i]) * field / slices;
          delta += 2.0 * static_cast<double>(slice[i]) * j_perp *
                   (static_cast<double>(up[i]) + static_cast<double>(down[i]));
          if (delta <= 0.0 ||
              read_rng.UniformDouble() < std::exp(-delta / temperature)) {
            slice[i] = static_cast<int8_t>(-slice[i]);
            ++slice_flips;
            if (incremental) {
              // Neighbour fields lose J * old_s and gain J * new_s:
              // += 2 J new_s.
              const double two_s = 2.0 * static_cast<double>(slice[i]);
              for (int32_t k = csr.offsets[i]; k < csr.offsets[i + 1]; ++k) {
                slice_fields[csr.columns[k]] +=
                    two_s * coupling_weights[csr.edge_ids[k]];
              }
            }
          }
        }
      }
    }

    if (control.metrics != nullptr) {
      control.metrics->Count("sqa.reads");
      control.metrics->Count("sqa.sweeps", static_cast<uint64_t>(sweeps_run));
      control.metrics->Count(
          "sqa.proposals", static_cast<uint64_t>(sweeps_run) *
                               static_cast<uint64_t>(slices) *
                               static_cast<uint64_t>(n));
      control.metrics->Count("sqa.slice_flips", slice_flips);
    }

    // Output: the slice with the lowest *true* classical energy.
    SqaSample best;
    best.energy = std::numeric_limits<double>::infinity();
    std::vector<int> candidate(n);
    for (int p = 0; p < slices; ++p) {
      for (int i = 0; i < n; ++i) {
        candidate[i] = spins[static_cast<size_t>(p) * n + i];
      }
      const double energy = ising.Energy(candidate);
      if (energy < best.energy) {
        best.energy = energy;
        best.spins = candidate;
      }
    }
    samples[read] = std::move(best);
  };

  ParallelFor(control.pool, 0, options.num_reads, run_read);
  return samples;
}

}  // namespace qjo
