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

/// Replicas per SoA group (see the SA counterpart in qubo/solvers.cc —
/// same chunking discipline, so group membership depends only on the
/// read index and results are parallelism-invariant).
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

/// One SoA group of the SQA kernel: `lanes` reads anneal in lock step,
/// each with its own ICE-perturbed h/J planes, spin planes and per-slice
/// field planes keyed (p * n + i) * lanes + r. Lane r replays scalar read
/// first_read+r draw for draw (Gaussians for the ICE noise, Bernoullis
/// for the spin init, one uniform per uphill proposal), and every
/// arithmetic expression mirrors the scalar local-field read's operand
/// order, so samples are bit-identical to RunSqaReference with
/// ReferenceDelta::kLocalFields (sim/sqa_reference.h).
void RunSqaBatchedGroup(const IsingModel& ising, const IsingCsr& csr,
                        const SqaOptions& options, const RunContext& run,
                        const SqaScheduleParams& params, const Rng& base,
                        int64_t first_read, int lanes,
                        std::vector<SqaSample>& samples) {
  const int n = ising.num_spins();
  const int slices = params.slices;
  const double temperature = params.temperature;
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

  // Per-slice local-field planes, accumulated in the scalar read's
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
    if (run.stop.stop_requested()) break;
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

  if (run.metrics != nullptr) {
    run.metrics->Count("sqa.reads", static_cast<uint64_t>(lanes));
    run.metrics->Count("sqa.sweeps", static_cast<uint64_t>(lanes) *
                                         static_cast<uint64_t>(sweeps_run));
    run.metrics->Count("sqa.proposals", static_cast<uint64_t>(lanes) *
                                            static_cast<uint64_t>(sweeps_run) *
                                            static_cast<uint64_t>(slices) *
                                            static_cast<uint64_t>(n));
    run.metrics->Count("sqa.slice_flips", slice_flips);
  }

  // Per lane: the slice with the lowest *true* classical energy, scanned
  // in the scalar read's slice order (strict < keeps the first).
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

Status ValidateSqaOptions(const SqaOptions& options) {
  if (options.num_reads <= 0 || options.trotter_slices < 2) {
    return Status::InvalidArgument(
        "SQA needs a positive read count and at least two Trotter slices");
  }
  const double values[] = {options.annealing_time_us, options.sweeps_per_us,
                           options.relative_temperature,
                           options.relative_initial_field, options.ice_sigma};
  for (double value : values) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("SQA schedule values must be finite");
    }
  }
  if (options.annealing_time_us <= 0.0 || options.sweeps_per_us <= 0.0) {
    return Status::InvalidArgument(
        "SQA annealing time and sweep rate must be positive");
  }
  if (options.annealing_time_us * options.sweeps_per_us >
      static_cast<double>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument("SQA sweep count does not fit in an int");
  }
  // A zero temperature makes the last sweep's replica coupling 0/0 (NaN);
  // a negative one accepts every uphill move.
  if (options.relative_temperature <= 0.0) {
    return Status::InvalidArgument("SQA relative_temperature must be > 0");
  }
  if (options.relative_initial_field < 0.0 || options.ice_sigma < 0.0) {
    return Status::InvalidArgument(
        "SQA relative_initial_field and ice_sigma must be >= 0");
  }
  return Status::Ok();
}

StatusOr<std::vector<SqaSample>> RunSqa(const IsingModel& ising,
                                        const SqaOptions& options,
                                        const RunContext& run, Rng& rng) {
  const int n = ising.num_spins();
  if (n == 0) return Status::InvalidArgument("empty Ising model");
  QJO_RETURN_IF_ERROR(ValidateSqaOptions(options));

  SqaScheduleParams params;
  params.num_sweeps = std::max(
      8, static_cast<int>(options.annealing_time_us * options.sweeps_per_us));
  params.slices = options.trotter_slices;
  params.scale = std::max(ising.MaxAbsCoefficient(), 1e-9);
  params.temperature = options.relative_temperature * params.scale;
  params.gamma0 = options.relative_initial_field * params.scale;
  // Shared flat adjacency; entries carry the coupling index so each read
  // can look up its own ICE-perturbed weights through the one structure.
  const IsingCsr csr = IsingCsr::FromIsing(ising);

  // One draw off the shared generator, then one forked stream per read:
  // the sample set is bit-identical for every parallelism level and
  // thread interleaving (reads land in pre-sized slots, and SoA group
  // boundaries depend only on the read index).
  StageSpan solve_span(run.trace, "sqa.solve");
  const Rng base(rng.Next());
  std::vector<SqaSample> samples(options.num_reads);
  const int64_t groups =
      (options.num_reads + kReplicaBatch - 1) / kReplicaBatch;
  const auto run_group = [&](int64_t group) {
    StageSpan group_span(run.trace, "sqa.read_batch");
    const int64_t first_read = group * kReplicaBatch;
    const int lanes = static_cast<int>(
        std::min<int64_t>(kReplicaBatch, options.num_reads - first_read));
    RunSqaBatchedGroup(ising, csr, options, run, params, base, first_read,
                       lanes, samples);
  };
  ParallelFor(run.pool, 0, groups, run_group);
  return samples;
}

}  // namespace qjo
