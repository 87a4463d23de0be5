#include "sim/sqa_reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "qubo/qubo_csr.h"

namespace qjo {

StatusOr<std::vector<SqaSample>> RunSqaReference(const IsingModel& ising,
                                                 const SqaOptions& options,
                                                 Rng& rng,
                                                 ReferenceDelta delta_mode) {
  const int n = ising.num_spins();
  if (n == 0) return Status::InvalidArgument("empty Ising model");
  QJO_RETURN_IF_ERROR(ValidateSqaOptions(options));

  const int num_sweeps = std::max(
      8, static_cast<int>(options.annealing_time_us * options.sweeps_per_us));
  const int slices = options.trotter_slices;
  const double scale = std::max(ising.MaxAbsCoefficient(), 1e-9);
  const double temperature = options.relative_temperature * scale;
  const double gamma0 = options.relative_initial_field * scale;
  const IsingCsr csr = IsingCsr::FromIsing(ising);
  const bool local_fields = delta_mode == ReferenceDelta::kLocalFields;

  const Rng base(rng.Next());
  std::vector<SqaSample> samples(options.num_reads);
  for (int read = 0; read < options.num_reads; ++read) {
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

    // kLocalFields: persistent classical local fields per Trotter slice,
    // fields[p * n + i] = h_i + sum_j J_ij s_pj, updated on accepted flips
    // only; a proposal is then O(1). The replica term needs no cache — it
    // reads two spins directly.
    std::vector<double> fields;
    if (local_fields) {
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

    for (int sweep = 0; sweep < num_sweeps; ++sweep) {
      const double s_frac =
          static_cast<double>(sweep) / static_cast<double>(num_sweeps - 1);
      const double gamma = gamma0 * (1.0 - s_frac);
      // Replica coupling J_perp = -(P T / 2) ln tanh(Gamma / (P T)) > 0.
      const double arg = std::max(gamma / (slices * temperature), 1e-12);
      const double j_perp = std::min(
          -(slices * temperature / 2.0) * std::log(std::tanh(arg)),
          50.0 * scale);

      for (int p = 0; p < slices; ++p) {
        int8_t* slice = &spins[static_cast<size_t>(p) * n];
        const int8_t* up = &spins[static_cast<size_t>((p + 1) % slices) * n];
        const int8_t* down =
            &spins[static_cast<size_t>((p + slices - 1) % slices) * n];
        double* slice_fields =
            local_fields ? &fields[static_cast<size_t>(p) * n] : nullptr;
        for (int i = 0; i < n; ++i) {
          // Classical field (scaled by 1/P) + replica field.
          double field;
          if (local_fields) {
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
            if (local_fields) {
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
  }
  return samples;
}

}  // namespace qjo
