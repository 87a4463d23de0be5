#include "sim/qaoa_reference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace qjo {
namespace {

/// The simulator's reduction block: <H_C> partials are summed per aligned
/// 2^14-amplitude block, then combined in block order.
constexpr uint64_t kSumBlock = uint64_t{1} << 14;

/// RX(2 beta) on every qubit over the compressed index space (k with a
/// zero spliced in at the qubit's bit position).
void MixerSweeps(std::complex<float>* amps, uint64_t size, float beta) {
  const float c = std::cos(beta);
  const std::complex<float> s(0.0f, -std::sin(beta));
  for (uint64_t bit = 1; bit < size; bit <<= 1) {
    const uint64_t low_mask = bit - 1;
    for (uint64_t k = 0; k < size / 2; ++k) {
      const uint64_t base = ((k & ~low_mask) << 1) | (k & low_mask);
      const uint64_t partner = base | bit;
      const std::complex<float> a0 = amps[base];
      const std::complex<float> a1 = amps[partner];
      amps[base] = c * a0 + s * a1;
      amps[partner] = s * a0 + c * a1;
    }
  }
}

}  // namespace

double RunQaoaReference(std::span<const float> spectrum,
                        const QaoaParameters& parameters,
                        std::vector<std::complex<float>>& amplitudes) {
  QJO_CHECK_GT(parameters.p(), 0);
  QJO_CHECK_EQ(parameters.gammas.size(), parameters.betas.size());
  const uint64_t size = spectrum.size();
  QJO_CHECK(std::has_single_bit(size)) << "spectrum size must be 2^n";
  const float amp0 = 1.0f / std::sqrt(static_cast<float>(size));
  amplitudes.assign(size, std::complex<float>(amp0, 0.0f));
  std::complex<float>* amps = amplitudes.data();
  for (int rep = 0; rep < parameters.p(); ++rep) {
    const float gamma = static_cast<float>(parameters.gammas[rep]);
    // Cost phase: exp(-i gamma E(x)) (the offset is a global phase).
    for (uint64_t i = 0; i < size; ++i) {
      const float angle = -gamma * spectrum[i];
      amps[i] *= std::complex<float>(std::cos(angle), std::sin(angle));
    }
    MixerSweeps(amps, size, static_cast<float>(parameters.betas[rep]));
  }
  double total = 0.0;
  for (uint64_t begin = 0; begin < size; begin += kSumBlock) {
    const uint64_t end = std::min(size, begin + kSumBlock);
    double partial = 0.0;
    for (uint64_t i = begin; i < end; ++i) {
      partial += static_cast<double>(std::norm(amps[i])) *
                 static_cast<double>(spectrum[i]);
    }
    total += partial;
  }
  return total;
}

void ApplyQaoaMixerReference(double beta,
                             std::vector<std::complex<float>>& amplitudes) {
  QJO_CHECK(std::has_single_bit(amplitudes.size()))
      << "amplitude count must be 2^n";
  MixerSweeps(amplitudes.data(), amplitudes.size(), static_cast<float>(beta));
}

}  // namespace qjo
