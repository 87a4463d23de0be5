#ifndef QJO_SIM_QAOA_REFERENCE_H_
#define QJO_SIM_QAOA_REFERENCE_H_

#include <complex>
#include <span>
#include <vector>

#include "circuit/qaoa_builder.h"

namespace qjo {

/// Test and benchmark oracle for QaoaSimulator (sim/qaoa_simulator.h):
/// gate-at-a-time QAOA, the loops the simulator ran before it settled on
/// its fused layer, with their arithmetic unchanged. Part of
/// qjo_sim_reference, which only test binaries and benchmarks link.
///
/// `spectrum` is QaoaSimulator::cost_spectrum() (2^n floats). Each layer
/// is one full sweep multiplying exp(-i gamma E(x)) in single precision,
/// then one full sweep per qubit applying RX(2 beta). The state lands in
/// `amplitudes`; the return value is <H_C>, summed in double over aligned
/// 2^14-amplitude blocks whose partials are added left to right. Both
/// compare equal with operator== to QaoaSimulator::Run at every pool size
/// (only the signs of IEEE zeros may differ). Serial.
double RunQaoaReference(std::span<const float> spectrum,
                        const QaoaParameters& parameters,
                        std::vector<std::complex<float>>& amplitudes);

/// RX(2 beta) on every qubit of `amplitudes` (2^n entries), one sweep per
/// qubit in ascending order: the oracle of QaoaSimulator::ApplyMixerLayer.
void ApplyQaoaMixerReference(double beta,
                             std::vector<std::complex<float>>& amplitudes);

}  // namespace qjo

#endif  // QJO_SIM_QAOA_REFERENCE_H_
