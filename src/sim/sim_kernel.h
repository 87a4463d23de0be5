#ifndef QJO_SIM_SIM_KERNEL_H_
#define QJO_SIM_SIM_KERNEL_H_

#include <cstdint>

namespace qjo {

/// QaoaSimulator's kernel selector, mirroring SolverKernel on the
/// annealing side: kReference is the straightforward one-sweep-per-gate
/// implementation kept for bit-parity tests, kFused the cache-blocked
/// fast path. Both produce states whose amplitudes compare equal with
/// operator== (the fused arithmetic performs the same per-amplitude
/// operation sequence; only signs of IEEE zeros may differ). The dense
/// StateVector oracle has a single, gate-by-gate kernel.
enum class SimKernel {
  kReference,
  kFused,
};

/// States below this amplitude count skip parallel dispatch entirely:
/// a 2^18-amplitude sweep takes tens of microseconds, the same order as
/// waking pool workers, so forking buys nothing and (dispatched from
/// inside an already-parallel region) used to oversubscribe the pool.
inline constexpr int64_t kMinParallelAmplitudes = int64_t{1} << 18;

}  // namespace qjo

#endif  // QJO_SIM_SIM_KERNEL_H_
