#ifndef QJO_UTIL_SIMD_H_
#define QJO_UTIL_SIMD_H_

#include <cstdint>

namespace qjo {

/// Instruction-set tiers of the runtime-dispatched kernels. Values are
/// ordered (wider is larger) so "clamp a requested tier to what the host
/// supports" is a plain comparison; the numeric value is also what the
/// obs layer records in the `simd.isa` gauge and the benches write as
/// `simd_isa`. 1 and 3 (the retired SSE2 and AVX-512 tiers) stay unused
/// so recorded values keep their meaning.
enum class SimdIsa {
  kScalar = 0,  ///< plain C++ loops; the portable fallback and the oracle
  kAvx2 = 2,    ///< 8-wide floats / 4-wide doubles, then 128-bit steps
};

const char* SimdIsaName(SimdIsa isa);

/// Parses a QJO_SIMD-style tier name ("scalar", "avx2").
/// Returns false on an unknown name.
bool ParseSimdIsa(const char* name, SimdIsa* out);

/// The dispatch table: one function pointer per hot kernel, filled by the
/// per-ISA translation units (simd_scalar.cc / simd_avx2.cc). The AVX2
/// tier works down one width ladder: 256-bit vectors, one 128-bit step,
/// then the scalar body over the rest.
///
/// Determinism contract: every implementation of a kernel performs the
/// same per-element floating-point operations in the same order as the
/// scalar tier — vector widening only changes how many independent
/// elements are in flight, never an element's mul/add sequence — and the
/// per-ISA TUs are built with -ffp-contract=off so no tier fuses a
/// mul+add the others round separately. Outputs therefore compare equal
/// with operator== across tiers (only signs of zeros can differ, and for
/// the float kernels not even those). This is what keeps fused QAOA
/// sweeps bit-identical to the gate-at-a-time oracle
/// (sim/qaoa_reference.h) and batched annealing bit-identical to scalar
/// reads on every host.
struct SimdOps {
  SimdIsa isa = SimdIsa::kScalar;
  const char* name = "scalar";

  // --- QAOA float kernels (interleaved re/im pairs; see DESIGN.md,
  // "Simulator fast path"). ---

  /// Mixer butterflies for all qubits with bit < block_qubits, applied to
  /// one cache-resident block of `bsz` amplitudes (2*bsz floats) at `a`.
  /// Qubits ascend, matching the gate-at-a-time oracle's sweep order.
  void (*mixer_low_block)(float* a, int64_t bsz, int block_qubits, float c,
                          float sn) = nullptr;

  /// Butterflies between two contiguous runs of `floats` floats:
  ///   lo' = c*lo + (0,-sn)*hi     hi' = (0,-sn)*lo + c*hi
  /// `floats` is even (interleaved complex); any length is handled.
  void (*butterfly_rows)(float* lo, float* hi, int64_t floats, float c,
                         float sn) = nullptr;

  /// Element-wise complex multiply a[i] *= t[i] over `floats` floats.
  void (*phase_rows)(float* a, const float* t, int64_t floats) = nullptr;

  // --- Batched annealer double kernels (SoA replica planes: row j of a
  // plane holds `lanes` consecutive doubles, one per replica; see
  // DESIGN.md, "Batched multi-replica annealing"). ---

  /// SA neighbour update after a batch of accepted flips of variable i:
  /// for every adjacency entry k in [0, count),
  ///   fields[cols[k]*lanes + r] += dir[r] * w[k]    for all lanes r.
  /// dir[r] is +-1.0 for lanes that flipped and 0.0 for lanes that did
  /// not; the 0-lane add contributes exactly +-0.0, which leaves the
  /// field value unchanged (up to the sign of a zero).
  void (*sa_row_update)(double* fields, const int32_t* cols, const double* w,
                        int count, int64_t lanes, const double* dir) = nullptr;

  /// SQA variant with per-lane coupling weights (each replica carries its
  /// own ICE-perturbed couplings): for every entry k,
  ///   fields[cols[k]*lanes + r] += dir[r] * w_planes[edge_ids[k]*lanes + r].
  /// dir[r] is +-2.0 (2 * new spin) for accepted lanes, 0.0 otherwise.
  void (*sqa_row_update)(double* fields, const int32_t* cols,
                         const int32_t* edge_ids, const double* w_planes,
                         int count, int64_t lanes,
                         const double* dir) = nullptr;
};

/// The process-wide dispatch table: the widest tier both compiled in and
/// supported by the host CPU, optionally capped by the QJO_SIMD
/// environment variable (scalar|avx2 — a request the host cannot satisfy
/// falls back to scalar; any other value, the retired "avx512" included,
/// is reported on stderr and ignored).
/// Resolved once on first use; subsequent calls are a single atomic load.
const SimdOps& Simd();

/// Dispatch table for a specific tier, or nullptr when that tier is not
/// compiled in or the host cannot execute it. Lets tests and benches
/// compare tiers side by side within one process.
const SimdOps* SimdOpsFor(SimdIsa isa);

/// Replaces the process-wide table (the programmatic QJO_SIMD). Returns
/// false (and changes nothing) when the tier is unavailable. Not intended
/// for use while other threads are inside Simd()-dispatched kernels;
/// tests and benches switch tiers between runs, never during one.
bool SetSimd(SimdIsa isa);

}  // namespace qjo

#endif  // QJO_UTIL_SIMD_H_
