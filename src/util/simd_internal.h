#ifndef QJO_UTIL_SIMD_INTERNAL_H_
#define QJO_UTIL_SIMD_INTERNAL_H_

// Scalar bodies of every dispatched kernel, shared by the per-ISA
// translation units: the scalar tier uses them wholesale and the vector
// tiers use them as remainder tails. Each body performs exactly the
// per-element operations (and operand order) the vector kernels perform
// per lane, which is the whole bit-identity story — see util/simd.h.
// Only ever include this from the simd_*.cc TUs (they are compiled with
// -ffp-contract=off so the a*b + c patterns below never fuse).

#include <cstdint>

namespace qjo {
namespace simd_internal {

/// Scalar mixer butterfly on interleaved (re, im) floats:
///   lo' = c*lo + (0,-sn)*hi     hi' = (0,-sn)*lo + c*hi
/// with one IEEE rounding per component, matching the gate-at-a-time
/// oracle's std::complex expression (see sim/qaoa_reference.cc).
inline void ScalarButterfly1(float* lo, float* hi, float c, float sn) {
  const float re0 = lo[0], im0 = lo[1], re1 = hi[0], im1 = hi[1];
  lo[0] = c * re0 + sn * im1;
  lo[1] = c * im0 - sn * re1;
  hi[0] = sn * im0 + c * re1;
  hi[1] = -(sn * re0) + c * im1;
}

inline void ScalarButterflyRows(float* lo, float* hi, int64_t floats, float c,
                                float sn) {
  for (int64_t f = 0; f + 2 <= floats; f += 2) {
    ScalarButterfly1(lo + f, hi + f, c, sn);
  }
}

inline void ScalarMixerLowBlock(float* a, int64_t bsz, int block_qubits,
                                float c, float sn) {
  for (int q = 0; q < block_qubits; ++q) {
    const int64_t bit = int64_t{1} << q;
    for (int64_t g = 0; g < bsz; g += 2 * bit) {
      for (int64_t l = 0; l < bit; ++l) {
        ScalarButterfly1(a + 2 * (g + l), a + 2 * (g + l + bit), c, sn);
      }
    }
  }
}

/// a[i] *= t[i], component order matching the SSE2 PhaseVec lanes:
/// re' = ar*tr + (-(ai*ti)), im' = ai*tr + ar*ti.
inline void ScalarPhaseRows(float* a, const float* t, int64_t floats) {
  for (int64_t f = 0; f + 2 <= floats; f += 2) {
    const float ar = a[f], ai = a[f + 1];
    const float tr = t[f], ti = t[f + 1];
    a[f] = ar * tr - ai * ti;
    a[f + 1] = ai * tr + ar * ti;
  }
}

/// dir[r] is +-1.0 or 0.0, so dir[r] * w is exact (+-w or +-0.0) and the
/// add reproduces a scalar read's fields[j] += w / -= w bit for bit.
inline void ScalarSaRowUpdate(double* fields, const int32_t* cols,
                              const double* w, int count, int64_t lanes,
                              const double* dir) {
  for (int k = 0; k < count; ++k) {
    double* row = fields + static_cast<int64_t>(cols[k]) * lanes;
    const double wk = w[k];
    for (int64_t r = 0; r < lanes; ++r) row[r] += dir[r] * wk;
  }
}

/// dir[r] is +-2.0 or 0.0 — again an exact product per lane.
inline void ScalarSqaRowUpdate(double* fields, const int32_t* cols,
                               const int32_t* edge_ids, const double* w_planes,
                               int count, int64_t lanes, const double* dir) {
  for (int k = 0; k < count; ++k) {
    double* row = fields + static_cast<int64_t>(cols[k]) * lanes;
    const double* wp =
        w_planes + static_cast<int64_t>(edge_ids[k]) * lanes;
    for (int64_t r = 0; r < lanes; ++r) row[r] += dir[r] * wp[r];
  }
}

}  // namespace simd_internal
}  // namespace qjo

#endif  // QJO_UTIL_SIMD_INTERNAL_H_
