#include "util/simd.h"

// AVX2 tier: 8-wide float butterflies/phases and 4-wide double replica
// updates. Each kernel works down one width ladder: 256-bit steps, one
// 128-bit step, then the scalar body of util/simd_internal.h over what is
// left.
//
// In-lane shuffles (_mm256_shuffle_ps with an immediate) act on each
// 128-bit half independently, so a 256-bit kernel is the 128-bit pattern
// applied twice, and every lane of every width performs the scalar
// body's mul/add sequence: results match the scalar tier bit for bit.

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "util/simd_internal.h"

namespace qjo {
namespace simd_internal {
namespace {

// --- 128-bit kernels: 2 complex floats / 2 replica lanes. ---

/// Negates lanes 1 and 3 (the imaginary components of two interleaved
/// complex floats).
inline __m128 NegateOdd128(__m128 v) {
  const __m128 mask =
      _mm_castsi128_ps(_mm_set_epi32(0x80000000, 0, 0x80000000, 0));
  return _mm_xor_ps(v, mask);
}

/// Two mixer butterflies between interleaved complex pairs at lo and hi:
/// per lane exactly ScalarButterfly1's mul/add sequence.
inline void ButterflyVec128(float* lo, float* hi, __m128 vc, __m128 vs) {
  const __m128 v0 = _mm_loadu_ps(lo);
  const __m128 v1 = _mm_loadu_ps(hi);
  const __m128 sw0 = _mm_shuffle_ps(v0, v0, _MM_SHUFFLE(2, 3, 0, 1));
  const __m128 sw1 = _mm_shuffle_ps(v1, v1, _MM_SHUFFLE(2, 3, 0, 1));
  _mm_storeu_ps(
      lo, _mm_add_ps(_mm_mul_ps(vc, v0), NegateOdd128(_mm_mul_ps(vs, sw1))));
  _mm_storeu_ps(
      hi, _mm_add_ps(NegateOdd128(_mm_mul_ps(vs, sw0)), _mm_mul_ps(vc, v1)));
}

/// Qubit-0 butterfly on two adjacent complex floats [re0 im0 re1 im1]:
/// the lo/hi pair lives inside one vector, so reverse-shuffle pairs the
/// partners and a final blend re-assembles the result.
inline void ButterflyQ0Vec128(float* a, __m128 vc, __m128 vs) {
  const __m128 v = _mm_loadu_ps(a);
  const __m128 sw = _mm_shuffle_ps(v, v, _MM_SHUFFLE(0, 1, 2, 3));
  const __m128 tt = NegateOdd128(_mm_mul_ps(vs, sw));
  const __m128 cv = _mm_mul_ps(vc, v);
  const __m128 lo = _mm_add_ps(cv, tt);
  const __m128 hi = _mm_add_ps(tt, cv);
  _mm_storeu_ps(a, _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 2, 1, 0)));
}

/// Complex multiply of two interleaved pairs: a *= t.
inline void PhaseVec128(float* a, const float* t) {
  const __m128 va = _mm_loadu_ps(a);
  const __m128 vt = _mm_loadu_ps(t);
  const __m128 prpr = _mm_shuffle_ps(vt, vt, _MM_SHUFFLE(2, 2, 0, 0));
  const __m128 pipi = _mm_shuffle_ps(vt, vt, _MM_SHUFFLE(3, 3, 1, 1));
  const __m128 swa = _mm_shuffle_ps(va, va, _MM_SHUFFLE(2, 3, 0, 1));
  const __m128 mask =
      _mm_castsi128_ps(_mm_set_epi32(0, 0x80000000, 0, 0x80000000));
  const __m128 x = _mm_mul_ps(va, prpr);
  const __m128 y = _mm_mul_ps(swa, pipi);
  _mm_storeu_ps(a, _mm_add_ps(x, _mm_xor_ps(y, mask)));
}

// The replica-row chunks update lanes [r, r + width) of every adjacency
// row. Callers make lane chunks the outer loop so the invariant dir
// vector loads once per chunk instead of once per neighbour (the
// compiler cannot hoist it itself: dir and fields are both double* and
// may alias). Each plane element still accumulates its k terms in
// ascending order, so results stay bit-identical to the scalar body.

inline void SaChunk128(double* fields, const int32_t* cols, const double* w,
                       int count, int64_t lanes, const double* dir,
                       int64_t r) {
  const __m128d vd = _mm_loadu_pd(dir + r);
  for (int k = 0; k < count; ++k) {
    double* row = fields + static_cast<int64_t>(cols[k]) * lanes + r;
    const __m128d vw = _mm_set1_pd(w[k]);
    _mm_storeu_pd(row, _mm_add_pd(_mm_loadu_pd(row), _mm_mul_pd(vd, vw)));
  }
}

inline void SqaChunk128(double* fields, const int32_t* cols,
                        const int32_t* edge_ids, const double* w_planes,
                        int count, int64_t lanes, const double* dir,
                        int64_t r) {
  const __m128d vd = _mm_loadu_pd(dir + r);
  for (int k = 0; k < count; ++k) {
    double* row = fields + static_cast<int64_t>(cols[k]) * lanes + r;
    const __m128d vw = _mm_loadu_pd(
        w_planes + static_cast<int64_t>(edge_ids[k]) * lanes + r);
    _mm_storeu_pd(row, _mm_add_pd(_mm_loadu_pd(row), _mm_mul_pd(vd, vw)));
  }
}

// --- 256-bit kernels: 4 complex floats / 4 replica lanes. ---

inline __m256 NegateOdd256(__m256 v) {
  const __m256 mask = _mm256_castsi256_ps(
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull)));
  return _mm256_xor_ps(v, mask);
}

inline void ButterflyVec256(float* lo, float* hi, __m256 vc, __m256 vs) {
  const __m256 v0 = _mm256_loadu_ps(lo);
  const __m256 v1 = _mm256_loadu_ps(hi);
  const __m256 sw0 = _mm256_shuffle_ps(v0, v0, _MM_SHUFFLE(2, 3, 0, 1));
  const __m256 sw1 = _mm256_shuffle_ps(v1, v1, _MM_SHUFFLE(2, 3, 0, 1));
  _mm256_storeu_ps(lo, _mm256_add_ps(_mm256_mul_ps(vc, v0),
                                     NegateOdd256(_mm256_mul_ps(vs, sw1))));
  _mm256_storeu_ps(hi, _mm256_add_ps(NegateOdd256(_mm256_mul_ps(vs, sw0)),
                                     _mm256_mul_ps(vc, v1)));
}

/// Four qubit-0 butterflies: each 128-bit half holds two adjacent
/// complex floats, and the in-lane reverse shuffle pairs the partners
/// exactly as ButterflyQ0Vec128 does.
inline void ButterflyQ0Vec256(float* a, __m256 vc, __m256 vs) {
  const __m256 v = _mm256_loadu_ps(a);
  const __m256 sw = _mm256_shuffle_ps(v, v, _MM_SHUFFLE(0, 1, 2, 3));
  const __m256 tt = NegateOdd256(_mm256_mul_ps(vs, sw));
  const __m256 cv = _mm256_mul_ps(vc, v);
  const __m256 lo = _mm256_add_ps(cv, tt);
  const __m256 hi = _mm256_add_ps(tt, cv);
  _mm256_storeu_ps(a, _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 2, 1, 0)));
}

inline void PhaseVec256(float* a, const float* t) {
  const __m256 va = _mm256_loadu_ps(a);
  const __m256 vt = _mm256_loadu_ps(t);
  const __m256 prpr = _mm256_shuffle_ps(vt, vt, _MM_SHUFFLE(2, 2, 0, 0));
  const __m256 pipi = _mm256_shuffle_ps(vt, vt, _MM_SHUFFLE(3, 3, 1, 1));
  const __m256 swa = _mm256_shuffle_ps(va, va, _MM_SHUFFLE(2, 3, 0, 1));
  const __m256 mask = _mm256_castsi256_ps(
      _mm256_set1_epi64x(static_cast<long long>(0x0000000080000000ull)));
  const __m256 x = _mm256_mul_ps(va, prpr);
  const __m256 y = _mm256_mul_ps(swa, pipi);
  _mm256_storeu_ps(a, _mm256_add_ps(x, _mm256_xor_ps(y, mask)));
}

inline void SaChunk256(double* fields, const int32_t* cols, const double* w,
                       int count, int64_t lanes, const double* dir,
                       int64_t r) {
  const __m256d vd = _mm256_loadu_pd(dir + r);
  for (int k = 0; k < count; ++k) {
    double* row = fields + static_cast<int64_t>(cols[k]) * lanes + r;
    const __m256d vw = _mm256_set1_pd(w[k]);
    _mm256_storeu_pd(
        row, _mm256_add_pd(_mm256_loadu_pd(row), _mm256_mul_pd(vd, vw)));
  }
}

inline void SqaChunk256(double* fields, const int32_t* cols,
                        const int32_t* edge_ids, const double* w_planes,
                        int count, int64_t lanes, const double* dir,
                        int64_t r) {
  const __m256d vd = _mm256_loadu_pd(dir + r);
  for (int k = 0; k < count; ++k) {
    double* row = fields + static_cast<int64_t>(cols[k]) * lanes + r;
    const __m256d vw = _mm256_loadu_pd(
        w_planes + static_cast<int64_t>(edge_ids[k]) * lanes + r);
    _mm256_storeu_pd(
        row, _mm256_add_pd(_mm256_loadu_pd(row), _mm256_mul_pd(vd, vw)));
  }
}

// --- The dispatched kernels: the ladder from 256 bits down. ---

void ButterflyRowsAvx2(float* lo, float* hi, int64_t floats, float c,
                       float sn) {
  const __m256 vc = _mm256_set1_ps(c);
  const __m256 vs = _mm256_set1_ps(sn);
  int64_t f = 0;
  for (; f + 8 <= floats; f += 8) ButterflyVec256(lo + f, hi + f, vc, vs);
  if (f + 4 <= floats) {
    ButterflyVec128(lo + f, hi + f, _mm256_castps256_ps128(vc),
                    _mm256_castps256_ps128(vs));
    f += 4;
  }
  ScalarButterflyRows(lo + f, hi + f, floats - f, c, sn);
}

/// Qubit-0 butterflies over `floats` floats, a multiple of 4 (mixer
/// blocks hold 2^block_qubits amplitudes).
inline void ButterflyQ0RowsAvx2(float* a, int64_t floats, float c,
                                float sn) {
  const __m256 vc = _mm256_set1_ps(c);
  const __m256 vs = _mm256_set1_ps(sn);
  int64_t f = 0;
  for (; f + 8 <= floats; f += 8) ButterflyQ0Vec256(a + f, vc, vs);
  if (f + 4 <= floats) {
    ButterflyQ0Vec128(a + f, _mm256_castps256_ps128(vc),
                      _mm256_castps256_ps128(vs));
  }
}

/// The mixer over one block: qubit 0 pairs lie inside one vector, every
/// higher qubit pairs two rows of 2*bit floats. Qubits ascend, as in
/// ScalarMixerLowBlock.
void MixerLowBlockAvx2(float* a, int64_t bsz, int block_qubits, float c,
                       float sn) {
  if (block_qubits >= 1) ButterflyQ0RowsAvx2(a, 2 * bsz, c, sn);
  for (int q = 1; q < block_qubits; ++q) {
    const int64_t bit = int64_t{1} << q;
    for (int64_t g = 0; g < bsz; g += 2 * bit) {
      ButterflyRowsAvx2(a + 2 * g, a + 2 * (g + bit), 2 * bit, c, sn);
    }
  }
}

void PhaseRowsAvx2(float* a, const float* t, int64_t floats) {
  int64_t f = 0;
  for (; f + 8 <= floats; f += 8) PhaseVec256(a + f, t + f);
  if (f + 4 <= floats) {
    PhaseVec128(a + f, t + f);
    f += 4;
  }
  ScalarPhaseRows(a + f, t + f, floats - f);
}

void SaRowUpdateAvx2(double* fields, const int32_t* cols, const double* w,
                     int count, int64_t lanes, const double* dir) {
  int64_t r = 0;
  for (; r + 4 <= lanes; r += 4) {
    SaChunk256(fields, cols, w, count, lanes, dir, r);
  }
  if (r + 2 <= lanes) {
    SaChunk128(fields, cols, w, count, lanes, dir, r);
    r += 2;
  }
  ScalarSaRowUpdate(fields, cols, w, count, lanes, dir, r);
}

void SqaRowUpdateAvx2(double* fields, const int32_t* cols,
                      const int32_t* edge_ids, const double* w_planes,
                      int count, int64_t lanes, const double* dir) {
  int64_t r = 0;
  for (; r + 4 <= lanes; r += 4) {
    SqaChunk256(fields, cols, edge_ids, w_planes, count, lanes, dir, r);
  }
  if (r + 2 <= lanes) {
    SqaChunk128(fields, cols, edge_ids, w_planes, count, lanes, dir, r);
    r += 2;
  }
  ScalarSqaRowUpdate(fields, cols, edge_ids, w_planes, count, lanes, dir, r);
}

}  // namespace

const SimdOps* GetAvx2Ops() {
  static const SimdOps ops = [] {
    SimdOps o;
    o.isa = SimdIsa::kAvx2;
    o.name = "avx2";
    o.mixer_low_block = &MixerLowBlockAvx2;
    o.butterfly_rows = &ButterflyRowsAvx2;
    o.phase_rows = &PhaseRowsAvx2;
    o.sa_row_update = &SaRowUpdateAvx2;
    o.sqa_row_update = &SqaRowUpdateAvx2;
    return o;
  }();
  return &ops;
}

}  // namespace simd_internal
}  // namespace qjo

#else  // !defined(__AVX2__)

namespace qjo {
namespace simd_internal {

const SimdOps* GetAvx2Ops() { return nullptr; }

}  // namespace simd_internal
}  // namespace qjo

#endif  // defined(__AVX2__)
