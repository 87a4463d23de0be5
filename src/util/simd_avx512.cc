#include "util/simd.h"

// AVX-512F tier: 16-wide float butterflies/phases and 8-wide double
// replica updates, then util/simd_x86.h's ladder from 256 bits down over
// what the 512-bit loop leaves. _mm512_shuffle_ps with an immediate is
// per-128-bit lane, i.e. the 128-bit pattern applied four times, so
// per-element operation order is unchanged. Sign-flip masks go through
// the integer domain (_mm512_xor_si512) because _mm512_xor_ps requires
// AVX512DQ and this TU only assumes AVX512F.

#if defined(__AVX512F__)

#include "util/simd_x86.h"

namespace qjo {
namespace simd_internal {
namespace {

inline __m512 XorPs512(__m512 v, __m512i mask) {
  return _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(v), mask));
}

inline __m512i OddSignMask512() {
  return _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ull));
}

inline __m512i EvenSignMask512() {
  return _mm512_set1_epi64(static_cast<long long>(0x0000000080000000ull));
}

inline void ButterflyVec512(float* lo, float* hi, __m512 vc, __m512 vs) {
  const __m512 v0 = _mm512_loadu_ps(lo);
  const __m512 v1 = _mm512_loadu_ps(hi);
  const __m512 sw0 = _mm512_shuffle_ps(v0, v0, _MM_SHUFFLE(2, 3, 0, 1));
  const __m512 sw1 = _mm512_shuffle_ps(v1, v1, _MM_SHUFFLE(2, 3, 0, 1));
  const __m512i odd = OddSignMask512();
  _mm512_storeu_ps(lo, _mm512_add_ps(_mm512_mul_ps(vc, v0),
                                     XorPs512(_mm512_mul_ps(vs, sw1), odd)));
  _mm512_storeu_ps(hi, _mm512_add_ps(XorPs512(_mm512_mul_ps(vs, sw0), odd),
                                     _mm512_mul_ps(vc, v1)));
}

inline void ButterflyQ0Vec512(float* a, __m512 vc, __m512 vs) {
  const __m512 v = _mm512_loadu_ps(a);
  const __m512 sw = _mm512_shuffle_ps(v, v, _MM_SHUFFLE(0, 1, 2, 3));
  const __m512 tt = XorPs512(_mm512_mul_ps(vs, sw), OddSignMask512());
  const __m512 cv = _mm512_mul_ps(vc, v);
  const __m512 lo = _mm512_add_ps(cv, tt);
  const __m512 hi = _mm512_add_ps(tt, cv);
  _mm512_storeu_ps(a, _mm512_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 2, 1, 0)));
}

inline void PhaseVec512(float* a, const float* t) {
  const __m512 va = _mm512_loadu_ps(a);
  const __m512 vt = _mm512_loadu_ps(t);
  const __m512 prpr = _mm512_shuffle_ps(vt, vt, _MM_SHUFFLE(2, 2, 0, 0));
  const __m512 pipi = _mm512_shuffle_ps(vt, vt, _MM_SHUFFLE(3, 3, 1, 1));
  const __m512 swa = _mm512_shuffle_ps(va, va, _MM_SHUFFLE(2, 3, 0, 1));
  const __m512 x = _mm512_mul_ps(va, prpr);
  const __m512 y = _mm512_mul_ps(swa, pipi);
  _mm512_storeu_ps(a, _mm512_add_ps(x, XorPs512(y, EvenSignMask512())));
}

void ButterflyRowsAvx512(float* lo, float* hi, int64_t floats, float c,
                         float sn) {
  const __m512 vc = _mm512_set1_ps(c);
  const __m512 vs = _mm512_set1_ps(sn);
  int64_t f = 0;
  for (; f + 16 <= floats; f += 16) ButterflyVec512(lo + f, hi + f, vc, vs);
  ButterflyRows256(lo + f, hi + f, floats - f, c, sn);
}

void ButterflyQ0RowsAvx512(float* a, int64_t floats, float c, float sn) {
  const __m512 vc = _mm512_set1_ps(c);
  const __m512 vs = _mm512_set1_ps(sn);
  int64_t f = 0;
  for (; f + 16 <= floats; f += 16) ButterflyQ0Vec512(a + f, vc, vs);
  ButterflyQ0Rows256(a + f, floats - f, c, sn);
}

void PhaseRowsAvx512(float* a, const float* t, int64_t floats) {
  int64_t f = 0;
  for (; f + 16 <= floats; f += 16) PhaseVec512(a + f, t + f);
  PhaseRows256(a + f, t + f, floats - f);
}

void SaRowUpdateAvx512(double* fields, const int32_t* cols, const double* w,
                       int count, int64_t lanes, const double* dir) {
  int64_t r = 0;
  for (; r + 8 <= lanes; r += 8) {
    const __m512d vd = _mm512_loadu_pd(dir + r);
    for (int k = 0; k < count; ++k) {
      double* row = fields + static_cast<int64_t>(cols[k]) * lanes + r;
      const __m512d vw = _mm512_set1_pd(w[k]);
      _mm512_storeu_pd(
          row, _mm512_add_pd(_mm512_loadu_pd(row), _mm512_mul_pd(vd, vw)));
    }
  }
  SaRowUpdate256(fields, cols, w, count, lanes, dir, r);
}

void SqaRowUpdateAvx512(double* fields, const int32_t* cols,
                        const int32_t* edge_ids, const double* w_planes,
                        int count, int64_t lanes, const double* dir) {
  int64_t r = 0;
  for (; r + 8 <= lanes; r += 8) {
    const __m512d vd = _mm512_loadu_pd(dir + r);
    for (int k = 0; k < count; ++k) {
      double* row = fields + static_cast<int64_t>(cols[k]) * lanes + r;
      const double* wp =
          w_planes + static_cast<int64_t>(edge_ids[k]) * lanes + r;
      const __m512d vw = _mm512_loadu_pd(wp);
      _mm512_storeu_pd(
          row, _mm512_add_pd(_mm512_loadu_pd(row), _mm512_mul_pd(vd, vw)));
    }
  }
  SqaRowUpdate256(fields, cols, edge_ids, w_planes, count, lanes, dir, r);
}

}  // namespace

const SimdOps* GetAvx512Ops() {
  static const SimdOps ops = [] {
    SimdOps o;
    o.isa = SimdIsa::kAvx512;
    o.name = "avx512";
    o.mixer_low_block =
        &MixerLowBlockVec<ButterflyQ0RowsAvx512, ButterflyRowsAvx512>;
    o.butterfly_rows = &ButterflyRowsAvx512;
    o.phase_rows = &PhaseRowsAvx512;
    o.sa_row_update = &SaRowUpdateAvx512;
    o.sqa_row_update = &SqaRowUpdateAvx512;
    return o;
  }();
  return &ops;
}

}  // namespace simd_internal
}  // namespace qjo

#else  // !defined(__AVX512F__)

namespace qjo {
namespace simd_internal {

const SimdOps* GetAvx512Ops() { return nullptr; }

}  // namespace simd_internal
}  // namespace qjo

#endif  // defined(__AVX512F__)
