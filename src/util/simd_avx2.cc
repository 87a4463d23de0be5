#include "util/simd.h"

// AVX2 tier: 8-wide float butterflies/phases and 4-wide double replica
// updates — util/simd_x86.h's ladder from 256 bits down, run from the
// start of each run.

#if defined(__AVX2__)

#include "util/simd_x86.h"

namespace qjo {
namespace simd_internal {
namespace {

void SaRowUpdateAvx2(double* fields, const int32_t* cols, const double* w,
                     int count, int64_t lanes, const double* dir) {
  SaRowUpdate256(fields, cols, w, count, lanes, dir, 0);
}

void SqaRowUpdateAvx2(double* fields, const int32_t* cols,
                      const int32_t* edge_ids, const double* w_planes,
                      int count, int64_t lanes, const double* dir) {
  SqaRowUpdate256(fields, cols, edge_ids, w_planes, count, lanes, dir, 0);
}

}  // namespace

const SimdOps* GetAvx2Ops() {
  static const SimdOps ops = [] {
    SimdOps o;
    o.isa = SimdIsa::kAvx2;
    o.name = "avx2";
    o.mixer_low_block = &MixerLowBlockVec<ButterflyQ0Rows256, ButterflyRows256>;
    o.butterfly_rows = &ButterflyRows256;
    o.phase_rows = &PhaseRows256;
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
