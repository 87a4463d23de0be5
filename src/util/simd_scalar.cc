#include "util/simd.h"
#include "util/simd_internal.h"

// The portable tier: plain C++ loops, compiled without any vector ISA
// flags. Always present — dispatch falls back here on any host.

namespace qjo {
namespace simd_internal {
namespace {

void SaRowUpdateScalar(double* fields, const int32_t* cols, const double* w,
                       int count, int64_t lanes, const double* dir) {
  ScalarSaRowUpdate(fields, cols, w, count, lanes, dir, 0);
}

void SqaRowUpdateScalar(double* fields, const int32_t* cols,
                        const int32_t* edge_ids, const double* w_planes,
                        int count, int64_t lanes, const double* dir) {
  ScalarSqaRowUpdate(fields, cols, edge_ids, w_planes, count, lanes, dir, 0);
}

}  // namespace

const SimdOps* GetScalarOps() {
  static const SimdOps ops = [] {
    SimdOps o;
    o.isa = SimdIsa::kScalar;
    o.name = "scalar";
    o.mixer_low_block = &ScalarMixerLowBlock;
    o.butterfly_rows = &ScalarButterflyRows;
    o.phase_rows = &ScalarPhaseRows;
    o.sa_row_update = &SaRowUpdateScalar;
    o.sqa_row_update = &SqaRowUpdateScalar;
    return o;
  }();
  return &ops;
}

}  // namespace simd_internal
}  // namespace qjo
