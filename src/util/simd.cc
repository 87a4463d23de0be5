#include "util/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace qjo {
namespace simd_internal {

// Implemented by the per-ISA translation units; each returns nullptr when
// its tier was not compiled in (missing compiler flag or non-x86 target).
const SimdOps* GetScalarOps();
const SimdOps* GetAvx2Ops();

}  // namespace simd_internal

namespace {

/// True when the host CPU (and OS, via XCR0 for the AVX state) can
/// execute the tier. Compile-time availability is checked separately by
/// the per-ISA getters.
bool HostSupports(SimdIsa isa) {
#if defined(__x86_64__) || defined(__i386__)
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx2:
      return __builtin_cpu_supports("avx2");
  }
  return false;
#else
  return isa == SimdIsa::kScalar;
#endif
}

const SimdOps* CompiledOpsFor(SimdIsa isa) {
  using namespace simd_internal;
  switch (isa) {
    case SimdIsa::kScalar:
      return GetScalarOps();
    case SimdIsa::kAvx2:
      return GetAvx2Ops();
  }
  return nullptr;
}

/// Widest available tier at most `cap`. The scalar tier is always
/// compiled in, so this never returns null.
const SimdOps* WidestUpTo(SimdIsa cap) {
  if (cap >= SimdIsa::kAvx2) {
    if (const SimdOps* ops = SimdOpsFor(SimdIsa::kAvx2)) return ops;
  }
  return simd_internal::GetScalarOps();
}

const SimdOps* ResolveDefault() {
  SimdIsa cap = SimdIsa::kAvx2;
  if (const char* env = std::getenv("QJO_SIMD")) {
    SimdIsa requested;
    if (ParseSimdIsa(env, &requested)) {
      cap = requested;
    } else {
      std::fprintf(stderr,
                   "QJO_SIMD=%s is not a SIMD tier (scalar|avx2); "
                   "ignoring it\n",
                   env);
    }
  }
  return WidestUpTo(cap);
}

std::atomic<const SimdOps*> g_ops{nullptr};

}  // namespace

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseSimdIsa(const char* name, SimdIsa* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *out = SimdIsa::kScalar;
  } else if (std::strcmp(name, "avx2") == 0) {
    *out = SimdIsa::kAvx2;
  } else {
    return false;
  }
  return true;
}

const SimdOps& Simd() {
  const SimdOps* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // Resolved once (a function-local static), so a bad QJO_SIMD is
    // reported once; racing first calls store the same table.
    static const SimdOps* const resolved = ResolveDefault();
    ops = resolved;
    g_ops.store(ops, std::memory_order_release);
  }
  return *ops;
}

const SimdOps* SimdOpsFor(SimdIsa isa) {
  if (!HostSupports(isa)) return nullptr;
  return CompiledOpsFor(isa);
}

bool SetSimd(SimdIsa isa) {
  const SimdOps* ops = SimdOpsFor(isa);
  if (ops == nullptr) return false;
  g_ops.store(ops, std::memory_order_release);
  return true;
}

}  // namespace qjo
