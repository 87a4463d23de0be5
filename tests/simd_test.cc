#include "util/simd.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace qjo {
namespace {

// Every tier available on this host+build. The scalar tier is the oracle
// and always present; the AVX2 tier joins when the compiler produced it
// and the CPU can run it.
std::vector<const SimdOps*> AvailableTiers() {
  std::vector<const SimdOps*> tiers;
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
    if (const SimdOps* ops = SimdOpsFor(isa)) tiers.push_back(ops);
  }
  return tiers;
}

std::vector<float> RandomFloats(Rng& rng, int64_t count) {
  std::vector<float> v(count);
  for (auto& x : v) x = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  return v;
}

std::vector<double> RandomDoubles(Rng& rng, int64_t count) {
  std::vector<double> v(count);
  for (auto& x : v) x = rng.UniformDouble() * 2.0 - 1.0;
  return v;
}

// Bitwise comparison: the cross-tier contract is exact equality of
// produced bit patterns, not epsilon closeness.
template <typename T>
void ExpectBitsEqual(const std::vector<T>& got, const std::vector<T>& want,
                     const char* tier) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(T)))
      << "tier " << tier << " diverged from scalar";
}

TEST(SimdTest, ScalarTierAlwaysAvailable) {
  const SimdOps* scalar = SimdOpsFor(SimdIsa::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->isa, SimdIsa::kScalar);
  ASSERT_NE(scalar->mixer_low_block, nullptr);
  ASSERT_NE(scalar->butterfly_rows, nullptr);
  ASSERT_NE(scalar->phase_rows, nullptr);
  ASSERT_NE(scalar->sa_row_update, nullptr);
  ASSERT_NE(scalar->sqa_row_update, nullptr);
}

TEST(SimdTest, DispatchResolvesToAvailableTier) {
  const SimdOps& ops = Simd();
  EXPECT_NE(SimdOpsFor(ops.isa), nullptr);
  EXPECT_STREQ(ops.name, SimdIsaName(ops.isa));
}

TEST(SimdTest, ParseSimdIsaRoundTrips) {
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
    SimdIsa parsed;
    ASSERT_TRUE(ParseSimdIsa(SimdIsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  SimdIsa parsed;
  EXPECT_FALSE(ParseSimdIsa("neon", &parsed));
  EXPECT_FALSE(ParseSimdIsa("avx512", &parsed));  // retired tier
  EXPECT_FALSE(ParseSimdIsa("", &parsed));
  EXPECT_FALSE(ParseSimdIsa(nullptr, &parsed));
}

TEST(SimdTest, SetSimdSwitchesAndRestores) {
  const SimdIsa original = Simd().isa;
  ASSERT_TRUE(SetSimd(SimdIsa::kScalar));
  EXPECT_EQ(Simd().isa, SimdIsa::kScalar);
  ASSERT_TRUE(SetSimd(original));
  EXPECT_EQ(Simd().isa, original);
}

// Butterfly rows across tiers, including odd run lengths that exercise
// the 128-bit and scalar tails inside the AVX2 TU.
TEST(SimdKernelsBitIdenticalTest, ButterflyRowsAcrossTiers) {
  Rng rng(20260808);
  const float c = 0.731689f;
  const float sn = -0.681642f;
  for (int64_t floats : {2, 4, 6, 8, 10, 14, 16, 18, 30, 32, 34, 64, 126}) {
    const std::vector<float> lo0 = RandomFloats(rng, floats);
    const std::vector<float> hi0 = RandomFloats(rng, floats);
    std::vector<float> lo_ref = lo0, hi_ref = hi0;
    SimdOpsFor(SimdIsa::kScalar)
        ->butterfly_rows(lo_ref.data(), hi_ref.data(), floats, c, sn);
    for (const SimdOps* ops : AvailableTiers()) {
      std::vector<float> lo = lo0, hi = hi0;
      ops->butterfly_rows(lo.data(), hi.data(), floats, c, sn);
      ExpectBitsEqual(lo, lo_ref, ops->name);
      ExpectBitsEqual(hi, hi_ref, ops->name);
    }
  }
}

TEST(SimdKernelsBitIdenticalTest, MixerLowBlockAcrossTiers) {
  Rng rng(99);
  const float c = 0.921061f;
  const float sn = 0.389418f;
  // (bsz, block_qubits): powers of two down to the smallest block, with
  // both full and partial qubit counts.
  const std::pair<int64_t, int>
      cases[] = {{2, 1}, {4, 2}, {8, 3}, {8, 2}, {64, 6}, {256, 8}, {256, 5}};
  for (const auto& [bsz, bq] : cases) {
    const std::vector<float> a0 = RandomFloats(rng, 2 * bsz);
    std::vector<float> a_ref = a0;
    SimdOpsFor(SimdIsa::kScalar)->mixer_low_block(a_ref.data(), bsz, bq, c, sn);
    for (const SimdOps* ops : AvailableTiers()) {
      std::vector<float> a = a0;
      ops->mixer_low_block(a.data(), bsz, bq, c, sn);
      ExpectBitsEqual(a, a_ref, ops->name);
    }
  }
}

TEST(SimdKernelsBitIdenticalTest, PhaseRowsAcrossTiers) {
  Rng rng(7);
  for (int64_t floats : {2, 4, 6, 8, 10, 16, 22, 32, 34, 62}) {
    const std::vector<float> a0 = RandomFloats(rng, floats);
    const std::vector<float> t = RandomFloats(rng, floats);
    std::vector<float> a_ref = a0;
    SimdOpsFor(SimdIsa::kScalar)->phase_rows(a_ref.data(), t.data(), floats);
    for (const SimdOps* ops : AvailableTiers()) {
      std::vector<float> a = a0;
      ops->phase_rows(a.data(), t.data(), floats);
      ExpectBitsEqual(a, a_ref, ops->name);
    }
  }
}

// Replica-plane updates: lane counts deliberately include 1, odd values,
// and non-multiples of every vector width to exercise the tails.
TEST(SimdKernelsBitIdenticalTest, SaRowUpdateAcrossTiersAndLaneTails) {
  Rng rng(4242);
  const int n = 23;
  for (int64_t lanes : {1, 3, 4, 7, 8, 13, 16, 17}) {
    const int count = 11;
    std::vector<int32_t> cols(count);
    for (auto& col : cols) {
      col = static_cast<int32_t>(rng.UniformDouble() * n);
    }
    const std::vector<double> w = RandomDoubles(rng, count);
    std::vector<double> dir = RandomDoubles(rng, lanes);
    for (int64_t r = 0; r < lanes; ++r) {
      dir[r] = (r % 3 == 0) ? 0.0 : ((r % 2 == 0) ? 1.0 : -1.0);
    }
    const std::vector<double> fields0 = RandomDoubles(rng, n * lanes);
    std::vector<double> ref = fields0;
    SimdOpsFor(SimdIsa::kScalar)
        ->sa_row_update(ref.data(), cols.data(), w.data(), count, lanes,
                        dir.data());
    for (const SimdOps* ops : AvailableTiers()) {
      std::vector<double> fields = fields0;
      ops->sa_row_update(fields.data(), cols.data(), w.data(), count, lanes,
                         dir.data());
      ExpectBitsEqual(fields, ref, ops->name);
    }
  }
}

TEST(SimdKernelsBitIdenticalTest, SqaRowUpdateAcrossTiersAndLaneTails) {
  Rng rng(31337);
  const int n = 17;
  const int num_edges = 29;
  for (int64_t lanes : {1, 3, 4, 7, 8, 13, 16, 17}) {
    const int count = 9;
    std::vector<int32_t> cols(count);
    std::vector<int32_t> edge_ids(count);
    for (int k = 0; k < count; ++k) {
      cols[k] = static_cast<int32_t>(rng.UniformDouble() * n);
      edge_ids[k] = static_cast<int32_t>(rng.UniformDouble() * num_edges);
    }
    const std::vector<double> w_planes = RandomDoubles(rng, num_edges * lanes);
    std::vector<double> dir(lanes);
    for (int64_t r = 0; r < lanes; ++r) {
      dir[r] = (r % 3 == 0) ? 0.0 : ((r % 2 == 0) ? 2.0 : -2.0);
    }
    const std::vector<double> fields0 = RandomDoubles(rng, n * lanes);
    std::vector<double> ref = fields0;
    SimdOpsFor(SimdIsa::kScalar)
        ->sqa_row_update(ref.data(), cols.data(), edge_ids.data(),
                         w_planes.data(), count, lanes, dir.data());
    for (const SimdOps* ops : AvailableTiers()) {
      std::vector<double> fields = fields0;
      ops->sqa_row_update(fields.data(), cols.data(), edge_ids.data(),
                          w_planes.data(), count, lanes, dir.data());
      ExpectBitsEqual(fields, ref, ops->name);
    }
  }
}

}  // namespace
}  // namespace qjo
