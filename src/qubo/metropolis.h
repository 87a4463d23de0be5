#ifndef QJO_QUBO_METROPOLIS_H_
#define QJO_QUBO_METROPOLIS_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace qjo {

/// Decides `u < std::exp(v)` for a uniform draw u in [0, 1) and an
/// exponent v <= 0 while skipping the std::exp call for almost every
/// proposal — and returning *exactly* what the direct comparison would,
/// so batched annealing lanes make bit-identical accept decisions to the
/// scalar reference reads (qubo/solvers_reference.h,
/// sim/sqa_reference.h).
///
/// Writing u = m * 2^e with m in [0.5, 1) (frexp), ln u lies in
/// [(e-1)*ln2, e*ln2). If v clears that bracket by a margin, the
/// comparison is decided without evaluating exp; only draws whose
/// bracket straddles v (u within a factor of 2 of exp(v), i.e. almost
/// never for strongly uphill moves) fall back to the exact test. The
/// 1e-9 margin dwarfs the bracket's own error budget — the rounding of
/// e*ln2 (< 2e-13 even at e = -1074) plus libm's faithful ~1-ulp exp
/// error — so the shortcut can never disagree with `u < std::exp(v)`.
inline bool MetropolisUnderExp(double u, double v) {
  if (u <= 0.0) return 0.0 < std::exp(v);
  // frexp exponent of a positive normal double, read straight off the
  // IEEE-754 bits (u = 1.f x 2^(b-1023) = m x 2^(b-1022) with m in
  // [0.5, 1)): the libm call is measurable per-proposal overhead in the
  // batched annealing lanes. Subnormals (u < 2^-1022, which a 53-bit
  // uniform draw never produces anyway) keep the exact library path.
  uint64_t bits;
  std::memcpy(&bits, &u, sizeof(bits));
  const int biased = static_cast<int>(bits >> 52);  // sign bit is 0 here
  int e;
  if (biased == 0) {
    (void)std::frexp(u, &e);
  } else {
    e = biased - 1022;
  }
  constexpr double kLn2 = 0.6931471805599453;
  constexpr double kMargin = 1e-9;
  const double le = static_cast<double>(e);
  if (v >= le * kLn2 + kMargin) return true;         // exp(v) > 2^e > u
  if (v <= (le - 1.0) * kLn2 - kMargin) return false;  // exp(v) < 2^(e-1) <= u
  return u < std::exp(v);
}

/// Division-free variant of MetropolisUnderExp for loops where the
/// temperature is fixed across many proposals (one annealing sweep).
///
/// The shortcut brackets only depend on u through its binary exponent,
/// and a 53-bit uniform draw u in (0, 1) has biased exponent 970..1022
/// (u in [2^-53, 1)). Prepare() tabulates the brackets premultiplied by
/// the temperature, so each proposal tests -delta directly against
/// T * (e*ln2 +- margin) — no divide on the hot path. The margin is
/// doubled to 2e-9: dividing the premultiplied comparison back by T
/// shows the extra rounding (two multiplies in Prepare plus the deferred
/// -delta/T rounding) is at most |e*ln2| * 2^-50 < 4e-14 relative to the
/// bracket, so the widened test still implies the 1e-9-margin test that
/// MetropolisUnderExp proves exact. Inconclusive draws — u outside the
/// tabulated exponent range (only u == 0) or -delta inside the widened
/// bracket — fall back to the exact division path.
class MetropolisBands {
 public:
  /// Tabulates the accept/reject brackets for `temperature` > 0.
  /// Overflow to +-inf or underflow to +-0 only narrows the fast bands
  /// (the comparisons below fail), never flips a decision.
  void Prepare(double temperature) {
    temperature_ = temperature;
    constexpr double kLn2 = 0.6931471805599453;
    constexpr double kWideMargin = 2e-9;
    for (int idx = 0; idx < kNumExponents; ++idx) {
      const double le = static_cast<double>(idx + kBiasedMin - 1022);
      hi_[idx] = temperature * (le * kLn2 + kWideMargin);
      lo_[idx] = temperature * ((le - 1.0) * kLn2 - kWideMargin);
    }
  }

  /// Decides `u < std::exp(-delta / temperature)` for the prepared
  /// temperature, bit-identical to a scalar read's direct test.
  /// `neg_delta` is -delta (so accept-leaning values are positive).
  bool UnderExp(double u, double neg_delta) const {
    uint64_t bits;
    std::memcpy(&bits, &u, sizeof(bits));
    const uint32_t idx = static_cast<uint32_t>(bits >> 52) - kBiasedMin;
    if (idx < static_cast<uint32_t>(kNumExponents)) {
      if (neg_delta >= hi_[idx]) return true;
      if (neg_delta <= lo_[idx]) return false;
    }
    return MetropolisUnderExp(u, neg_delta / temperature_);
  }

 private:
  // Biased exponents of [2^-53, 1): 1023 - 53 .. 1022.
  static constexpr int kBiasedMin = 970;
  static constexpr int kNumExponents = 53;

  double hi_[kNumExponents];
  double lo_[kNumExponents];
  double temperature_ = 1.0;
};

}  // namespace qjo

#endif  // QJO_QUBO_METROPOLIS_H_
