#include "sim/statevector.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/sampling.h"

namespace qjo {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

using Complex = std::complex<double>;

/// Fills `m` with the 2x2 unitary of a single-qubit gate; false for
/// two-qubit gates.
bool SingleQubitGateMatrix(const Gate& gate, Complex m[2][2]) {
  const double t = gate.parameter;
  switch (gate.type) {
    case GateType::kH: {
      m[0][0] = kInvSqrt2;
      m[0][1] = kInvSqrt2;
      m[1][0] = kInvSqrt2;
      m[1][1] = -kInvSqrt2;
      return true;
    }
    case GateType::kX: {
      m[0][0] = 0.0;
      m[0][1] = 1.0;
      m[1][0] = 1.0;
      m[1][1] = 0.0;
      return true;
    }
    case GateType::kSx: {
      // sqrt(X) = 1/2 [[1+i, 1-i], [1-i, 1+i]].
      const Complex p(0.5, 0.5), q(0.5, -0.5);
      m[0][0] = p;
      m[0][1] = q;
      m[1][0] = q;
      m[1][1] = p;
      return true;
    }
    case GateType::kRx: {
      const double c = std::cos(t / 2.0), s = std::sin(t / 2.0);
      m[0][0] = c;
      m[0][1] = Complex(0.0, -s);
      m[1][0] = Complex(0.0, -s);
      m[1][1] = c;
      return true;
    }
    case GateType::kRy: {
      const double c = std::cos(t / 2.0), s = std::sin(t / 2.0);
      m[0][0] = c;
      m[0][1] = -s;
      m[1][0] = s;
      m[1][1] = c;
      return true;
    }
    case GateType::kRz: {
      m[0][0] = std::polar(1.0, -t / 2.0);
      m[0][1] = 0.0;
      m[1][0] = 0.0;
      m[1][1] = std::polar(1.0, t / 2.0);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

StateVector::StateVector(int num_qubits)
    : num_qubits_(num_qubits),
      amplitudes_(uint64_t{1} << num_qubits, Complex(0.0, 0.0)) {
  amplitudes_[0] = Complex(1.0, 0.0);
}

StatusOr<StateVector> StateVector::Create(int num_qubits) {
  if (num_qubits < 1 || num_qubits > 28) {
    return Status::InvalidArgument("state vector supports 1..28 qubits");
  }
  return StateVector(num_qubits);
}

void StateVector::ApplySingleQubitMatrix(int qubit,
                                         const Complex m[2][2]) {
  const uint64_t bit = uint64_t{1} << qubit;
  const Complex m00 = m[0][0], m01 = m[0][1], m10 = m[1][0], m11 = m[1][1];
  for (uint64_t base = 0; base < amplitudes_.size(); ++base) {
    if (base & bit) continue;
    const Complex a0 = amplitudes_[base];
    const Complex a1 = amplitudes_[base | bit];
    amplitudes_[base] = m00 * a0 + m01 * a1;
    amplitudes_[base | bit] = m10 * a0 + m11 * a1;
  }
}

void StateVector::ApplyCx(int control, int target) {
  const uint64_t cbit = uint64_t{1} << control;
  const uint64_t tbit = uint64_t{1} << target;
  for (uint64_t i = 0; i < amplitudes_.size(); ++i) {
    if ((i & cbit) && !(i & tbit)) {
      std::swap(amplitudes_[i], amplitudes_[i | tbit]);
    }
  }
}

void StateVector::ApplyCz(int a, int b) {
  const uint64_t abit = uint64_t{1} << a;
  const uint64_t bbit = uint64_t{1} << b;
  for (uint64_t i = 0; i < amplitudes_.size(); ++i) {
    if ((i & abit) && (i & bbit)) amplitudes_[i] = -amplitudes_[i];
  }
}

void StateVector::ApplySwap(int a, int b) {
  const uint64_t abit = uint64_t{1} << a;
  const uint64_t bbit = uint64_t{1} << b;
  for (uint64_t i = 0; i < amplitudes_.size(); ++i) {
    if ((i & abit) && !(i & bbit)) {
      std::swap(amplitudes_[i], amplitudes_[(i & ~abit) | bbit]);
    }
  }
}

void StateVector::ApplyRzz(int a, int b, double theta) {
  // exp(-i theta Z(x)Z / 2): phase e^{-i theta/2} when bits agree,
  // e^{+i theta/2} when they differ.
  const Complex same = std::polar(1.0, -theta / 2.0);
  const Complex diff = std::polar(1.0, theta / 2.0);
  const uint64_t abit = uint64_t{1} << a;
  const uint64_t bbit = uint64_t{1} << b;
  for (uint64_t i = 0; i < amplitudes_.size(); ++i) {
    const bool ba = i & abit;
    const bool bb = i & bbit;
    amplitudes_[i] *= (ba == bb) ? same : diff;
  }
}

void StateVector::ApplyMs(int a, int b, double theta) {
  // exp(-i theta X(x)X / 2) mixes i with i XOR (a|b); each pair is
  // visited once, from its smaller member.
  const double c = std::cos(theta / 2.0);
  const Complex s(0.0, -std::sin(theta / 2.0));
  const uint64_t mask = (uint64_t{1} << a) | (uint64_t{1} << b);
  for (uint64_t i = 0; i < amplitudes_.size(); ++i) {
    const uint64_t j = i ^ mask;
    if (j < i) continue;
    const Complex ai = amplitudes_[i];
    const Complex aj = amplitudes_[j];
    amplitudes_[i] = c * ai + s * aj;
    amplitudes_[j] = s * ai + c * aj;
  }
}

void StateVector::Apply(const Gate& gate) {
  CheckGate(gate, num_qubits_);
  Complex m[2][2];
  if (SingleQubitGateMatrix(gate, m)) {
    ApplySingleQubitMatrix(gate.qubits[0], m);
    return;
  }
  const double t = gate.parameter;
  switch (gate.type) {
    case GateType::kCx:
      ApplyCx(gate.qubits[0], gate.qubits[1]);
      return;
    case GateType::kCz:
      ApplyCz(gate.qubits[0], gate.qubits[1]);
      return;
    case GateType::kSwap:
      ApplySwap(gate.qubits[0], gate.qubits[1]);
      return;
    case GateType::kRzz:
      ApplyRzz(gate.qubits[0], gate.qubits[1], t);
      return;
    case GateType::kMs:
      ApplyMs(gate.qubits[0], gate.qubits[1], t);
      return;
    default:
      break;
  }
  QJO_CHECK(false) << "unhandled gate";
}

void StateVector::ApplyCircuit(const QuantumCircuit& circuit) {
  QJO_CHECK_EQ(circuit.num_qubits(), num_qubits_);
  for (const Gate& g : circuit.gates()) Apply(g);
}

double StateVector::Probability(uint64_t basis) const {
  QJO_CHECK_LT(basis, amplitudes_.size());
  return std::norm(amplitudes_[basis]);
}

std::vector<double> StateVector::Probabilities() const {
  std::vector<double> probs(amplitudes_.size());
  for (size_t i = 0; i < amplitudes_.size(); ++i) {
    probs[i] = std::norm(amplitudes_[i]);
  }
  return probs;
}

std::vector<uint64_t> StateVector::Sample(int shots, Rng& rng) const {
  QJO_CHECK_GT(shots, 0);
  std::vector<uint64_t> samples;
  SampleByInverseCdf(
      amplitudes_.size(),
      [this](uint64_t i) { return std::norm(amplitudes_[i]); }, shots, rng,
      samples);
  // Return in random order (the sorted order is an artefact).
  rng.Shuffle(samples);
  return samples;
}

double StateVector::ExpectationZ(int qubit) const {
  const uint64_t bit = uint64_t{1} << qubit;
  double sum = 0.0;
  for (uint64_t i = 0; i < amplitudes_.size(); ++i) {
    const double p = std::norm(amplitudes_[i]);
    sum += (i & bit) ? -p : p;
  }
  return sum;
}

double StateVector::ExpectationZZ(int a, int b) const {
  const uint64_t abit = uint64_t{1} << a;
  const uint64_t bbit = uint64_t{1} << b;
  double sum = 0.0;
  for (uint64_t i = 0; i < amplitudes_.size(); ++i) {
    const double p = std::norm(amplitudes_[i]);
    const bool same =
        static_cast<bool>(i & abit) == static_cast<bool>(i & bbit);
    sum += same ? p : -p;
  }
  return sum;
}

double StateVector::Overlap(const StateVector& other) const {
  QJO_CHECK_EQ(num_qubits_, other.num_qubits_);
  Complex inner(0.0, 0.0);
  for (size_t i = 0; i < amplitudes_.size(); ++i) {
    inner += std::conj(amplitudes_[i]) * other.amplitudes_[i];
  }
  return std::norm(inner);
}

void StateVector::Normalize() {
  double norm = 0.0;
  for (const Complex& a : amplitudes_) norm += std::norm(a);
  QJO_CHECK_GT(norm, 0.0);
  const double inv = 1.0 / std::sqrt(norm);
  for (Complex& a : amplitudes_) a *= inv;
}

StatusOr<std::vector<std::vector<Complex>>> CircuitUnitary(
    const QuantumCircuit& circuit) {
  if (circuit.num_qubits() > 10) {
    return Status::InvalidArgument("unitary extraction capped at 10 qubits");
  }
  const uint64_t dim = uint64_t{1} << circuit.num_qubits();
  std::vector<std::vector<Complex>> unitary(dim);
  for (uint64_t b = 0; b < dim; ++b) {
    QJO_ASSIGN_OR_RETURN(StateVector sv,
                         StateVector::Create(circuit.num_qubits()));
    // Prepare |b> by X gates.
    for (int q = 0; q < circuit.num_qubits(); ++q) {
      if (b & (uint64_t{1} << q)) sv.Apply(Gate::Single(GateType::kX, q));
    }
    sv.ApplyCircuit(circuit);
    unitary[b] = sv.amplitudes();
  }
  return unitary;
}

bool UnitariesEqualUpToPhase(
    const std::vector<std::vector<Complex>>& a,
    const std::vector<std::vector<Complex>>& b, double tolerance) {
  if (a.size() != b.size()) return false;
  // Find a reference entry with non-negligible magnitude.
  Complex phase(0.0, 0.0);
  for (size_t col = 0; col < a.size() && phase == Complex(0.0, 0.0); ++col) {
    if (a[col].size() != b[col].size()) return false;
    for (size_t row = 0; row < a[col].size(); ++row) {
      if (std::abs(a[col][row]) > 0.5 / std::sqrt(a.size()) &&
          std::abs(b[col][row]) > 1e-12) {
        phase = a[col][row] / b[col][row];
        break;
      }
    }
  }
  if (phase == Complex(0.0, 0.0)) return false;
  if (std::abs(std::abs(phase) - 1.0) > tolerance) return false;
  for (size_t col = 0; col < a.size(); ++col) {
    for (size_t row = 0; row < a[col].size(); ++row) {
      if (std::abs(a[col][row] - phase * b[col][row]) > tolerance) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace qjo
