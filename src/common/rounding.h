// Rounding-error arithmetic shared by the exact shortcuts (DESIGN §13): the
// long-term screen's margin and the certified ACF's bound. Both bound how far
// a computed value can sit from the exact one, in the standard model
// fl(a op b) = (a op b)(1 + d), |d| <= u, and take a shortcut only when its
// decision is separated from the reference's by more than that bound.
#ifndef FBDETECT_SRC_COMMON_ROUNDING_H_
#define FBDETECT_SRC_COMMON_ROUNDING_H_

#include <cstddef>
#include <limits>

namespace fbdetect {

// The unit roundoff of double, u = 2^-53.
inline constexpr double kUnitRoundoff = 0x1p-53;

// Higham's gamma_k = k u / (1 - k u): the relative error bound of k rounded
// operations in sequence. +inf once k u >= 1.
inline double RoundingGamma(size_t k) {
  const double ku = static_cast<double>(k) * kUnitRoundoff;
  return ku < 1.0 ? ku / (1.0 - ku) : std::numeric_limits<double>::infinity();
}

// One intermediate of a computation, in some norm: the exact value's norm is
// at most `norm`, and the computed one is within `error` of it.
struct RoundingBound {
  double norm = 0.0;
  double error = 0.0;
};

// The computed A * x for an operator of norm at most `norm` whose own
// rounding is at most `rounding` times the norm of its (computed) input.
inline RoundingBound Through(const RoundingBound& x, double norm, double rounding) {
  return {norm * x.norm, norm * x.error + rounding * (x.norm + x.error)};
}

// The computed x - z (or x + z): one rounding of the result.
inline RoundingBound Combine(const RoundingBound& x, const RoundingBound& z) {
  const double norm = x.norm + z.norm;
  const double error = x.error + z.error;
  return {norm, error + kUnitRoundoff * (norm + error)};
}

}  // namespace fbdetect

#endif  // FBDETECT_SRC_COMMON_ROUNDING_H_
