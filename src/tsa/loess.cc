#include "src/tsa/loess.h"

#include <algorithm>
#include <cmath>

#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/common/simd.h"

namespace fbdetect {
namespace {

double Tricube(double u) {
  const double a = 1.0 - std::fabs(u) * std::fabs(u) * std::fabs(u);
  return a <= 0.0 ? 0.0 : a * a * a;
}

// The weighted least-squares line through the five window sums, evaluated at
// x_i; `fallback` when no point carried weight.
double FinishFit(const double* sums, double x_i, double fallback) {
  const double sw = sums[0];
  const double swx = sums[1];
  const double swy = sums[2];
  const double swxx = sums[3];
  const double swxy = sums[4];
  if (sw <= 0.0) {
    return fallback;
  }
  const double denom = sw * swxx - swx * swx;
  if (std::fabs(denom) < 1e-12 * sw * swxx + 1e-300) {
    return swy / sw;  // Fall back to the weighted mean.
  }
  const double slope = (sw * swxy - swx * swy) / denom;
  const double intercept = (swy - slope * swx) / sw;
  return slope * x_i + intercept;
}

// Robustness-weighted local linear fit at point i (STL's outer loop).
double RobustFitAt(std::span<const double> values, std::span<const double> robustness,
                   size_t span, size_t i) {
  const size_t n = values.size();
  // Neighborhood of `span` points centered on i, shifted at the edges.
  size_t lo = i >= span / 2 ? i - span / 2 : 0;
  if (lo + span > n) {
    lo = n - span;
  }
  const size_t hi = lo + span;  // Exclusive.
  const double max_dist =
      std::max(static_cast<double>(i - lo), static_cast<double>(hi - 1 - i));
  double sums[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
  for (size_t j = lo; j < hi; ++j) {
    const double dist = std::fabs(static_cast<double>(j) - static_cast<double>(i));
    double w = max_dist > 0.0 ? Tricube(dist / (max_dist + 1.0)) : 1.0;
    w *= robustness[j];
    if (w <= 0.0) {
      continue;
    }
    const double x = static_cast<double>(j);
    sums[0] += w;
    sums[1] += w * x;
    sums[2] += w * values[j];
    sums[3] += w * x * x;
    sums[4] += w * x * values[j];
  }
  return FinishFit(sums, static_cast<double>(i), values[i]);
}

// Unweighted fits at points [center, center + count), which all use the
// clamped window [lo, lo + span).
void EdgeFits(std::span<const double> values, size_t lo, size_t span, size_t center,
              size_t count, std::span<double> out) {
  if (count == 0) {
    return;
  }
  ArenaScope scope(Arena::ThreadLocal());
  const std::span<double> sums = scope.MakeUninitializedSpan<double>(5 * count);
  simd::Active().loess_edge_sums(values.data() + lo, lo, span, center, count, sums.data());
  for (size_t o = 0; o < count; ++o) {
    const size_t i = center + o;
    out[i] = FinishFit(sums.data() + 5 * o, static_cast<double>(i), values[i]);
  }
}

}  // namespace

void LoessSmoothInto(std::span<const double> values, size_t span,
                     std::span<const double> robustness, std::span<double> out) {
  const size_t n = values.size();
  FBD_CHECK(out.size() == n);
  if (n == 0) {
    return;
  }
  FBD_CHECK(robustness.empty() || robustness.size() == n);
  if (n == 1) {
    out[0] = values[0];
    return;
  }
  span = std::clamp<size_t>(span, 2, n);
  if (!robustness.empty()) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = RobustFitAt(values, robustness, span, i);
    }
    return;
  }
  if (n == span) {
    EdgeFits(values, 0, span, 0, n, out);
    return;
  }

  // Unweighted (STL's default: outer_iterations == 1 keeps the robustness
  // weights empty). Away from the edges every window is the same shape, so
  // the tricube weights form one fixed kernel and the fit at i collapses to
  // two kernel dot products:
  //   smoothed[i] = (swy - slope * swk) / sw,
  //   slope = (sw * swky - swk * swy) / (sw * swkk - swk^2),
  // where sw/swk/swkk are kernel constants and swy/swky are dot products of
  // the kernel (and the kernel times the centered offset) with the window.
  // This is the same least-squares fit with the arithmetic hoisted out of the
  // per-point loop. The clamped edge windows keep the per-point fit.
  const size_t half = span / 2;
  const double center = static_cast<double>(half);
  const double max_dist = std::max(center, static_cast<double>(span - 1 - half));
  ArenaScope scope(Arena::ThreadLocal());
  const std::span<double> kernel = scope.MakeUninitializedSpan<double>(span);
  const std::span<double> kernel_k = scope.MakeUninitializedSpan<double>(span);
  double sw = 0.0;
  double swk = 0.0;
  double swkk = 0.0;
  for (size_t k = 0; k < span; ++k) {
    const double offset = static_cast<double>(k) - center;
    const double w = max_dist > 0.0 ? Tricube(std::fabs(offset) / (max_dist + 1.0)) : 1.0;
    kernel[k] = w;
    kernel_k[k] = w * offset;
    sw += w;
    swk += w * offset;
    swkk += w * offset * offset;
  }
  const double denom = sw * swkk - swk * swk;
  const bool degenerate = sw <= 0.0 || std::fabs(denom) < 1e-12 * sw * swkk + 1e-300;
  // Interior: lo = i - half >= 0 and lo + span <= n.
  const size_t first = half;
  const size_t last = n - span + half;  // Inclusive.
  const size_t interior = last - first + 1;
  const std::span<double> swy = out.subspan(first, interior);
  const std::span<double> swky = scope.MakeUninitializedSpan<double>(interior);
  simd::Active().loess_dot2(values.data(), interior, kernel.data(), kernel_k.data(), span,
                            swy.data(), swky.data());
  for (size_t o = 0; o < interior; ++o) {
    if (degenerate) {
      swy[o] = sw > 0.0 ? swy[o] / sw : values[first + o];
    } else {
      const double slope = (sw * swky[o] - swk * swy[o]) / denom;
      swy[o] = (swy[o] - slope * swk) / sw;
    }
  }
  EdgeFits(values, 0, span, 0, first, out);
  EdgeFits(values, n - span, span, last + 1, n - last - 1, out);
}

std::vector<double> LoessSmoothWeighted(std::span<const double> values, size_t span,
                                        std::span<const double> robustness) {
  std::vector<double> smoothed(values.size(), 0.0);
  LoessSmoothInto(values, span, robustness, smoothed);
  return smoothed;
}

std::vector<double> LoessSmooth(std::span<const double> values, size_t span) {
  return LoessSmoothWeighted(values, span, {});
}

}  // namespace fbdetect
