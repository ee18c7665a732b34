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

// Edge weights a plan holds at once: 2 MiB, every edge fit up to span 724
// (STL trend spans of periods up to ~480 points). Longer spans rebuild the
// weights chunk by chunk in each Apply, so a plan's memory stays linear in
// the span instead of growing with span^2 / 2.
constexpr size_t kMaxEdgeWeights = size_t{1} << 18;

}  // namespace

LoessPlan::LoessPlan(size_t n, size_t span, ArenaScope& scope) : n_(n) {
  if (n < 2) {
    return;  // Apply copies the single value, if any.
  }
  span_ = std::clamp<size_t>(span, 2, n);
  const size_t half = span_ / 2;
  right_ = span_ - half - 1;
  interior_ = n > span_ ? n - span_ + 1 : 0;
  left_ = n - interior_ - right_;
  const simd::Kernels& kernels = simd::Active();

  if (interior_ > 0) {
    // Away from the edges every window has the same shape, so the tricube
    // weights form one fixed kernel and the fit at i collapses to two kernel
    // dot products:
    //   smoothed[i] = (swy - slope * swk) / sw,
    //   slope = (sw * swky - swk * swy) / (sw * swkk - swk^2),
    // where sw/swk/swkk are kernel constants and swy/swky are dot products
    // of the kernel (and the kernel times the centered offset) with the
    // window: the same least-squares fit with the arithmetic hoisted out of
    // the per-point loop. With n == span the one window is clamped on both
    // sides and every point keeps the per-point fit.
    const double center = static_cast<double>(half);
    const double max_dist = std::max(center, static_cast<double>(span_ - 1 - half));
    kernel_ = scope.MakeUninitializedSpan<double>(span_);
    kernel_k_ = scope.MakeUninitializedSpan<double>(span_);
    double swkk = 0.0;
    for (size_t k = 0; k < span_; ++k) {
      const double offset = static_cast<double>(k) - center;
      const double w = max_dist > 0.0 ? Tricube(std::fabs(offset) / (max_dist + 1.0)) : 1.0;
      kernel_[k] = w;
      kernel_k_[k] = w * offset;
      sw_ += w;
      swk_ += w * offset;
      swkk += w * offset * offset;
    }
    denom_ = sw_ * swkk - swk_ * swk_;
    degenerate_ = sw_ <= 0.0 || std::fabs(denom_) < 1e-12 * sw_ * swkk + 1e-300;
    swky_ = scope.MakeUninitializedSpan<double>(interior_);
  }

  // Edge weights are built chunk_ fits at a time; when the whole table fits
  // the budget there is one chunk and it stays valid for every Apply.
  chunk_ = std::min(left_, 4 * std::max<size_t>(1, kMaxEdgeWeights / (4 * span_)));
  edge_weights_ = scope.MakeUninitializedSpan<double>(4 * span_ * ((chunk_ + 3) / 4));
  for (size_t s = 0; s < 3; ++s) {
    left_sums_[s] = scope.MakeUninitializedSpan<double>(left_);
    right_sums_[s] = scope.MakeUninitializedSpan<double>(right_);
  }
  edge_swy_ = scope.MakeUninitializedSpan<double>(chunk_);
  edge_swxy_ = scope.MakeUninitializedSpan<double>(chunk_);
  // The constant sums come from the same dot kernel: with y = 1 it yields
  // (sw, swx) and with y = x it yields (swx, swxx), because w * 1 == w and
  // (w * x) * 1 == w * x exactly. Each is therefore the per-point fit's sum
  // bit for bit, in its own side's ascending-point order.
  const size_t lo = n - span_;
  const std::span<double> ones = scope.MakeUninitializedSpan<double>(span_);
  const std::span<double> left_x = scope.MakeUninitializedSpan<double>(span_);
  const std::span<double> right_x = scope.MakeUninitializedSpan<double>(span_);
  for (size_t t = 0; t < span_; ++t) {
    ones[t] = 1.0;
    left_x[t] = static_cast<double>(t);
    right_x[t] = static_cast<double>(lo + t);
  }
  for (size_t first = 0; first < left_; first += chunk_) {
    const size_t count = std::min(chunk_, left_ - first);
    const size_t right_count = first < right_ ? std::min(chunk_, right_ - first) : 0;
    const double* weights = edge_weights_.data();
    kernels.loess_edge_weights(span_, first, count, edge_weights_.data());
    kernels.loess_edge_dot(weights, span_, count, /*mirrored=*/false, ones.data(), 0,
                           left_sums_[0].data() + first, left_sums_[1].data() + first);
    kernels.loess_edge_dot(weights, span_, count, /*mirrored=*/false, left_x.data(), 0,
                           edge_swy_.data(), left_sums_[2].data() + first);
    kernels.loess_edge_dot(weights, span_, right_count, /*mirrored=*/true, ones.data(), lo,
                           right_sums_[0].data() + first, right_sums_[1].data() + first);
    kernels.loess_edge_dot(weights, span_, right_count, /*mirrored=*/true, right_x.data(), lo,
                           edge_swy_.data(), right_sums_[2].data() + first);
  }
}

void LoessPlan::Apply(std::span<const double> values, std::span<double> out) {
  FBD_CHECK(values.size() == n_ && out.size() == n_);
  if (n_ < 2) {
    if (n_ == 1) {
      out[0] = values[0];
    }
    return;
  }
  const simd::Kernels& kernels = simd::Active();
  if (interior_ > 0) {
    const size_t first = span_ / 2;
    const std::span<double> swy = out.subspan(first, interior_);
    kernels.loess_dot2(values.data(), interior_, kernel_.data(), kernel_k_.data(), span_,
                       swy.data(), swky_.data());
    for (size_t o = 0; o < interior_; ++o) {
      if (degenerate_) {
        swy[o] = sw_ > 0.0 ? swy[o] / sw_ : values[first + o];
      } else {
        const double slope = (sw_ * swky_[o] - swk_ * swy[o]) / denom_;
        swy[o] = (swy[o] - slope * swk_) / sw_;
      }
    }
  }
  const size_t lo = n_ - span_;
  for (size_t first = 0; first < left_; first += chunk_) {
    const size_t count = std::min(chunk_, left_ - first);
    const size_t right_count = first < right_ ? std::min(chunk_, right_ - first) : 0;
    if (chunk_ < left_) {
      kernels.loess_edge_weights(span_, first, count, edge_weights_.data());
    }
    kernels.loess_edge_dot(edge_weights_.data(), span_, count, /*mirrored=*/false,
                           values.data(), 0, edge_swy_.data(), edge_swxy_.data());
    for (size_t o = 0; o < count; ++o) {
      const size_t i = first + o;
      const double sums[5] = {left_sums_[0][i], left_sums_[1][i], edge_swy_[o],
                              left_sums_[2][i], edge_swxy_[o]};
      out[i] = FinishFit(sums, static_cast<double>(i), values[i]);
    }
    kernels.loess_edge_dot(edge_weights_.data(), span_, right_count, /*mirrored=*/true,
                           values.data() + lo, lo, edge_swy_.data(), edge_swxy_.data());
    for (size_t o = 0; o < right_count; ++o) {
      const size_t r = first + o;
      const size_t i = n_ - 1 - r;
      const double sums[5] = {right_sums_[0][r], right_sums_[1][r], edge_swy_[o],
                              right_sums_[2][r], edge_swxy_[o]};
      out[i] = FinishFit(sums, static_cast<double>(i), values[i]);
    }
  }
}

void LoessSmoothInto(std::span<const double> values, size_t span,
                     std::span<const double> robustness, std::span<double> out) {
  const size_t n = values.size();
  FBD_CHECK(out.size() == n);
  FBD_CHECK(robustness.empty() || robustness.size() == n);
  if (robustness.empty()) {
    ArenaScope scope(Arena::ThreadLocal());
    LoessPlan(n, span, scope).Apply(values, out);
    return;
  }
  if (n == 0) {
    return;
  }
  if (n == 1) {
    out[0] = values[0];
    return;
  }
  span = std::clamp<size_t>(span, 2, n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = RobustFitAt(values, robustness, span, i);
  }
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
