#include "src/tsa/loess.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/common/rounding.h"
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

// FinishFit for fixed constant sums, as a linear map of the two y-dependent
// sums: out = cy * swy + cxy * swxy, or out = y_i when `identity`.
struct FitMap {
  bool identity = false;
  bool degenerate = false;
  double denom = 0.0;
  double lever = 0.0;  // x_i - swx / sw: d out / d slope.
  double cy = 0.0;
  double cxy = 0.0;
};

FitMap EdgeFitMap(const double* sums, double x_i) {
  const double sw = sums[0];
  const double swx = sums[1];
  const double swxx = sums[2];
  FitMap map;
  if (sw <= 0.0) {
    map.identity = true;
    return map;
  }
  map.denom = sw * swxx - swx * swx;
  if (std::fabs(map.denom) < 1e-12 * sw * swxx + 1e-300) {
    map.degenerate = true;
    map.cy = 1.0 / sw;
    return map;
  }
  // out = slope * x_i + (swy - slope * swx) / sw with
  // slope = (sw * swxy - swx * swy) / denom.
  map.lever = x_i - swx / sw;
  map.cy = 1.0 / sw - map.lever * (swx / map.denom);
  map.cxy = map.lever * (sw / map.denom);
  return map;
}

// The interior fit as a linear map of its two window sums,
// smoothed = swy * ca + swky * cb, returned as {ca, cb}. Not for a degenerate
// kernel with sw <= 0, whose output is the input point.
std::pair<double, double> InteriorMap(bool degenerate, double sw, double swk, double denom) {
  if (degenerate) {
    return {1.0 / sw, 0.0};
  }
  return {1.0 / sw + (swk / sw) * (swk / denom), -(swk / denom)};
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

template <typename Fn>
void LoessPlan::ForEachEdgeFit(Fn fn) {
  const size_t lo = n_ - span_;
  for (size_t first = 0; first < left_; first += chunk_) {
    const size_t count = std::min(chunk_, left_ - first);
    const size_t right_count = first < right_ ? std::min(chunk_, right_ - first) : 0;
    if (chunk_ < left_) {
      simd::Active().loess_edge_weights(span_, first, count, edge_weights_.data());
    }
    for (size_t o = 0; o < count; ++o) {
      const double* column = edge_weights_.data() + 4 * span_ * (o / 4) + o % 4;
      const size_t i = first + o;
      const double sums[3] = {left_sums_[0][i], left_sums_[1][i], left_sums_[2][i]};
      fn(i, size_t{0}, [column](size_t t) { return column[4 * t]; }, sums);
    }
    for (size_t o = 0; o < right_count; ++o) {
      const double* column = edge_weights_.data() + 4 * span_ * (o / 4) + o % 4;
      const size_t r = first + o;
      const double sums[3] = {right_sums_[0][r], right_sums_[1][r], right_sums_[2][r]};
      const size_t last = span_ - 1;
      fn(n_ - 1 - r, lo, [column, last](size_t t) { return column[4 * (last - t)]; }, sums);
    }
  }
}

void LoessPlan::ApplyTranspose(std::span<const double> values, std::span<double> out) {
  constexpr size_t kLanes = kTransposeLanes;
  FBD_CHECK(values.size() == n_ * kLanes && out.size() == n_ * kLanes);
  std::fill(out.begin(), out.end(), 0.0);
  if (n_ < 2) {
    std::copy(values.begin(), values.end(), out.begin());
    return;
  }
  if (interior_ > 0) {
    // Output first + o reads values[o, o + span) with the coefficients
    // h[k] = kernel[k] * ca + kernel_k[k] * cb (smoothed = swy * ca + swky * cb),
    // so point j collects h[j - o] * g[first + o] over the windows holding it.
    const size_t first = span_ / 2;
    if (degenerate_ && sw_ <= 0.0) {
      std::copy_n(values.begin() + static_cast<ptrdiff_t>(first * kLanes), interior_ * kLanes,
                  out.begin() + static_cast<ptrdiff_t>(first * kLanes));
    } else {
      const auto [ca, cb] = InteriorMap(degenerate_, sw_, swk_, denom_);
      ArenaScope scope(Arena::ThreadLocal());
      const std::span<double> h = scope.MakeUninitializedSpan<double>(span_);
      for (size_t k = 0; k < span_; ++k) {
        h[k] = kernel_[k] * ca + kernel_k_[k] * cb;
      }
      const double* g = values.data() + first * kLanes;
      for (size_t j = 0; j < n_; ++j) {
        const size_t o_begin = j + 1 >= span_ ? j + 1 - span_ : 0;
        const size_t o_end = std::min(j + 1, interior_);
        double sum[kLanes] = {};
        for (size_t o = o_begin; o < o_end; ++o) {
          const double c = h[j - o];
          for (size_t l = 0; l < kLanes; ++l) {
            sum[l] += c * g[o * kLanes + l];
          }
        }
        for (size_t l = 0; l < kLanes; ++l) {
          out[j * kLanes + l] = sum[l];
        }
      }
    }
  }
  ForEachEdgeFit([&](size_t i, size_t lo, auto weight, const double* sums) {
    const FitMap map = EdgeFitMap(sums, static_cast<double>(i));
    const double* g = values.data() + i * kLanes;
    if (map.identity) {
      for (size_t l = 0; l < kLanes; ++l) {
        out[i * kLanes + l] += g[l];
      }
      return;
    }
    for (size_t t = 0; t < span_; ++t) {
      const double w = weight(t);
      if (w <= 0.0) {
        continue;  // Apply skips the term.
      }
      const double c = w * map.cy + (w * static_cast<double>(lo + t)) * map.cxy;
      double* target = out.data() + (lo + t) * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        target[l] += c * g[l];
      }
    }
  });
}

LoessPlan::Bounds LoessPlan::ComputeBounds() {
  Bounds bounds;
  if (n_ < 2) {
    bounds.norm = n_ == 1 ? 1.0 : 0.0;
    return bounds;
  }
  // Every path from an input to an output takes at most K roundings: in
  // Apply, the window dot products (span products and adds, plus w * x) and
  // at most 9 operations in FinishFit; in ApplyTranspose, at most 8 to form
  // a fit's scattered term and one add per fit reading the point (at most
  // 2 * span fits: every edge fit of one side and every interior window).
  const size_t depth = 2 * span_ + 16;
  const double gamma = RoundingGamma(depth);
  const double u = kUnitRoundoff;
  // One row: its rounding bound, and an upper bound on its true absolute
  // sum from the computed coefficients (each within the transposed rounding
  // of the exact one).
  auto add_row = [&](double rounding, double coefficient_sum) {
    bounds.rounding = std::max(bounds.rounding, rounding);
    bounds.norm = std::max(bounds.norm, coefficient_sum * (1.0 + gamma) + rounding);
  };
  if (interior_ > 0) {
    if (degenerate_ && sw_ <= 0.0) {
      add_row(gamma, 1.0);
    } else {
      // The interior kernel is centered, so its absolute-value program (every
      // constant by its magnitude, every subtraction an addition) stays near
      // 1 and bounds both directions: gamma(K) times its row sum.
      const auto [ca, cb] = InteriorMap(degenerate_, sw_, swk_, denom_);
      const auto [abs_ca, minus_abs_cb] =
          InteriorMap(degenerate_, sw_, std::fabs(swk_), std::fabs(denom_));
      const double abs_cb = -minus_abs_cb;
      double sum_w = 0.0;
      double sum_abs_wk = 0.0;
      double coefficient_sum = 0.0;
      for (size_t k = 0; k < span_; ++k) {
        sum_w += kernel_[k];
        sum_abs_wk += std::fabs(kernel_k_[k]);
        coefficient_sum += std::fabs(kernel_[k] * ca + kernel_k_[k] * cb);
      }
      add_row(gamma * (abs_ca * sum_w + abs_cb * sum_abs_wk), coefficient_sum);
    }
  }
  ForEachEdgeFit([&](size_t i, size_t lo, auto weight, const double* sums) {
    const FitMap map = EdgeFitMap(sums, static_cast<double>(i));
    if (map.identity) {
      add_row(gamma, 1.0);
      return;
    }
    const double sw = sums[0];
    const double swx = sums[1];
    const double mean_x = swx / sw;
    double sum_w = 0.0;        // Sw: sum of w.
    double sum_wx = 0.0;       // Swx: sum of w * x (x >= 0).
    double sum_spread = 0.0;   // Sum of w * |sw * x - swx|: bounds |slope numerator|.
    double coefficient_sum = 0.0;
    for (size_t t = 0; t < span_; ++t) {
      const double w = weight(t);
      if (w <= 0.0) {
        continue;
      }
      const double x = static_cast<double>(lo + t);
      const double wx = w * x;
      sum_w += w;
      sum_wx += wx;
      sum_spread += w * std::fabs(sw * x - swx);
      coefficient_sum += std::fabs(w * map.cy + wx * map.cxy);
    }
    if (map.degenerate) {
      add_row(gamma * sum_w / sw, coefficient_sum);
      return;
    }
    // DESIGN §13, edge fits. Per unit max|y|: the slope's numerator errs by
    // at most gamma * (sw * Swx + |swx| * Sw) + u * |numerator|, so the
    // computed slope is within `slope_error` of the exact one, and that
    // error reaches the output times the lever |x_i - mean_x|. The remaining
    // roundings are relative to |slope| * (x_i + mean_x) and Sw / sw. The
    // transposed coefficients err through the computed lever (off by at most
    // gamma * (x_i + mean_x)) and the same magnitudes.
    const double x_i = static_cast<double>(i);
    const double abs_denom = std::fabs(map.denom);
    const double far = x_i + std::fabs(mean_x);
    const double lever = std::fabs(map.lever) + gamma * far;
    const double slope_error =
        (gamma * (sw * sum_wx + std::fabs(swx) * sum_w) + 2.0 * u * sum_spread) / abs_denom;
    const double slope = sum_spread / abs_denom + slope_error;
    const double forward = slope_error * lever + 2.0 * gamma * (sum_w / sw + slope * far);
    const double transposed =
        gamma * far * sum_spread / abs_denom +
        gamma * (sum_w / sw + lever * (std::fabs(swx) * sum_w + sw * sum_wx) / abs_denom);
    add_row(std::max(forward, transposed), coefficient_sum);
  });
  return bounds;
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
