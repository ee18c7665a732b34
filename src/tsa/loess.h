// Loess (locally weighted linear regression) smoother — the building block of
// STL (§5.2.3). Tricube kernel over a sliding neighborhood of `span` points,
// degree-1 local fits, evaluated at every index.
#ifndef FBDETECT_SRC_TSA_LOESS_H_
#define FBDETECT_SRC_TSA_LOESS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/arena.h"

namespace fbdetect {

// Unweighted loess for one series length `n` and span (clamped to [2, n] as
// LoessSmooth clamps it), prepared once and applied to any number of series
// of that length. Everything that does not depend on the values is built
// here: the interior kernel and its sums, and the clamped edge fits' tricube
// weights with their constant sums (sw, swx, swxx). The right edge's weights
// are the mirror of the left edge's (right fit n-1-i at point n-1-j has the
// same distance and half-width as left fit i at point j), so one table serves
// both sides. Apply then costs two dot products per output. Past span 724
// the weight table would exceed 2 MiB; such plans keep the constant sums but
// rebuild the weights a chunk of fits at a time in every Apply.
//
// Storage comes from `scope`; the plan must not outlive it. Results are bit
// for bit those of LoessSmooth.
//
// Apply is linear: its branches test only the plan's constants, never the
// values, so in exact arithmetic it computes out = H * values for a fixed
// n x n matrix H of the plan's stored weights and sums. ApplyTranspose and
// ComputeBounds serve the long-term screen's adjoint (DESIGN §13); both are
// plain scalar code.
class LoessPlan {
 public:
  // What the rounding analysis of DESIGN §13 needs to know about H.
  struct Bounds {
    // Upper bound on the largest absolute row sum of H (its infinity norm,
    // and the 1-norm of its transpose).
    double norm = 0.0;
    // Each output of Apply is within rounding * max|values| of H * values,
    // and ApplyTranspose's outputs are within rounding * sum|values| of
    // H^T * values in sum of absolute differences.
    double rounding = 0.0;
  };

  LoessPlan(size_t n, size_t span, ArenaScope& scope);

  // Smooths `values` (size n) into `out` (size n, must not alias `values`).
  void Apply(std::span<const double> values, std::span<double> out);

  // ApplyTranspose works on this many vectors at once, interleaved point by
  // point: lane l of point i at kTransposeLanes * i + l.
  static constexpr size_t kTransposeLanes = 4;

  // out = H^T * values for each lane (kTransposeLanes * n values each, no
  // aliasing): every output's coefficients, formed once for all lanes and
  // applied to the points its fit reads. Each lane gets exactly the
  // operations a single vector would.
  void ApplyTranspose(std::span<const double> values, std::span<double> out);

  // H's bounds, from the plan's constants: O(span^2) for the edge fits.
  Bounds ComputeBounds();

 private:
  // Calls fn(i, lo, weight(t), sums) for every clamped edge fit: output i
  // fits the window [lo, lo + span) with weight(t) for point lo + t and the
  // constant sums {sw, swx, swxx}. Rebuilds chunked weights as Apply does.
  template <typename Fn>
  void ForEachEdgeFit(Fn fn);

  size_t n_ = 0;
  size_t span_ = 0;
  size_t interior_ = 0;  // Outputs [span/2, span/2 + interior_) use the kernel.
  size_t left_ = 0;      // Outputs [0, left_) fit the window [0, span).
  size_t right_ = 0;     // Outputs [n - right_, n) fit the window [n - span, n).
  // Interior kernel: weights, weights times the centered offset, and sums.
  std::span<double> kernel_;
  std::span<double> kernel_k_;
  double sw_ = 0.0;
  double swk_ = 0.0;
  double denom_ = 0.0;
  bool degenerate_ = false;
  // Tricube weights of left-edge fits [first, first + chunk_) in
  // simd::Kernels::loess_edge_weights layout; chunk_ == left_ unless the
  // table is over budget.
  size_t chunk_ = 0;
  std::span<double> edge_weights_;
  // Constant sums per edge fit: sw, swx, swxx for the left fits in output
  // order, and for the right fits by mirror index (right fit r is output
  // n-1-r).
  std::span<double> left_sums_[3];
  std::span<double> right_sums_[3];
  // Per-Apply scratch: the interior's second dot product, then one chunk's
  // edge swy and swxy.
  std::span<double> swky_;
  std::span<double> edge_swy_;
  std::span<double> edge_swxy_;
};

// Smooths `values` with a loess window of `span` points (clamped to
// [2, n]). Returns a series of the same length. An empty input returns an
// empty vector.
std::vector<double> LoessSmooth(std::span<const double> values, size_t span);

// Loess evaluated with optional per-point robustness weights (used by STL's
// outer loop). `robustness` must be empty or the same length as `values`.
std::vector<double> LoessSmoothWeighted(std::span<const double> values, size_t span,
                                        std::span<const double> robustness);

// LoessSmoothWeighted writing into `out` (out.size() == values.size(); must
// not alias `values`). Unweighted fits build and apply a LoessPlan in the
// calling thread's Arena.
void LoessSmoothInto(std::span<const double> values, size_t span,
                     std::span<const double> robustness, std::span<double> out);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_LOESS_H_
