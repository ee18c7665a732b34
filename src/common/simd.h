// Runtime-dispatched SIMD kernels for the scan/funnel hot loops.
//
// Four loops dominate the single-core scan cost (see DESIGN.md §13): Gorilla
// chunk decode, Pearson sum/moment accumulation, SOM best-matching-unit
// distance, and the sanitizer's value-classification/grid passes; loess
// dominates the long-term path's STL. Each gets a kernel here with three
// implementations selected once at startup:
//
//   * scalar  — the semantic oracle. Every other implementation must produce
//               byte-identical output (tests/simd_kernels_test.cc enforces
//               this property on random + adversarial inputs).
//   * AVX2    — x86-64; compiled in simd_avx2.cc with -mavx2 and selected
//               only when the CPU reports the feature at runtime.
//   * NEON    — aarch64; compile-time feature (baseline on AArch64).
//
// Determinism across instruction sets is by construction, not by tolerance:
// every floating-point kernel has ONE defined reduction order which all
// implementations reproduce exactly. One carve-out: when a reduction is
// NaN-poisoned, only NaN-ness is defined, not the payload or sign bit —
// IEEE addition is bit-commutative except for which operand's NaN payload
// survives, and the compiler may commute the scalar oracle's adds. Every
// consumer observes NaN only through isfinite()/ordered comparisons, so the
// carve-out is unobservable in detection results.
//
//   * sum_pair / centered_moments accumulate into 4 virtual lanes (element i
//     goes to lane i % 4) combined as (l0 + l1) + (l2 + l3). The scalar
//     implementation keeps 4 explicit accumulators; AVX2 maps the lanes onto
//     one 4 x f64 vector. No FMA anywhere — fused multiply-adds round once
//     where mul+add rounds twice, so a fused kernel could never be
//     bit-identical with a non-FMA fallback (the build also pins
//     -ffp-contract=off so the compiler cannot fuse the scalar oracle).
//   * squared_distances keeps each cell's accumulation in ascending
//     dimension order — the historical serial order — and vectorizes ACROSS
//     cells (lane = cell) instead of across dimensions.
//   * The loess kernels (loess_dot2, loess_edge_weights, loess_edge_dot)
//     likewise keep each output's historical serial order over the window
//     (k = 0..span-1) and vectorize ACROSS outputs (lane = output):
//     neighbouring outputs read neighbouring windows, so lane o at step k is
//     one unaligned load away from lane o + 1, and the edge fits' weights are
//     stored four fits to a row so one load feeds four lanes. Terms
//     an edge fit skips (w <= 0) are excluded by a select that keeps the old
//     sums, never by adding a zero weight, because 0 * Inf is NaN where the
//     skipped term added nothing.
//   * fft_butterflies is elementwise: every output is one butterfly with
//     the scalar expression's operations in the scalar order, so lanes need
//     no reduction contract at all.
//   * The integer kernels (prefix sums, gap scan, classification counts) are
//     exact in any association and need no ordering contract.
//
// Dispatch: Active() picks the best table the CPU supports, unless the
// environment variable FBD_DISABLE_SIMD is set to a non-empty value other
// than "0", which forces the scalar table (the CI forced-scalar leg).
#ifndef FBDETECT_SRC_COMMON_SIMD_H_
#define FBDETECT_SRC_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace fbdetect {
namespace simd {

enum class Isa {
  kScalar,
  kAvx2,
  kNeon,
};

const char* IsaName(Isa isa);

// Kernel function table. All pointers are non-null in every table.
struct Kernels {
  // Lane-striped sums of x[0..n) and y[0..n) (reduction order documented
  // above). Either pointer may alias; n == 0 yields 0.0 sums.
  void (*sum_pair)(const double* x, const double* y, size_t n, double* sum_x,
                   double* sum_y);

  // Lane-striped centered second moments around (mean_x, mean_y):
  // sxy = sum (x-mx)(y-my), sxx = sum (x-mx)^2, syy = sum (y-my)^2.
  void (*centered_moments)(const double* x, const double* y, size_t n, double mean_x,
                           double mean_y, double* sxy, double* sxx, double* syy);

  // For each cell c in [0, cells): out_d2[c] = sum over d of
  // (weights[c*dims + d] - item[d])^2, accumulated in ascending d order
  // (bit-exact with the historical serial SOM distance).
  void (*squared_distances)(const double* weights, size_t cells, size_t dims,
                            const double* item, double* out_d2);

  // Counts values that are not finite, and values that are finite and
  // strictly negative (the sanitizer applies the negative count only to
  // non-negative metric kinds). Exact integer semantics.
  void (*classify_values)(const double* values, size_t n, uint64_t* non_finite,
                          uint64_t* negative);

  // Smallest strictly positive gap timestamps[i] - timestamps[i-1], or 0
  // when none exists (n < 2 or no positive gap). The sanitizer's grid
  // inference.
  int64_t (*min_positive_gap)(const int64_t* timestamps, size_t n);

  // Inclusive prefix sum with wrap-around (two's-complement) semantics:
  // out[i] = seed + in[0] + ... + in[i]. In-place (out == in) is allowed.
  // Gorilla decode applies this twice: delta-of-deltas -> deltas -> stamps.
  void (*prefix_sum_i64)(const int64_t* in, size_t n, int64_t seed, int64_t* out);

  // Inclusive prefix XOR re-interpreted as doubles:
  // bits_i = seed ^ in[0] ^ ... ^ in[i]; out[i] = bit_cast<double>(bits_i).
  // Gorilla value decode.
  void (*prefix_xor_to_doubles)(const uint64_t* in, size_t n, uint64_t seed,
                                double* out);

  // Loess's unweighted interior: two sliding dot products with a fixed
  // kernel pair. For each output o in [0, count):
  //   out_a[o] = sum_k a[k] * x[o + k],  out_b[o] = sum_k b[k] * x[o + k],
  // over k = 0..taps-1 in ascending order, each sum starting from +0.0, one
  // rounded multiply and one rounded add per term. x holds count + taps - 1
  // values.
  void (*loess_dot2)(const double* x, size_t count, const double* a, const double* b,
                     size_t taps, double* out_a, double* out_b);

  // Tricube weights of loess's clamped left-edge fits first..first+count-1
  // (first + count <= span) over the window [0, span). Fit c is centered at c
  // with half-width m = max(c, span - 1 - c); point j gets
  // w = m > 0 ? tricube(|j - c| / (m + 1)) : 1, tricube as the historical
  // per-point fit computes it. Fits are stored in blocks of four, one row per
  // point: fit first + o at weights[4 * span * (o / 4) + 4 * j + o % 4]; the
  // lanes of the last block past `count` are 0. weights holds
  // 4 * span * ceil(count / 4) doubles.
  void (*loess_edge_weights)(size_t span, size_t first, size_t count, double* weights);

  // The y-dependent sums of `count` edge fits whose weights are laid out as
  // loess_edge_weights writes them, over the window y[0..span) at positions
  // x_t = lo + t. For fit o, with w_t its weight in row t (row span - 1 - t
  // when `mirrored`):
  //   swy[o] = sum_t w_t * y[t],  swxy[o] = sum_t (w_t * x_t) * y[t],
  // over t = 0..span-1 in ascending order, each from +0.0, skipping every
  // term with w_t <= 0 — the historical per-point fit's order.
  void (*loess_edge_dot)(const double* weights, size_t span, size_t count, bool mirrored,
                         const double* y, size_t lo, double* swy, double* swxy);

  // One radix-2 FFT stage over split re/im arrays of length n (a power of
  // two): for every block i = 0, 2h, 4h, ... and k in [0, h), with a/b the
  // odd element re/im [i + h + k] and e the even one [i + k],
  //   t = (a * wr[k] - b * wi[k], a * wi[k] + b * wr[k]),
  //   even = e + t, odd = e - t.
  void (*fft_butterflies)(double* re, double* im, size_t n, size_t half, const double* wr,
                          const double* wi);
};

// The scalar oracle table.
const Kernels& Scalar();

// Best table this CPU supports, ignoring FBD_DISABLE_SIMD (property tests
// compare this against Scalar() regardless of the environment).
const Kernels& BestAvailable();
Isa BestAvailableIsa();

// The dispatch result honoring FBD_DISABLE_SIMD, resolved once per process.
const Kernels& Active();
Isa ActiveIsa();

namespace internal {
// Defined in simd_avx2.cc (x86-64 only; null elsewhere). The caller is
// responsible for the runtime CPU feature check.
const Kernels* Avx2Kernels();
}  // namespace internal

}  // namespace simd
}  // namespace fbdetect

#endif  // FBDETECT_SRC_COMMON_SIMD_H_
