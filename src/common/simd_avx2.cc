// AVX2 implementations of the simd.h kernel table. This translation unit is
// the only one compiled with -mavx2 (set per-file in CMake), so AVX2 code
// never leaks into a binary that must run on older cores; Avx2Kernels()
// additionally gates on the runtime CPUID check before exposing the table.
//
// Every kernel reproduces the scalar oracle's result bit for bit: the FP
// reductions map the contract's 4 virtual lanes onto one 4 x f64 vector (and
// combine (l0 + l1) + (l2 + l3)), the SOM distance vectorizes across cells
// via 4x4 transposes so each cell keeps its serial per-dimension order, and
// the integer kernels are exact in any association. No FMA: _mm256_add_pd of
// _mm256_mul_pd rounds exactly like scalar mul+add, fused ops do not.
#include "src/common/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace fbdetect {
namespace simd {
namespace {

void Avx2SumPair(const double* x, const double* y, size_t n, double* sum_x,
                 double* sum_y) {
  __m256d ax = _mm256_setzero_pd();
  __m256d ay = _mm256_setzero_pd();
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    ax = _mm256_add_pd(ax, _mm256_loadu_pd(x + i));
    ay = _mm256_add_pd(ay, _mm256_loadu_pd(y + i));
  }
  alignas(32) double lx[4];
  alignas(32) double ly[4];
  _mm256_store_pd(lx, ax);
  _mm256_store_pd(ly, ay);
  for (size_t i = n4; i < n; ++i) {
    lx[i % 4] += x[i];
    ly[i % 4] += y[i];
  }
  *sum_x = (lx[0] + lx[1]) + (lx[2] + lx[3]);
  *sum_y = (ly[0] + ly[1]) + (ly[2] + ly[3]);
}

void Avx2CenteredMoments(const double* x, const double* y, size_t n, double mean_x,
                         double mean_y, double* sxy, double* sxx, double* syy) {
  const __m256d mx = _mm256_set1_pd(mean_x);
  const __m256d my = _mm256_set1_pd(mean_y);
  __m256d axy = _mm256_setzero_pd();
  __m256d axx = _mm256_setzero_pd();
  __m256d ayy = _mm256_setzero_pd();
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(x + i), mx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(y + i), my);
    axy = _mm256_add_pd(axy, _mm256_mul_pd(dx, dy));
    axx = _mm256_add_pd(axx, _mm256_mul_pd(dx, dx));
    ayy = _mm256_add_pd(ayy, _mm256_mul_pd(dy, dy));
  }
  alignas(32) double lxy[4];
  alignas(32) double lxx[4];
  alignas(32) double lyy[4];
  _mm256_store_pd(lxy, axy);
  _mm256_store_pd(lxx, axx);
  _mm256_store_pd(lyy, ayy);
  for (size_t i = n4; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    const size_t lane = i % 4;
    lxy[lane] += dx * dy;
    lxx[lane] += dx * dx;
    lyy[lane] += dy * dy;
  }
  *sxy = (lxy[0] + lxy[1]) + (lxy[2] + lxy[3]);
  *sxx = (lxx[0] + lxx[1]) + (lxx[2] + lxx[3]);
  *syy = (lyy[0] + lyy[1]) + (lyy[2] + lyy[3]);
}

void Avx2SquaredDistances(const double* weights, size_t cells, size_t dims,
                          const double* item, double* out_d2) {
  const size_t cells4 = cells & ~size_t{3};
  const size_t dims4 = dims & ~size_t{3};
  for (size_t c = 0; c < cells4; c += 4) {
    const double* r0 = weights + (c + 0) * dims;
    const double* r1 = weights + (c + 1) * dims;
    const double* r2 = weights + (c + 2) * dims;
    const double* r3 = weights + (c + 3) * dims;
    __m256d acc = _mm256_setzero_pd();
    for (size_t d = 0; d < dims4; d += 4) {
      // Transpose a 4x4 block so vector lane k holds cell c+k: the
      // accumulation per lane then visits dimensions in the same ascending
      // order as the serial distance, keeping the result bit-exact.
      const __m256d a = _mm256_loadu_pd(r0 + d);
      const __m256d b = _mm256_loadu_pd(r1 + d);
      const __m256d cc = _mm256_loadu_pd(r2 + d);
      const __m256d dd = _mm256_loadu_pd(r3 + d);
      const __m256d t0 = _mm256_unpacklo_pd(a, b);    // a0 b0 a2 b2
      const __m256d t1 = _mm256_unpackhi_pd(a, b);    // a1 b1 a3 b3
      const __m256d t2 = _mm256_unpacklo_pd(cc, dd);  // c0 d0 c2 d2
      const __m256d t3 = _mm256_unpackhi_pd(cc, dd);  // c1 d1 c3 d3
      const __m256d col0 = _mm256_permute2f128_pd(t0, t2, 0x20);
      const __m256d col1 = _mm256_permute2f128_pd(t1, t3, 0x20);
      const __m256d col2 = _mm256_permute2f128_pd(t0, t2, 0x31);
      const __m256d col3 = _mm256_permute2f128_pd(t1, t3, 0x31);
      __m256d diff = _mm256_sub_pd(col0, _mm256_set1_pd(item[d + 0]));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
      diff = _mm256_sub_pd(col1, _mm256_set1_pd(item[d + 1]));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
      diff = _mm256_sub_pd(col2, _mm256_set1_pd(item[d + 2]));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
      diff = _mm256_sub_pd(col3, _mm256_set1_pd(item[d + 3]));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
    alignas(32) double d2[4];
    _mm256_store_pd(d2, acc);
    for (size_t d = dims4; d < dims; ++d) {
      const double v = item[d];
      double diff = r0[d] - v;
      d2[0] += diff * diff;
      diff = r1[d] - v;
      d2[1] += diff * diff;
      diff = r2[d] - v;
      d2[2] += diff * diff;
      diff = r3[d] - v;
      d2[3] += diff * diff;
    }
    _mm256_storeu_pd(out_d2 + c, _mm256_load_pd(d2));
  }
  for (size_t c = cells4; c < cells; ++c) {
    const double* row = weights + c * dims;
    double d2 = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      const double diff = row[d] - item[d];
      d2 += diff * diff;
    }
    out_d2[c] = d2;
  }
}

void Avx2ClassifyValues(const double* values, size_t n, uint64_t* non_finite,
                        uint64_t* negative) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d inf = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7ff0000000000000LL));
  uint64_t nf = 0;
  uint64_t neg = 0;
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    // Non-finite = NaN (unordered with itself) or +/-Inf (|v| == Inf).
    const __m256d unordered = _mm256_cmp_pd(v, v, _CMP_UNORD_Q);
    const __m256d is_inf =
        _mm256_cmp_pd(_mm256_and_pd(v, abs_mask), inf, _CMP_EQ_OQ);
    const __m256d nf_mask = _mm256_or_pd(unordered, is_inf);
    // LT_OQ is false for NaN, and -Inf is masked out below, matching the
    // scalar else-if (negatives are only counted among finite values).
    const __m256d lt = _mm256_cmp_pd(v, zero, _CMP_LT_OQ);
    const __m256d neg_mask = _mm256_andnot_pd(nf_mask, lt);
    nf += static_cast<uint64_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(nf_mask))));
    neg += static_cast<uint64_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(neg_mask))));
  }
  for (size_t i = n4; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      ++nf;
    } else if (values[i] < 0.0) {
      ++neg;
    }
  }
  *non_finite = nf;
  *negative = neg;
}

int64_t Avx2MinPositiveGap(const int64_t* timestamps, size_t n) {
  if (n < 2) {
    return 0;
  }
  int64_t best = 0;
  const __m256i zero = _mm256_setzero_si256();
  __m256i vbest = _mm256_set1_epi64x(0);
  __m256i vhave = _mm256_setzero_si256();  // Per-lane "best is valid" flag.
  size_t i = 1;
  for (; i + 3 < n; i += 4) {
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(timestamps + i));
    const __m256i prev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(timestamps + i - 1));
    const __m256i gap = _mm256_sub_epi64(cur, prev);
    const __m256i positive = _mm256_cmpgt_epi64(gap, zero);
    // Adopt `gap` where it is positive AND (no best yet OR gap < best).
    const __m256i smaller = _mm256_cmpgt_epi64(vbest, gap);
    const __m256i no_best = _mm256_andnot_si256(vhave, positive);
    const __m256i adopt =
        _mm256_and_si256(positive, _mm256_or_si256(smaller, no_best));
    vbest = _mm256_blendv_epi8(vbest, gap, adopt);
    vhave = _mm256_or_si256(vhave, adopt);
  }
  alignas(32) int64_t lanes[4];
  alignas(32) int64_t have[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vbest);
  _mm256_store_si256(reinterpret_cast<__m256i*>(have), vhave);
  for (int lane = 0; lane < 4; ++lane) {
    if (have[lane] != 0 && (best == 0 || lanes[lane] < best)) {
      best = lanes[lane];
    }
  }
  for (; i < n; ++i) {
    const int64_t gap = timestamps[i] - timestamps[i - 1];
    if (gap > 0 && (best == 0 || gap < best)) {
      best = gap;
    }
  }
  return best;
}

// Eight outputs per pass (two vectors per sum, four independent add chains),
// then four, then the scalar oracle for the rest. Lane o at step k loads
// x[o + k]: the windows of neighbouring outputs are one element apart.
void Avx2LoessDot2(const double* x, size_t count, const double* a, const double* b,
                   size_t taps, double* out_a, double* out_b) {
  size_t o = 0;
  for (; o + 8 <= count; o += 8) {
    const double* window = x + o;
    __m256d sum_a0 = _mm256_setzero_pd();
    __m256d sum_a1 = _mm256_setzero_pd();
    __m256d sum_b0 = _mm256_setzero_pd();
    __m256d sum_b1 = _mm256_setzero_pd();
    for (size_t k = 0; k < taps; ++k) {
      const __m256d x0 = _mm256_loadu_pd(window + k);
      const __m256d x1 = _mm256_loadu_pd(window + k + 4);
      const __m256d ak = _mm256_set1_pd(a[k]);
      const __m256d bk = _mm256_set1_pd(b[k]);
      sum_a0 = _mm256_add_pd(sum_a0, _mm256_mul_pd(ak, x0));
      sum_a1 = _mm256_add_pd(sum_a1, _mm256_mul_pd(ak, x1));
      sum_b0 = _mm256_add_pd(sum_b0, _mm256_mul_pd(bk, x0));
      sum_b1 = _mm256_add_pd(sum_b1, _mm256_mul_pd(bk, x1));
    }
    _mm256_storeu_pd(out_a + o, sum_a0);
    _mm256_storeu_pd(out_a + o + 4, sum_a1);
    _mm256_storeu_pd(out_b + o, sum_b0);
    _mm256_storeu_pd(out_b + o + 4, sum_b1);
  }
  for (; o + 4 <= count; o += 4) {
    const double* window = x + o;
    __m256d sum_a = _mm256_setzero_pd();
    __m256d sum_b = _mm256_setzero_pd();
    for (size_t k = 0; k < taps; ++k) {
      const __m256d xk = _mm256_loadu_pd(window + k);
      sum_a = _mm256_add_pd(sum_a, _mm256_mul_pd(_mm256_set1_pd(a[k]), xk));
      sum_b = _mm256_add_pd(sum_b, _mm256_mul_pd(_mm256_set1_pd(b[k]), xk));
    }
    _mm256_storeu_pd(out_a + o, sum_a);
    _mm256_storeu_pd(out_b + o, sum_b);
  }
  if (o < count) {
    Scalar().loess_dot2(x + o, count - o, a, b, taps, out_a + o, out_b + o);
  }
}

// Four fits per vector, one per lane: every lane sees the same point j, and
// only the center differs. Blends reproduce the oracle's two ternaries and
// zero the lanes past `count`.
void Avx2LoessEdgeWeights(size_t span, size_t first, size_t count, double* weights) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  for (size_t o = 0; o < count; o += 4) {
    alignas(32) double lane_center[4];
    alignas(32) double lane_width[4];
    alignas(32) double lane_valid[4];
    for (size_t l = 0; l < 4; ++l) {
      const bool valid = o + l < count;
      const size_t c = first + o + l;
      lane_center[l] = static_cast<double>(c);
      lane_width[l] =
          valid ? std::max(static_cast<double>(c), static_cast<double>(span - 1 - c)) : 0.0;
      lane_valid[l] = valid ? 1.0 : 0.0;
    }
    const __m256d c = _mm256_load_pd(lane_center);
    const __m256d m = _mm256_load_pd(lane_width);
    const __m256d scale = _mm256_add_pd(m, one);
    const __m256d has_width = _mm256_cmp_pd(m, zero, _CMP_GT_OQ);
    const __m256d valid = _mm256_cmp_pd(_mm256_load_pd(lane_valid), zero, _CMP_GT_OQ);
    double* block = weights + 4 * span * (o / 4);
    __m256d x = zero;
    for (size_t j = 0; j < span; ++j) {
      const __m256d dist = _mm256_and_pd(_mm256_sub_pd(x, c), abs_mask);
      const __m256d u = _mm256_and_pd(_mm256_div_pd(dist, scale), abs_mask);
      const __m256d a = _mm256_sub_pd(one, _mm256_mul_pd(_mm256_mul_pd(u, u), u));
      __m256d w = _mm256_blendv_pd(_mm256_mul_pd(_mm256_mul_pd(a, a), a), zero,
                                   _mm256_cmp_pd(a, zero, _CMP_LE_OQ));
      w = _mm256_blendv_pd(one, w, has_width);
      _mm256_storeu_pd(block + 4 * j, _mm256_and_pd(w, valid));
      x = _mm256_add_pd(x, one);
    }
  }
}

// Two weight blocks (eight fits) per pass where possible, so four
// independent accumulator chains hide the add latency. x_t advances by an
// exact +1.0 (positions stay far below 2^53).
void Avx2LoessEdgeDot(const double* weights, size_t span, size_t count, bool mirrored,
                      const double* y, size_t lo, double* swy, double* swxy) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const size_t block_size = 4 * span;
  // Offset of row t within a block; unsigned wrap-around makes the mirrored
  // walk's last decrement harmless (the wrapped offset is never read).
  const size_t first_row = mirrored ? 4 * (span - 1) : 0;
  const size_t row_step = mirrored ? size_t{0} - 4 : 4;
  size_t o = 0;
  for (; o + 8 <= count; o += 8) {
    const double* block0 = weights + block_size * (o / 4);
    const double* block1 = block0 + block_size;
    __m256d x = _mm256_set1_pd(static_cast<double>(lo));
    __m256d sy0 = zero;
    __m256d sxy0 = zero;
    __m256d sy1 = zero;
    __m256d sxy1 = zero;
    size_t row = first_row;
    for (size_t t = 0; t < span; ++t, row += row_step) {
      const __m256d yt = _mm256_broadcast_sd(y + t);
      const __m256d w0 = _mm256_loadu_pd(block0 + row);
      const __m256d w1 = _mm256_loadu_pd(block1 + row);
      const __m256d skip0 = _mm256_cmp_pd(w0, zero, _CMP_LE_OQ);
      const __m256d skip1 = _mm256_cmp_pd(w1, zero, _CMP_LE_OQ);
      sy0 = _mm256_blendv_pd(_mm256_add_pd(sy0, _mm256_mul_pd(w0, yt)), sy0, skip0);
      sy1 = _mm256_blendv_pd(_mm256_add_pd(sy1, _mm256_mul_pd(w1, yt)), sy1, skip1);
      sxy0 = _mm256_blendv_pd(
          _mm256_add_pd(sxy0, _mm256_mul_pd(_mm256_mul_pd(w0, x), yt)), sxy0, skip0);
      sxy1 = _mm256_blendv_pd(
          _mm256_add_pd(sxy1, _mm256_mul_pd(_mm256_mul_pd(w1, x), yt)), sxy1, skip1);
      x = _mm256_add_pd(x, one);
    }
    _mm256_storeu_pd(swy + o, sy0);
    _mm256_storeu_pd(swy + o + 4, sy1);
    _mm256_storeu_pd(swxy + o, sxy0);
    _mm256_storeu_pd(swxy + o + 4, sxy1);
  }
  for (; o < count; o += 4) {
    const double* block = weights + block_size * (o / 4);
    __m256d x = _mm256_set1_pd(static_cast<double>(lo));
    __m256d sy = zero;
    __m256d sxy = zero;
    size_t row = first_row;
    for (size_t t = 0; t < span; ++t, row += row_step) {
      const __m256d yt = _mm256_broadcast_sd(y + t);
      const __m256d w = _mm256_loadu_pd(block + row);
      const __m256d skip = _mm256_cmp_pd(w, zero, _CMP_LE_OQ);
      sy = _mm256_blendv_pd(_mm256_add_pd(sy, _mm256_mul_pd(w, yt)), sy, skip);
      sxy = _mm256_blendv_pd(_mm256_add_pd(sxy, _mm256_mul_pd(_mm256_mul_pd(w, x), yt)), sxy,
                             skip);
      x = _mm256_add_pd(x, one);
    }
    alignas(32) double lanes_y[4];
    alignas(32) double lanes_xy[4];
    _mm256_store_pd(lanes_y, sy);
    _mm256_store_pd(lanes_xy, sxy);
    for (size_t l = 0; l < 4 && o + l < count; ++l) {
      swy[o + l] = lanes_y[l];
      swxy[o + l] = lanes_xy[l];
    }
  }
}

// Stages with half >= 4 (a multiple of four) run four butterflies per
// vector; the first two stages stay scalar.
void Avx2FftButterflies(double* re, double* im, size_t n, size_t half, const double* wr,
                        const double* wi) {
  if (half < 4) {
    Scalar().fft_butterflies(re, im, n, half, wr, wi);
    return;
  }
  for (size_t i = 0; i < n; i += 2 * half) {
    double* even_re = re + i;
    double* even_im = im + i;
    double* odd_re = re + i + half;
    double* odd_im = im + i + half;
    for (size_t k = 0; k < half; k += 4) {
      const __m256d a = _mm256_loadu_pd(odd_re + k);
      const __m256d b = _mm256_loadu_pd(odd_im + k);
      const __m256d c = _mm256_loadu_pd(wr + k);
      const __m256d d = _mm256_loadu_pd(wi + k);
      const __m256d t_re = _mm256_sub_pd(_mm256_mul_pd(a, c), _mm256_mul_pd(b, d));
      const __m256d t_im = _mm256_add_pd(_mm256_mul_pd(a, d), _mm256_mul_pd(b, c));
      const __m256d e_re = _mm256_loadu_pd(even_re + k);
      const __m256d e_im = _mm256_loadu_pd(even_im + k);
      _mm256_storeu_pd(even_re + k, _mm256_add_pd(e_re, t_re));
      _mm256_storeu_pd(even_im + k, _mm256_add_pd(e_im, t_im));
      _mm256_storeu_pd(odd_re + k, _mm256_sub_pd(e_re, t_re));
      _mm256_storeu_pd(odd_im + k, _mm256_sub_pd(e_im, t_im));
    }
  }
}

// No AVX2 prefix_sum_i64 / prefix_xor_to_doubles: an in-register 4 x i64
// scan (permute4x64 + blend to shift lanes, plus a broadcast carry between
// blocks) was measured at 0.3-0.5x the scalar loop on this path. The scalar
// chain retires one add/xor per cycle, while every cross-lane permute on the
// scan's critical path costs 3 cycles — for 64-bit elements the shuffles
// cannot be amortized. The table delegates both to the scalar oracle
// (bench_simd_kernels records the honest 1.0x).

}  // namespace

namespace internal {

const Kernels* Avx2Kernels() {
  static const Kernels kAvx2Kernels = {
      &Avx2SumPair,
      &Avx2CenteredMoments,
      &Avx2SquaredDistances,
      &Avx2ClassifyValues,
      &Avx2MinPositiveGap,
      Scalar().prefix_sum_i64,
      Scalar().prefix_xor_to_doubles,
      &Avx2LoessDot2,
      &Avx2LoessEdgeWeights,
      &Avx2LoessEdgeDot,
      &Avx2FftButterflies,
  };
  return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
}

}  // namespace internal

}  // namespace simd
}  // namespace fbdetect

#else  // !defined(__AVX2__)

namespace fbdetect {
namespace simd {
namespace internal {

const Kernels* Avx2Kernels() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace fbdetect

#endif  // defined(__AVX2__)
