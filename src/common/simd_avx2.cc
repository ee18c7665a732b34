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
#include <cstring>

namespace fbdetect {
namespace simd {
namespace {

double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

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

// Four fits per pass, one per lane. Every lane sees the same point (x, y) at
// step j; only the tricube weight differs. Blends reproduce the oracle's two
// ternaries and its skip of w <= 0 terms.
void Avx2LoessEdgeSums(const double* y, size_t lo, size_t span, size_t center,
                       size_t count, double* sums) {
  const size_t hi = lo + span;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  size_t o = 0;
  for (; o + 4 <= count; o += 4) {
    alignas(32) double lane_center[4];
    alignas(32) double lane_width[4];
    for (size_t l = 0; l < 4; ++l) {
      const size_t i = center + o + l;
      lane_center[l] = static_cast<double>(i);
      lane_width[l] = std::max(static_cast<double>(i - lo), static_cast<double>(hi - 1 - i));
    }
    const __m256d c = _mm256_load_pd(lane_center);
    const __m256d m = _mm256_load_pd(lane_width);
    const __m256d scale = _mm256_add_pd(m, one);
    const __m256d has_width = _mm256_cmp_pd(m, zero, _CMP_GT_OQ);
    __m256d sw = zero;
    __m256d swx = zero;
    __m256d swy = zero;
    __m256d swxx = zero;
    __m256d swxy = zero;
    for (size_t j = lo; j < hi; ++j) {
      const __m256d x = _mm256_set1_pd(static_cast<double>(j));
      const __m256d yj = _mm256_set1_pd(y[j - lo]);
      const __m256d dist = _mm256_and_pd(_mm256_sub_pd(x, c), abs_mask);
      const __m256d u = _mm256_and_pd(_mm256_div_pd(dist, scale), abs_mask);
      const __m256d a = _mm256_sub_pd(one, _mm256_mul_pd(_mm256_mul_pd(u, u), u));
      __m256d w = _mm256_blendv_pd(_mm256_mul_pd(_mm256_mul_pd(a, a), a), zero,
                                   _mm256_cmp_pd(a, zero, _CMP_LE_OQ));
      w = _mm256_blendv_pd(one, w, has_width);
      const __m256d skip = _mm256_cmp_pd(w, zero, _CMP_LE_OQ);
      const __m256d wx = _mm256_mul_pd(w, x);
      sw = _mm256_blendv_pd(_mm256_add_pd(sw, w), sw, skip);
      swx = _mm256_blendv_pd(_mm256_add_pd(swx, wx), swx, skip);
      swy = _mm256_blendv_pd(_mm256_add_pd(swy, _mm256_mul_pd(w, yj)), swy, skip);
      swxx = _mm256_blendv_pd(_mm256_add_pd(swxx, _mm256_mul_pd(wx, x)), swxx, skip);
      swxy = _mm256_blendv_pd(_mm256_add_pd(swxy, _mm256_mul_pd(wx, yj)), swxy, skip);
    }
    alignas(32) double lanes[5][4];
    _mm256_store_pd(lanes[0], sw);
    _mm256_store_pd(lanes[1], swx);
    _mm256_store_pd(lanes[2], swy);
    _mm256_store_pd(lanes[3], swxx);
    _mm256_store_pd(lanes[4], swxy);
    for (size_t l = 0; l < 4; ++l) {
      for (size_t f = 0; f < 5; ++f) {
        sums[5 * (o + l) + f] = lanes[f][l];
      }
    }
  }
  if (o < count) {
    Scalar().loess_edge_sums(y, lo, span, center + o, count - o, sums + 5 * o);
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
      &Avx2LoessEdgeSums,
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
