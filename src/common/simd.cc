#include "src/common/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define FBD_SIMD_HAS_NEON 1
#else
#define FBD_SIMD_HAS_NEON 0
#endif

namespace fbdetect {
namespace simd {
namespace {

double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// ---------------------------------------------------------------------------
// Scalar kernels — the semantic oracles. The FP kernels implement the
// 4-virtual-lane striped reduction documented in simd.h with explicit
// accumulators; the compiler cannot reassociate or fuse them (no fast-math,
// -ffp-contract=off).
// ---------------------------------------------------------------------------

void ScalarSumPair(const double* x, const double* y, size_t n, double* sum_x,
                   double* sum_y) {
  double ax[4] = {0.0, 0.0, 0.0, 0.0};
  double ay[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    ax[i % 4] += x[i];
    ay[i % 4] += y[i];
  }
  *sum_x = (ax[0] + ax[1]) + (ax[2] + ax[3]);
  *sum_y = (ay[0] + ay[1]) + (ay[2] + ay[3]);
}

void ScalarCenteredMoments(const double* x, const double* y, size_t n, double mean_x,
                           double mean_y, double* sxy, double* sxx, double* syy) {
  double axy[4] = {0.0, 0.0, 0.0, 0.0};
  double axx[4] = {0.0, 0.0, 0.0, 0.0};
  double ayy[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    const size_t lane = i % 4;
    axy[lane] += dx * dy;
    axx[lane] += dx * dx;
    ayy[lane] += dy * dy;
  }
  *sxy = (axy[0] + axy[1]) + (axy[2] + axy[3]);
  *sxx = (axx[0] + axx[1]) + (axx[2] + axx[3]);
  *syy = (ayy[0] + ayy[1]) + (ayy[2] + ayy[3]);
}

void ScalarSquaredDistances(const double* weights, size_t cells, size_t dims,
                            const double* item, double* out_d2) {
  for (size_t c = 0; c < cells; ++c) {
    const double* row = weights + c * dims;
    double d2 = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      const double diff = row[d] - item[d];
      d2 += diff * diff;
    }
    out_d2[c] = d2;
  }
}

void ScalarClassifyValues(const double* values, size_t n, uint64_t* non_finite,
                          uint64_t* negative) {
  uint64_t nf = 0;
  uint64_t neg = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      ++nf;
    } else if (values[i] < 0.0) {
      ++neg;
    }
  }
  *non_finite = nf;
  *negative = neg;
}

int64_t ScalarMinPositiveGap(const int64_t* timestamps, size_t n) {
  int64_t dt = 0;
  for (size_t i = 1; i < n; ++i) {
    const int64_t gap = timestamps[i] - timestamps[i - 1];
    if (gap > 0 && (dt == 0 || gap < dt)) {
      dt = gap;
    }
  }
  return dt;
}

void ScalarPrefixSumI64(const int64_t* in, size_t n, int64_t seed, int64_t* out) {
  // Unsigned internally: corrupt Gorilla streams can overflow a signed
  // running sum, which would be UB; two's-complement wrap matches the
  // decoder's documented overflow-safe semantics.
  uint64_t acc = static_cast<uint64_t>(seed);
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<uint64_t>(in[i]);
    out[i] = static_cast<int64_t>(acc);
  }
}

void ScalarPrefixXorToDoubles(const uint64_t* in, size_t n, uint64_t seed,
                              double* out) {
  uint64_t acc = seed;
  for (size_t i = 0; i < n; ++i) {
    acc ^= in[i];
    out[i] = BitsToDouble(acc);
  }
}

void ScalarLoessDot2(const double* x, size_t count, const double* a, const double* b,
                     size_t taps, double* out_a, double* out_b) {
  for (size_t o = 0; o < count; ++o) {
    const double* window = x + o;
    double sum_a = 0.0;
    double sum_b = 0.0;
    for (size_t k = 0; k < taps; ++k) {
      sum_a += a[k] * window[k];
      sum_b += b[k] * window[k];
    }
    out_a[o] = sum_a;
    out_b[o] = sum_b;
  }
}

double Tricube(double u) {
  const double a = 1.0 - std::fabs(u) * std::fabs(u) * std::fabs(u);
  return a <= 0.0 ? 0.0 : a * a * a;
}

void ScalarLoessEdgeWeights(size_t span, size_t first, size_t count, double* weights) {
  for (size_t o = 0; o < ((count + 3) & ~size_t{3}); ++o) {
    double* column = weights + 4 * span * (o / 4) + o % 4;
    if (o >= count) {
      for (size_t j = 0; j < span; ++j) {
        column[4 * j] = 0.0;
      }
      continue;
    }
    const size_t c = first + o;
    const double max_dist =
        std::max(static_cast<double>(c), static_cast<double>(span - 1 - c));
    for (size_t j = 0; j < span; ++j) {
      const double dist = std::fabs(static_cast<double>(j) - static_cast<double>(c));
      column[4 * j] = max_dist > 0.0 ? Tricube(dist / (max_dist + 1.0)) : 1.0;
    }
  }
}

void ScalarLoessEdgeDot(const double* weights, size_t span, size_t count, bool mirrored,
                        const double* y, size_t lo, double* swy, double* swxy) {
  for (size_t o = 0; o < count; ++o) {
    const double* column = weights + 4 * span * (o / 4) + o % 4;
    double sum_y = 0.0;
    double sum_xy = 0.0;
    for (size_t t = 0; t < span; ++t) {
      const double w = column[4 * (mirrored ? span - 1 - t : t)];
      if (w <= 0.0) {
        continue;
      }
      const double x = static_cast<double>(lo + t);
      sum_y += w * y[t];
      sum_xy += w * x * y[t];
    }
    swy[o] = sum_y;
    swxy[o] = sum_xy;
  }
}

void ScalarFftButterflies(double* re, double* im, size_t n, size_t half, const double* wr,
                          const double* wi) {
  for (size_t i = 0; i < n; i += 2 * half) {
    double* even_re = re + i;
    double* even_im = im + i;
    double* odd_re = re + i + half;
    double* odd_im = im + i + half;
    for (size_t k = 0; k < half; ++k) {
      const double a = odd_re[k];
      const double b = odd_im[k];
      const double t_re = a * wr[k] - b * wi[k];
      const double t_im = a * wi[k] + b * wr[k];
      const double e_re = even_re[k];
      const double e_im = even_im[k];
      even_re[k] = e_re + t_re;
      even_im[k] = e_im + t_im;
      odd_re[k] = e_re - t_re;
      odd_im[k] = e_im - t_im;
    }
  }
}

constexpr Kernels kScalarKernels = {
    &ScalarSumPair,         &ScalarCenteredMoments,  &ScalarSquaredDistances,
    &ScalarClassifyValues,  &ScalarMinPositiveGap,   &ScalarPrefixSumI64,
    &ScalarPrefixXorToDoubles, &ScalarLoessDot2,     &ScalarLoessEdgeWeights,
    &ScalarLoessEdgeDot,    &ScalarFftButterflies,
};

// ---------------------------------------------------------------------------
// NEON kernels (aarch64 baseline; no runtime check needed). 2 x f64 vectors:
// the 4 virtual lanes map onto two vector accumulators, combined in the
// contract's (l0 + l1) + (l2 + l3) order. The trickier kernels (cross-cell
// distance transpose, prefix scans) stay scalar on NEON — the big wins there
// are the x86 fleet's.
// ---------------------------------------------------------------------------
#if FBD_SIMD_HAS_NEON

void NeonSumPair(const double* x, const double* y, size_t n, double* sum_x,
                 double* sum_y) {
  float64x2_t ax01 = vdupq_n_f64(0.0);  // Lanes 0, 1.
  float64x2_t ax23 = vdupq_n_f64(0.0);  // Lanes 2, 3.
  float64x2_t ay01 = vdupq_n_f64(0.0);
  float64x2_t ay23 = vdupq_n_f64(0.0);
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    ax01 = vaddq_f64(ax01, vld1q_f64(x + i));
    ax23 = vaddq_f64(ax23, vld1q_f64(x + i + 2));
    ay01 = vaddq_f64(ay01, vld1q_f64(y + i));
    ay23 = vaddq_f64(ay23, vld1q_f64(y + i + 2));
  }
  double lx[4] = {vgetq_lane_f64(ax01, 0), vgetq_lane_f64(ax01, 1),
                  vgetq_lane_f64(ax23, 0), vgetq_lane_f64(ax23, 1)};
  double ly[4] = {vgetq_lane_f64(ay01, 0), vgetq_lane_f64(ay01, 1),
                  vgetq_lane_f64(ay23, 0), vgetq_lane_f64(ay23, 1)};
  for (size_t i = n4; i < n; ++i) {
    lx[i % 4] += x[i];
    ly[i % 4] += y[i];
  }
  *sum_x = (lx[0] + lx[1]) + (lx[2] + lx[3]);
  *sum_y = (ly[0] + ly[1]) + (ly[2] + ly[3]);
}

void NeonCenteredMoments(const double* x, const double* y, size_t n, double mean_x,
                         double mean_y, double* sxy, double* sxx, double* syy) {
  const float64x2_t mx = vdupq_n_f64(mean_x);
  const float64x2_t my = vdupq_n_f64(mean_y);
  float64x2_t xy01 = vdupq_n_f64(0.0), xy23 = vdupq_n_f64(0.0);
  float64x2_t xx01 = vdupq_n_f64(0.0), xx23 = vdupq_n_f64(0.0);
  float64x2_t yy01 = vdupq_n_f64(0.0), yy23 = vdupq_n_f64(0.0);
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const float64x2_t dx01 = vsubq_f64(vld1q_f64(x + i), mx);
    const float64x2_t dx23 = vsubq_f64(vld1q_f64(x + i + 2), mx);
    const float64x2_t dy01 = vsubq_f64(vld1q_f64(y + i), my);
    const float64x2_t dy23 = vsubq_f64(vld1q_f64(y + i + 2), my);
    // vaddq of vmulq, NOT vfmaq: the contract forbids fusion.
    xy01 = vaddq_f64(xy01, vmulq_f64(dx01, dy01));
    xy23 = vaddq_f64(xy23, vmulq_f64(dx23, dy23));
    xx01 = vaddq_f64(xx01, vmulq_f64(dx01, dx01));
    xx23 = vaddq_f64(xx23, vmulq_f64(dx23, dx23));
    yy01 = vaddq_f64(yy01, vmulq_f64(dy01, dy01));
    yy23 = vaddq_f64(yy23, vmulq_f64(dy23, dy23));
  }
  double lxy[4] = {vgetq_lane_f64(xy01, 0), vgetq_lane_f64(xy01, 1),
                   vgetq_lane_f64(xy23, 0), vgetq_lane_f64(xy23, 1)};
  double lxx[4] = {vgetq_lane_f64(xx01, 0), vgetq_lane_f64(xx01, 1),
                   vgetq_lane_f64(xx23, 0), vgetq_lane_f64(xx23, 1)};
  double lyy[4] = {vgetq_lane_f64(yy01, 0), vgetq_lane_f64(yy01, 1),
                   vgetq_lane_f64(yy23, 0), vgetq_lane_f64(yy23, 1)};
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

constexpr Kernels kNeonKernels = {
    &NeonSumPair,           &NeonCenteredMoments,    &ScalarSquaredDistances,
    &ScalarClassifyValues,  &ScalarMinPositiveGap,   &ScalarPrefixSumI64,
    &ScalarPrefixXorToDoubles, &ScalarLoessDot2,     &ScalarLoessEdgeWeights,
    &ScalarLoessEdgeDot,    &ScalarFftButterflies,
};

#endif  // FBD_SIMD_HAS_NEON

bool SimdDisabledByEnv() {
  const char* env = std::getenv("FBD_DISABLE_SIMD");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

struct Dispatch {
  const Kernels* best = &kScalarKernels;
  Isa best_isa = Isa::kScalar;
  const Kernels* active = &kScalarKernels;
  Isa active_isa = Isa::kScalar;
};

Dispatch ResolveDispatch() {
  Dispatch dispatch;
#if FBD_SIMD_HAS_NEON
  dispatch.best = &kNeonKernels;
  dispatch.best_isa = Isa::kNeon;
#else
  if (const Kernels* avx2 = internal::Avx2Kernels(); avx2 != nullptr) {
    dispatch.best = avx2;
    dispatch.best_isa = Isa::kAvx2;
  }
#endif
  if (SimdDisabledByEnv()) {
    dispatch.active = &kScalarKernels;
    dispatch.active_isa = Isa::kScalar;
  } else {
    dispatch.active = dispatch.best;
    dispatch.active_isa = dispatch.best_isa;
  }
  return dispatch;
}

const Dispatch& GetDispatch() {
  static const Dispatch dispatch = ResolveDispatch();
  return dispatch;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

const Kernels& Scalar() { return kScalarKernels; }

const Kernels& BestAvailable() { return *GetDispatch().best; }

Isa BestAvailableIsa() { return GetDispatch().best_isa; }

const Kernels& Active() { return *GetDispatch().active; }

Isa ActiveIsa() { return GetDispatch().active_isa; }

}  // namespace simd
}  // namespace fbdetect
