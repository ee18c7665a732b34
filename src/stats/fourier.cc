#include "src/stats/fourier.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/rounding.h"
#include "src/common/simd.h"
#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

// Magnitude of one DFT coefficient of the mean-removed series.
double CoefficientMagnitude(std::span<const double> values, double mean, size_t k) {
  const size_t n = values.size();
  double real = 0.0;
  double imag = 0.0;
  const double angular = -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const double angle = angular * static_cast<double>(i);
    const double centered = values[i] - mean;
    real += centered * std::cos(angle);
    imag += centered * std::sin(angle);
  }
  return std::sqrt(real * real + imag * imag) / static_cast<double>(n);
}

// Transforms up to this size keep their twiddles and work arrays in a
// per-thread cache: 2 directions x 2 x (size - 1) twiddle doubles plus 2 x
// size work doubles, 192 KiB per thread at the cap. Larger transforms build
// the same tables in call-local storage.
constexpr size_t kMaxCachedFftSize = 4096;

// Twiddles and split re/im work arrays. The twiddles of the stage with
// half-length h sit at [h - 1, 2h - 1) of tw_re/tw_im, so one table filled
// for size n serves every smaller power of two as well.
struct FftScratch {
  std::vector<double> re;
  std::vector<double> im;
  std::vector<double> spectrum;  // The real-input path's power spectrum.
  std::vector<double> tw_re[2];  // [inverse]
  std::vector<double> tw_im[2];
};

FftScratch& ScratchFor(size_t n, FftScratch& oversized) {
  thread_local FftScratch cached;
  return n <= kMaxCachedFftSize ? cached : oversized;
}

// Calls f(i, rev(i)) for i in [0, n), rev = the bit reversal of log2(n) bits.
template <typename F>
void ForEachBitReversed(size_t n, F&& f) {
  f(size_t{0}, size_t{0});
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    f(i, j);
  }
}

// The reference transform: std::complex butterflies whose twiddle factor
// starts at 1 in every block and advances by a running product (w *= wlen,
// wlen from std::polar once per stage). It defines the bits every faster
// path must reproduce, and is what runs when a value is not finite.
void ComplexFft(std::vector<std::complex<double>>& data, bool inverse) {
  const size_t n = data.size();
  ForEachBitReversed(n, [&](size_t i, size_t j) {
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  });
  for (size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const std::complex<double> wlen = std::polar(1.0, angle);
    for (size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> even = data[i + k];
        const std::complex<double> odd = data[i + k + len / 2] * w;
        data[i + k] = even + odd;
        data[i + k + len / 2] = even - odd;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::complex<double>& value : data) {
      value *= scale;
    }
  }
}

// Twiddles for every stage up to size n, from the same running product as
// ComplexFft (same std::polar start, same std::complex multiply), so every
// entry has the bits the reference uses at that stage and index.
void EnsureTwiddles(FftScratch& scratch, size_t n, bool inverse) {
  std::vector<double>& tw_re = scratch.tw_re[inverse ? 1 : 0];
  std::vector<double>& tw_im = scratch.tw_im[inverse ? 1 : 0];
  if (tw_re.size() >= n - 1) {
    return;
  }
  tw_re.resize(n - 1);
  tw_im.resize(n - 1);
  for (size_t half = 1; half < n; half <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(2 * half);
    const std::complex<double> wlen = std::polar(1.0, angle);
    std::complex<double> w(1.0, 0.0);
    for (size_t k = 0; k < half; ++k) {
      tw_re[half - 1 + k] = w.real();
      tw_im[half - 1 + k] = w.imag();
      w *= wlen;
    }
  }
}

// Radix-2 butterflies over scratch.re/im, already in bit-reversed order, one
// simd::Kernels::fft_butterflies call per stage, with the complex product
// written out as (a*c - b*d, a*d + b*c): the value std::complex computes
// whenever it is finite, without its NaN-recovery branch. Returns false when
// any output is not finite — a non-finite value anywhere propagates to some
// output, so true means the std::complex path never left its finite branch
// and the outputs are bit-identical to it.
bool SplitButterflies(FftScratch& scratch, size_t n, bool inverse) {
  EnsureTwiddles(scratch, n, inverse);
  double* re = scratch.re.data();
  double* im = scratch.im.data();
  const double* tw_re = scratch.tw_re[inverse ? 1 : 0].data();
  const double* tw_im = scratch.tw_im[inverse ? 1 : 0].data();
  const simd::Kernels& kernels = simd::Active();
  for (size_t half = 1; half < n; half <<= 1) {
    kernels.fft_butterflies(re, im, n, half, tw_re + half - 1, tw_im + half - 1);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(re[i]) || !std::isfinite(im[i])) {
      return false;
    }
  }
  return true;
}

// The bounds below follow DESIGN §13 ("Certified ACF"). Every one is a
// relative bound on the autocovariance sums, in units of S = sum x_i^2 over
// the centered series x, valid while nothing overflows or underflows beyond
// what kUnderflowSlack covers (AutocovarianceSumsRealFft's scale gate).

// Gradual underflow adds at most 2^-1075 per product; with max|x| >= 2^-300
// every such error reaches a sum at far below 2^-400 * S.
constexpr double kUnderflowSlack = 0x1p-400;

// Twiddles of the stage with half-length `half`, as EnsureTwiddles builds
// them: each within this bound of exp(+-2 pi i k / (2 half)), k < half.
// wlen = std::polar(1, angle) is within lambda = 4u: cos and sin are within
// an ulp (<= u below 1) of the cosine and sine of an angle off by
// 2 |pi - M_PI| / len <= 1.11u. Twiddle k is wlen^k through k - 1 rounded
// complex products, each within sqrt(2) gamma_2 of the exact product, so
// it errs by at most (1 + lambda)^k ((1 + sqrt(2) gamma_2)^k - 1) +
// k lambda (1 + lambda)^(k-1): the error grows with the stage length.
double TwiddleError(size_t half) {
  const double lambda = 4.0 * kUnitRoundoff;
  const double product = std::sqrt(2.0) * RoundingGamma(2);
  const double k = static_cast<double>(half - 1);
  const double h = static_cast<double>(half);
  if (h * (lambda + product) >= 0.5) {
    return std::numeric_limits<double>::infinity();
  }
  return (k * product / (1.0 - k * product) + k * lambda) / (1.0 - h * lambda);
}

// Relative error of an n-point transform through SplitButterflies. One
// stage maps (even, odd) to even +- w * odd; computed with twiddle error mu,
// each output is within eta * (|even| + |odd|) of the exact stage applied to
// the computed input, eta = u + (1 + u)(mu + sqrt(2) gamma_2 (1 + mu)). In
// the 2-norm a stage has norm sqrt(2) and rounds by sqrt(2) eta; as a map
// from the 1-norm of a block's inputs to each of its outputs it has norm 1
// and rounds by eta. Either way the stages compose to
// rho = prod (1 + eta) - 1: ||computed - exact||_2 <= rho ||exact||_2, and
// every output is within rho * ||input||_1 of the exact one.
double TransformError(size_t n) {
  RoundingBound bound{1.0, 0.0};
  for (size_t half = 1; half < n; half <<= 1) {
    const double mu = TwiddleError(half);
    const double eta = kUnitRoundoff + (1.0 + kUnitRoundoff) *
                                           (mu + std::sqrt(2.0) * RoundingGamma(2) * (1.0 + mu));
    bound = Through(bound, 1.0, eta);
  }
  return bound.error;
}

// The real-input path's transform length: the linear sums up to lag
// `limit` need no more than n + limit + 1 points.
size_t RealFftSize(size_t n, size_t limit) { return NextPowerOfTwo(n + limit + 1); }

}  // namespace

std::vector<double> FourierMagnitudes(std::span<const double> values, size_t num_coefficients) {
  std::vector<double> magnitudes(num_coefficients, 0.0);
  const size_t n = values.size();
  if (n < 2) {
    return magnitudes;
  }
  const double mean = Mean(values);
  for (size_t k = 1; k <= num_coefficients && k < n; ++k) {
    magnitudes[k - 1] = CoefficientMagnitude(values, mean, k);
  }
  return magnitudes;
}

size_t DominantFrequency(std::span<const double> values) {
  const size_t n = values.size();
  if (n < 4) {
    return 0;
  }
  const double mean = Mean(values);
  size_t best_k = 0;
  double best_mag = 0.0;
  for (size_t k = 1; k <= n / 2; ++k) {
    const double mag = CoefficientMagnitude(values, mean, k);
    if (mag > best_mag) {
      best_mag = mag;
      best_k = k;
    }
  }
  return best_mag > 1e-12 ? best_k : 0;
}

size_t NextPowerOfTwo(size_t n) {
  size_t power = 1;
  while (power < n) {
    power <<= 1;
  }
  return power;
}

void Fft(std::vector<std::complex<double>>& data, bool inverse) {
  const size_t n = data.size();
  FBD_CHECK(n > 0 && (n & (n - 1)) == 0);
  if (n == 1) {
    return;
  }
  FftScratch oversized;
  FftScratch& scratch = ScratchFor(n, oversized);
  scratch.re.resize(n);
  scratch.im.resize(n);
  ForEachBitReversed(n, [&](size_t i, size_t j) {
    scratch.re[i] = data[j].real();
    scratch.im[i] = data[j].imag();
  });
  if (!SplitButterflies(scratch, n, inverse)) {
    ComplexFft(data, inverse);
    return;
  }
  const double scale = inverse ? 1.0 / static_cast<double>(n) : 1.0;
  for (size_t i = 0; i < n; ++i) {
    data[i] = inverse ? std::complex<double>(scratch.re[i] * scale, scratch.im[i] * scale)
                      : std::complex<double>(scratch.re[i], scratch.im[i]);
  }
}

std::vector<double> AutocovarianceSumsFft(std::span<const double> values, size_t max_lag) {
  const size_t n = values.size();
  if (n == 0) {
    return {};
  }
  const size_t limit = std::min(max_lag, n - 1);
  const double mean = Mean(values);
  // Pad to >= 2n so the circular autocorrelation of the padded signal equals
  // the linear autocorrelation of the original.
  const size_t padded = NextPowerOfTwo(2 * n);
  FftScratch oversized;
  FftScratch& scratch = ScratchFor(padded, oversized);
  std::vector<double>& re = scratch.re;
  std::vector<double>& im = scratch.im;
  re.resize(padded);
  im.resize(padded);
  ForEachBitReversed(padded, [&](size_t i, size_t j) {
    re[i] = j < n ? values[j] - mean : 0.0;
    im[i] = 0.0;
  });
  bool finite = SplitButterflies(scratch, padded, /*inverse=*/false);
  if (finite) {
    // Power spectrum (std::norm's x*x + y*y), then back into bit-reversed
    // order for the inverse transform.
    for (size_t i = 0; i < padded; ++i) {
      re[i] = re[i] * re[i] + im[i] * im[i];
      im[i] = 0.0;
    }
    ForEachBitReversed(padded, [&](size_t i, size_t j) {
      if (i < j) {
        std::swap(re[i], re[j]);
      }
    });
    finite = SplitButterflies(scratch, padded, /*inverse=*/true);
  }
  std::vector<double> sums(limit + 1, 0.0);
  if (!finite) {
    // Non-finite data: the std::complex transform defines the result.
    std::vector<std::complex<double>> buffer(padded, std::complex<double>(0.0, 0.0));
    for (size_t i = 0; i < n; ++i) {
      buffer[i] = std::complex<double>(values[i] - mean, 0.0);
    }
    ComplexFft(buffer, /*inverse=*/false);
    for (std::complex<double>& value : buffer) {
      value = std::complex<double>(std::norm(value), 0.0);
    }
    ComplexFft(buffer, /*inverse=*/true);
    for (size_t lag = 0; lag <= limit; ++lag) {
      sums[lag] = buffer[lag].real();
    }
    return sums;
  }
  const double scale = 1.0 / static_cast<double>(padded);
  for (size_t lag = 0; lag <= limit; ++lag) {
    sums[lag] = re[lag] * scale;
  }
  return sums;
}

bool AutocovarianceSumsRealFft(std::span<const double> values, size_t max_lag,
                               std::span<double> sums) {
  const size_t n = values.size();
  if (n < 2) {
    return false;
  }
  const size_t limit = std::min(max_lag, n - 1);
  FBD_CHECK(sums.size() == limit + 1);
  const double mean = Mean(values);
  // x packs into z_m = x_{2m} + i x_{2m+1}, an m-point complex transform Z
  // (m = size / 2). Then, with W = exp(-2 pi i / size),
  //   V_k = 2 X_k = (Z_k + conj Z_{m-k}) - i W^k (Z_k - conj Z_{m-k}),
  // for k = 0..m, q_k = |V_k|^2 = 4 |X_k|^2, and the inverse packs the even
  // spectrum back into m points: Y_k = (q_k + q_{m-k}) + i W^-k (q_k - q_{m-k})
  // transforms to 4 size (r_{2j} + i r_{2j+1}).
  const size_t size = RealFftSize(n, limit);
  const size_t half = size / 2;
  FftScratch oversized;
  FftScratch& scratch = ScratchFor(size, oversized);
  std::vector<double>& re = scratch.re;
  std::vector<double>& im = scratch.im;
  std::vector<double>& q = scratch.spectrum;
  re.resize(half);
  im.resize(half);
  q.resize(half + 1);
  double largest = 0.0;
  ForEachBitReversed(half, [&](size_t i, size_t j) {
    re[i] = 2 * j < n ? values[2 * j] - mean : 0.0;
    im[i] = 2 * j + 1 < n ? values[2 * j + 1] - mean : 0.0;
    largest = std::max(largest, std::max(std::fabs(re[i]), std::fabs(im[i])));
  });
  if (largest == 0.0 && std::isfinite(mean)) {
    // Every centered value is zero: so is every sum, in any transform.
    std::fill(sums.begin(), sums.end(), 0.0);
    return true;
  }
  // Non-finite data, or a scale where the rounding model needs more than
  // kUnderflowSlack: no bound, so no fast answer. (A NaN never raises
  // `largest`, but it makes the mean NaN.)
  if (!std::isfinite(mean) || !(largest >= 0x1p-300 && largest <= 0x1p300)) {
    return false;
  }
  EnsureTwiddles(scratch, size, /*inverse=*/false);
  EnsureTwiddles(scratch, size, /*inverse=*/true);
  if (!SplitButterflies(scratch, half, /*inverse=*/false)) {
    return false;
  }
  // Stage `half` of the size-point tables holds W^k and W^-k for k < half.
  const double* w_re = scratch.tw_re[0].data() + half - 1;
  const double* w_im = scratch.tw_im[0].data() + half - 1;
  const double* w_inv_re = scratch.tw_re[1].data() + half - 1;
  const double* w_inv_im = scratch.tw_im[1].data() + half - 1;
  const double v_first = 2.0 * (re[0] + im[0]);
  const double v_last = 2.0 * (re[0] - im[0]);
  q[0] = v_first * v_first;
  q[half] = v_last * v_last;
  for (size_t k = 1; k < half; ++k) {
    const size_t mirror = half - k;
    const double s_re = re[k] + re[mirror];
    const double s_im = im[k] - im[mirror];
    const double g_re = re[k] - re[mirror];
    const double g_im = im[k] + im[mirror];
    const double t_re = g_re * w_re[k] - g_im * w_im[k];
    const double t_im = g_re * w_im[k] + g_im * w_re[k];
    const double v_re = s_re + t_im;
    const double v_im = s_im - t_re;
    q[k] = v_re * v_re + v_im * v_im;
  }
  ForEachBitReversed(half, [&](size_t i, size_t j) {
    const double even = q[j] + q[half - j];
    const double odd = q[j] - q[half - j];
    re[i] = even - odd * w_inv_im[j];
    im[i] = odd * w_inv_re[j];
  });
  if (!SplitButterflies(scratch, half, /*inverse=*/true)) {
    return false;
  }
  const double scale = 1.0 / (4.0 * static_cast<double>(size));
  for (size_t lag = 0; lag <= limit; ++lag) {
    sums[lag] = (lag % 2 == 0 ? re[lag / 2] : im[lag / 2]) * scale;
  }
  return true;
}

double AutocovarianceSumsFftErrorBound(size_t n) {
  // Forward: ||X^ - X||_2 <= rho ||X||_2 with ||X||_2^2 = P S (P points).
  // Power spectrum: |fl(|X^_k|^2) - |X_k|^2| <= gamma_2 |X^_k|^2 +
  // |e_k| (2 |X_k| + |e_k|), summing to at most P S * spectrum. Inverse:
  // every output within ||p^ - p||_1 + rho ||p^||_1 of the exact, and the
  // exact spectrum's 1-norm is P S; the 1/P scale is exact.
  const double rho = TransformError(NextPowerOfTwo(2 * n));
  const double spectrum = RoundingGamma(2) * (1.0 + rho) * (1.0 + rho) + 2.0 * rho + rho * rho;
  return spectrum + rho * (1.0 + spectrum) + kUnderflowSlack;
}

double AutocovarianceSumsRealFftErrorBound(size_t n, size_t max_lag) {
  const size_t size = RealFftSize(n, std::min(max_lag, n - 1));
  const size_t half = size / 2;
  const double u = kUnitRoundoff;
  const double gamma2 = RoundingGamma(2);
  const double root2 = std::sqrt(2.0);
  const double rho = TransformError(half);
  const double mu = TwiddleError(half);  // W^k and W^-k.
  // Unpack, per k, in units of a = |Z^_k| + |Z^_{m-k}|: s and g round by
  // u a; t = W^k g by tau a; V = s - i t by u (|s| + |t|).
  const double tau = root2 * gamma2 * (1.0 + mu) * (1.0 + u) + mu * (1.0 + u) + u;
  const double unpack = 3.0 * u + u * u + tau * (1.0 + u);
  // In units of z = sqrt(m S): ||Z^ - Z||_2 <= rho z reaches V at most 4x,
  // the unpack's rounding adds 2 sqrt(2) unpack ||Z^||_2, and ||V||_2 <=
  // 2 sqrt(2) z over k = 0..m. The spectrum's errors then sum to at most
  // z^2 * spectrum.
  const double kappa = 4.0 * rho + 2.0 * root2 * unpack * (1.0 + rho);
  const double v = 2.0 * root2;
  const double spectrum = gamma2 * (v + kappa) * (v + kappa) + 2.0 * v * kappa + kappa * kappa;
  // Repack, per k: Y_k errs by at most c_g g_k + c_h h_k, g_k the two
  // spectrum errors it reads and h_k = q_k + q_{m-k}; sum g_k <= 2 z^2
  // spectrum, sum h_k = 8 z^2, and ||Y||_1 <= 16 z^2.
  const double a1 = 1.0 + u;
  const double c_g = a1 + u * (1.0 + mu) * a1 + (1.0 + mu) * a1 + u * a1 * (1.0 + a1 * (1.0 + mu));
  const double c_h = u + u * (1.0 + mu) * a1 + (1.0 + mu) * u + mu +
                     u * a1 * (1.0 + a1 * (1.0 + mu));
  const double repack = 2.0 * c_g * spectrum + 8.0 * c_h;
  // Inverse: every output within ||Y^ - Y||_1 + rho ||Y^||_1, scaled by the
  // exact 1 / (4 size) = 1 / (8 m): z^2 / (8 m) = S / 8.
  return (repack + rho * (16.0 + repack)) / 8.0 + kUnderflowSlack;
}

}  // namespace fbdetect
