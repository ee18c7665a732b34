#include "src/stats/fourier.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
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

}  // namespace fbdetect
