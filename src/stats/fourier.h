// Discrete Fourier machinery.
//
// * FourierMagnitudes / DominantFrequency — the handful of DFT coefficient
//   magnitudes SOMDedup uses as clustering features (§5.5.1); computed
//   naively since only a few coefficients are needed.
// * Fft — an iterative radix-2 in-place FFT (power-of-two sizes). The
//   seasonality detector's autocorrelation function is computed through it
//   via the Wiener–Khinchin theorem (power spectrum -> inverse FFT), turning
//   the per-candidate O(n^2) ACF scan into O(n log n).
#ifndef FBDETECT_SRC_STATS_FOURIER_H_
#define FBDETECT_SRC_STATS_FOURIER_H_

#include <complex>
#include <span>
#include <vector>

namespace fbdetect {

// Magnitudes of DFT coefficients 1..num_coefficients of the mean-removed
// series, each normalized by n. O(n * num_coefficients) — the callers only
// need a handful of coefficients, so no FFT machinery is warranted.
std::vector<double> FourierMagnitudes(std::span<const double> values, size_t num_coefficients);

// Index (1-based frequency bin) of the strongest coefficient among 1..n/2;
// 0 for series shorter than 4 points or constant series.
size_t DominantFrequency(std::span<const double> values);

// Smallest power of two >= n (and >= 1).
size_t NextPowerOfTwo(size_t n);

// In-place iterative radix-2 Cooley-Tukey FFT. data.size() must be a power
// of two (FBD_CHECKed). `inverse` computes the inverse transform including
// the 1/n scaling, so Fft(Fft(x), inverse=true) == x up to round-off.
// Within each stage the twiddle factor is a running product (w *= wlen from
// w = 1, wlen = std::polar per stage). A per-thread table holds exactly those
// products, and the butterflies run on split re/im arrays; when any output is
// not finite the std::complex butterflies rerun, so the result is
// bit-identical to std::complex arithmetic on every input.
void Fft(std::vector<std::complex<double>>& data, bool inverse);

// Raw autocovariance sums of the mean-removed series via Wiener–Khinchin:
//   result[k] = sum_{i=0}^{n-1-k} (v[i] - mean) * (v[i+k] - mean)
// for k = 0..max_lag (inclusive; clamped to n-1). Zero-padding to a
// power-of-two >= 2n makes the circular correlation equal the linear one.
// O(n log n); used by AutocorrelationFunction.
std::vector<double> AutocovarianceSumsFft(std::span<const double> values, size_t max_lag);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_STATS_FOURIER_H_
