// Discrete Fourier machinery.
//
// * FourierMagnitudes / DominantFrequency — the handful of DFT coefficient
//   magnitudes SOMDedup uses as clustering features (§5.5.1); computed
//   naively since only a few coefficients are needed.
// * Fft — an iterative radix-2 in-place FFT (power-of-two sizes). The
//   seasonality detector's autocorrelation function is computed through it
//   via the Wiener–Khinchin theorem (power spectrum -> inverse FFT), turning
//   the per-candidate O(n^2) ACF scan into O(n log n). A real-input variant
//   of a quarter the points carries a rigorous error bound, so
//   DetectSeasonality can take its answer when no decision is in doubt.
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
// for k = 0..max_lag (inclusive; clamped to n-1). Any zero-padding to at
// least n + max_lag + 1 points makes the circular correlation equal the
// linear one up to max_lag; this reference transform pads further, to
// NextPowerOfTwo(2n) complex points, and its bits define the result.
std::vector<double> AutocovarianceSumsFft(std::span<const double> values, size_t max_lag);

// The same sums from a real-input transform of NextPowerOfTwo(n + max_lag +
// 1) points, run as a half-length complex transform with a split/unpack
// step on each side (the power spectrum is real and even). Not bit-identical
// to AutocovarianceSumsFft: each sum is within
// AutocovarianceSumsRealFftErrorBound(n, max_lag) * S of the exact one, S =
// sum (v[i] - mean)^2. `sums` must hold min(max_lag, n-1) + 1 values.
// Returns false, with `sums` unspecified, where that bound does not hold:
// fewer than 2 values, a non-finite mean, or a nonzero max |v[i] - mean|
// outside [2^-300, 2^300]. When every v[i] - mean is exactly 0, every sum is
// exactly 0.
bool AutocovarianceSumsRealFft(std::span<const double> values, size_t max_lag,
                               std::span<double> sums);

// Bounds, as fractions of S, on |computed - exact| at every lag: of
// AutocovarianceSumsFft over n values, and of AutocovarianceSumsRealFft
// (DESIGN §13, "Certified ACF"), both on inputs AutocovarianceSumsRealFft
// accepts. They grow with the transform length, since the twiddles are
// running products.
double AutocovarianceSumsFftErrorBound(size_t n);
double AutocovarianceSumsRealFftErrorBound(size_t n, size_t max_lag);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_STATS_FOURIER_H_
