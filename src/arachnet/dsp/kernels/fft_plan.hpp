#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace arachnet::dsp {

/// Precomputed radix-2 FFT plan for one transform size: the twiddle
/// factors and the bit-reversal permutation are built once and reused for
/// every transform of that size. Each table twiddle is a direct cos/sin
/// evaluation (generating them by repeated multiplication would
/// accumulate rounding error along each butterfly stage).
///
/// Plans are immutable after construction: forward()/inverse() touch only
/// the caller's buffer, so one plan may be shared across threads (the PSD
/// estimator under the parallel FDMA bank relies on this).
class FftPlan {
 public:
  using cplx = std::complex<double>;

  /// Builds a plan for size `n` (must be a power of two, >= 1).
  explicit FftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// In-place forward / inverse transform of exactly size() samples.
  /// inverse() applies the conjugate transform and 1/N scaling.
  void forward(cplx* data) const noexcept { transform(data, false); }
  void inverse(cplx* data) const noexcept { transform(data, true); }
  void forward(std::vector<cplx>& data) const;
  void inverse(std::vector<cplx>& data) const;

  /// Single-precision in-place forward transform, unscaled, with the
  /// output left in bit-reversed order: bin b lands at position
  /// bitrev(b). It is a radix-2 decimation-in-frequency kernel of the
  /// ISA-dispatched table (four butterflies per 256-bit vector), so it
  /// skips the permutation pass; the kSimd channelizer frame reads the
  /// few bins it needs at their bit-reversed positions. Rounding follows
  /// float32.
  void forward_bitrev_f(std::complex<float>* data) const noexcept;

  /// Bit reversal of `k` over log2(size()) bits: where
  /// forward_bitrev_f() leaves bin k.
  std::size_t bitrev(std::size_t k) const noexcept { return bitrev_[k]; }

  /// Full complex spectrum of a real signal: `in[0..n_in)` is zero-padded
  /// to size(). Uses the conjugate-symmetry trick — the signal is packed
  /// into a size()/2 complex buffer, transformed with the half-size plan,
  /// and unpacked — so a real transform costs roughly half a complex one.
  /// `out` is resized to size(); bins above size()/2 are the conjugate
  /// mirror, exactly as the full complex transform of the real input
  /// would produce.
  void forward_real(const double* in, std::size_t n_in,
                    std::vector<cplx>& out) const;

  /// Process-wide plan cache: returns the shared plan for size `n`,
  /// constructing it on first use. Thread-safe.
  static std::shared_ptr<const FftPlan> get(std::size_t n);

 private:
  void transform(cplx* data, bool inverse) const noexcept;

  std::size_t n_;
  std::vector<std::size_t> bitrev_;  ///< permutation table, size n
  std::vector<cplx> twiddle_;        ///< e^{-2*pi*i*k/n}, k < n/2
  /// Float32 twiddles of forward_bitrev_f, split per stage: the stage
  /// with `half` butterflies per group starts at float offset
  /// 4*(half-1) and holds the real parts duplicated (c, c) and then the
  /// imaginary parts signed (-s, s), so a vector of four butterflies
  /// multiplies with one in-lane swap (simd_kernels.hpp, fft_dif_cf32).
  std::vector<float> dif_tw_f_;
};

}  // namespace arachnet::dsp
