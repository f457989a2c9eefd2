#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "arachnet/dsp/kernels/simd/simd_kernels.hpp"

namespace arachnet::dsp::simd {

/// float32 oscillator for the kSimd tier, mirroring PhasorNco's API over
/// interleaved float32 output.
///
/// Precision model: the master phase is kept in double and advanced
/// exactly (one fused multiply + remainder reduction per chunk), and the
/// eight float32 phasor lanes are reseeded from it every kChunk samples.
/// Float32 recurrence error therefore never accumulates past one chunk:
/// 512 lane rotations at ~1e-7 relative rounding bounds in-chunk phase
/// drift near 1e-4 rad, and a 10^8-sample run is as accurate as the
/// first chunk — the long-run renormalization PhasorNco needs
/// (PhasorNco::renorm()) falls out of the reseed for free.
class SimdNco {
 public:
  SimdNco() = default;
  SimdNco(double phase_rad, double step_rad) { set(phase_rad, step_rad); }

  void set(double phase_rad, double step_rad) noexcept {
    phase_ = wrap(phase_rad);
    step_ = step_rad;
  }

  double phase() const noexcept { return phase_; }
  double step() const noexcept { return step_; }

  /// out[i] = in[i] * e^{j*phase_i}, complex<double> input, interleaved
  /// float32 out.
  void mix(const std::complex<double>* in, float* out, std::size_t n) {
    const KernelTable& k = kernels();
    std::size_t off = 0;
    while (off < n) {
      const std::size_t len = std::min(kChunk, n - off);
      float lre[8];
      float lim[8];
      float rre;
      float rim;
      seed(lre, lim, rre, rim);
      k.mix_cplx_cf32(in + off, len, lre, lim, rre, rim, out + 2 * off);
      advance(len);
      off += len;
    }
  }

 private:
  /// Lane reseed cadence; 16 transcendentals per chunk is noise at this
  /// length, and 512 8-wide rotations keep float32 drift ~1e-4 rad.
  static constexpr std::size_t kChunk = 4096;

  static double wrap(double p) noexcept {
    return std::remainder(p, 2.0 * std::numbers::pi);
  }

  /// Eight lane phasors at phase + l*step and the 8-step rotator, all
  /// evaluated in double then narrowed.
  void seed(float* lre, float* lim, float& rre, float& rim) const noexcept {
    for (std::size_t l = 0; l < 8; ++l) {
      const double p = phase_ + static_cast<double>(l) * step_;
      lre[l] = static_cast<float>(std::cos(p));
      lim[l] = static_cast<float>(std::sin(p));
    }
    rre = static_cast<float>(std::cos(8.0 * step_));
    rim = static_cast<float>(std::sin(8.0 * step_));
  }

  void advance(std::size_t n) noexcept {
    phase_ = wrap(phase_ + static_cast<double>(n) * step_);
  }

  double phase_ = 0.0;
  double step_ = 0.0;
};

/// Builds the reversed+duplicated float32 coefficient layout the kernel
/// table's FIR entries expect (see simd_kernels.hpp).
inline std::vector<float> duplicate_reversed(
    const std::vector<double>& coeffs) {
  const std::size_t taps = coeffs.size();
  std::vector<float> hd(2 * taps);
  for (std::size_t j = 0; j < taps; ++j) {
    const float c = static_cast<float>(coeffs[taps - 1 - j]);
    hd[2 * j] = c;
    hd[2 * j + 1] = c;
  }
  return hd;
}

/// Streaming float32 decimating FIR over interleaved complex buffers —
/// the kSimd counterpart of the scalar FirFilter<std::complex<double>>
/// driven through feed()/push(): of every `decim` inputs only the last
/// gets an output, so outputs sit on the grid (F+1)*decim - 1 of all
/// inputs so far. History and the decimation phase carry across calls,
/// so any block split yields the same outputs. The work buffer is sized
/// at construction for `block` inputs per filter() call, so the steady
/// state allocates nothing.
class FirSimdFilter {
 public:
  explicit FirSimdFilter(const std::vector<double>& coeffs,
                         std::size_t decim = 1, std::size_t block = 4096)
      : hd_(duplicate_reversed(coeffs)),
        taps_(coeffs.size()),
        decim_(decim),
        block_(block) {
    if (taps_ == 0) {
      throw std::invalid_argument("FirSimdFilter: empty coefficients");
    }
    if (decim_ == 0 || block_ == 0) {
      throw std::invalid_argument(
          "FirSimdFilter: decimation and block must be >= 1");
    }
    work_.assign(2 * (taps_ - 1 + block_), 0.0f);
  }

  /// Room for the next `block` inputs, interleaved, right behind the
  /// history: a stage ahead of the filter can write them in place.
  float* input() noexcept { return work_.data() + 2 * (taps_ - 1); }

  /// Filters the `n` <= `block` inputs written to input(), writing one
  /// interleaved output per decim-th input to `out`; returns how many.
  std::size_t filter(std::size_t n, float* out) {
    if (n == 0) return 0;
    const std::size_t count = (phase_ + n) / decim_;
    if (count != 0) {
      // The first output's window ends at input decim - 1 - phase_.
      kernels().fir_block_cf32(work_.data() + 2 * (decim_ - 1 - phase_),
                               hd_.data(), taps_, count, decim_, out);
    }
    phase_ = (phase_ + n) % decim_;
    // The taps-1 newest samples become the history.
    std::copy(work_.begin() + static_cast<std::ptrdiff_t>(2 * n),
              work_.begin() + static_cast<std::ptrdiff_t>(2 * (n + taps_ - 1)),
              work_.begin());
    return count;
  }

  /// Copying form for any `n`: outputs go to `out`, and in-place operation
  /// (out == in) is allowed, since each input is copied into the history
  /// before any output over it is written. Returns the outputs written.
  std::size_t process(const float* in, float* out, std::size_t n) {
    std::size_t produced = 0;
    for (std::size_t off = 0; off < n; off += block_) {
      const std::size_t len = std::min(block_, n - off);
      std::copy(in + 2 * off, in + 2 * (off + len), input());
      produced += filter(len, out + 2 * produced);
    }
    return produced;
  }

  std::size_t taps() const noexcept { return taps_; }

 private:
  std::vector<float> hd_;
  std::size_t taps_;
  std::size_t decim_;
  std::size_t block_;
  std::size_t phase_ = 0;    ///< inputs since the last output
  std::vector<float> work_;  ///< interleaved history + one block
};

}  // namespace arachnet::dsp::simd
