#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>

namespace arachnet::dsp {

/// Numerically controlled oscillator implemented as a phasor recurrence:
/// the oscillator state is a unit complex number rotated by a fixed step
/// each sample, so generating e^{j(phi0 + k*step)} costs one complex
/// multiply instead of a std::cos + std::sin pair. The per-sample rounding
/// error only perturbs the phasor magnitude (the rotation itself is exact
/// to a relative few ulp), so a periodic renormalization every
/// kRenormInterval samples bounds the amplitude drift at ~1e-13 while the
/// phase drift stays below 1e-12 rad over millions of samples — far inside
/// the tolerance of every consumer (the decoders threshold on envelopes
/// hundreds of times larger).
///
/// UplinkWaveformSynth renders its carrier and ambient oscillators with
/// it, and the float64 channelizer path rotates its lanes with it.
class PhasorNco {
 public:
  using cplx = std::complex<double>;

  PhasorNco() = default;

  /// Oscillator at phase `phase_rad` advancing `step_rad` per sample
  /// (either sign).
  PhasorNco(double phase_rad, double step_rad) { set(phase_rad, step_rad); }

  /// Re-seeds phase and step (two transcendental pairs, once per block
  /// stream — not per sample).
  void set(double phase_rad, double step_rad) noexcept {
    phasor_ = cplx{std::cos(phase_rad), std::sin(phase_rad)};
    set_step(step_rad);
  }

  /// Changes the per-sample step while keeping the current phase, so a
  /// mid-stream retune stays phase-continuous.
  void set_step(double step_rad) noexcept {
    rot_ = cplx{std::cos(step_rad), std::sin(step_rad)};
  }

  /// Current oscillator value e^{j*phase}.
  cplx phasor() const noexcept { return phasor_; }

  /// Returns the current value and advances one sample.
  cplx next() noexcept {
    const cplx out = phasor_;
    advance();
    return out;
  }

  /// out[i] = e^{j*phase_i} — a raw oscillator block (waveform synthesis:
  /// cos is the real part, sin the imaginary part).
  void fill(cplx* out, std::size_t n) noexcept;

  /// fill() rendered in pieces (defined below).
  class Block;

 private:
  static constexpr std::size_t kRenormInterval = 512;

  /// The phasor recurrence is a serial dependency chain: each rotation
  /// waits on the previous one (~4 multiply-add latencies per sample). The
  /// block loops therefore run four independent chains — lanes at phases
  /// phi, phi+step, phi+2*step, phi+3*step, each advancing by 4*step — so
  /// the rotations of four consecutive samples retire in parallel. Lane
  /// rounding differs from the sequential recurrence only in the last few
  /// ulps (same error model: magnitude drift, bounded by the renorm).
  struct Lanes {
    double pr[4], pi[4];
    double r4r, r4i;  ///< rot^4

    void advance() noexcept {
      for (std::size_t l = 0; l < 4; ++l) {
        const double npr = pr[l] * r4r - pi[l] * r4i;
        pi[l] = pr[l] * r4i + pi[l] * r4r;
        pr[l] = npr;
      }
    }
  };

  /// Samples the laned main loop should handle: a multiple of 4, or zero
  /// for short blocks where seeding four lanes costs more than it saves.
  static std::size_t lane_count(std::size_t n) noexcept {
    return n >= 8 ? n & ~std::size_t{3} : 0;
  }

  void seed_lanes(Lanes& ln) const noexcept {
    const double rr = rot_.real(), ri = rot_.imag();
    ln.pr[0] = phasor_.real();
    ln.pi[0] = phasor_.imag();
    for (std::size_t l = 1; l < 4; ++l) {
      ln.pr[l] = ln.pr[l - 1] * rr - ln.pi[l - 1] * ri;
      ln.pi[l] = ln.pr[l - 1] * ri + ln.pi[l - 1] * rr;
    }
    const double r2r = rr * rr - ri * ri;
    const double r2i = 2.0 * rr * ri;
    ln.r4r = r2r * r2r - r2i * r2i;
    ln.r4i = 2.0 * r2r * r2i;
  }

  void advance() noexcept {
    const double npr = phasor_.real() * rot_.real() -
                       phasor_.imag() * rot_.imag();
    const double npi = phasor_.real() * rot_.imag() +
                       phasor_.imag() * rot_.real();
    phasor_ = cplx{npr, npi};
    if (++since_renorm_ >= kRenormInterval) renorm();
  }

  /// Commits the unrolled-loop state and renormalizes if the interval
  /// elapsed during the block.
  void store(double pr, double pi, std::size_t advanced) noexcept {
    phasor_ = cplx{pr, pi};
    since_renorm_ += advanced;
    if (since_renorm_ >= kRenormInterval) renorm();
  }

  void renorm() noexcept {
    const double mag = std::abs(phasor_);
    if (mag > 0.0) phasor_ /= mag;
    since_renorm_ = 0;
  }

  cplx phasor_{1.0, 0.0};
  cplx rot_{1.0, 0.0};
  std::size_t since_renorm_ = 0;
};

/// One fill(out, n) block rendered in pieces, so a long block can stream
/// through a short buffer: next(out, count) writes the block's next
/// `count` values, bit for bit those fill() writes there, provided every
/// piece but the last is a multiple of 4 samples. The oscillator advances
/// (and renormalizes) once the block's last value is written; it must
/// outlive the block.
class PhasorNco::Block {
 public:
  Block(PhasorNco& nco, std::size_t n) noexcept
      : nco_(nco), n_(n), m_(lane_count(n)) {
    nco.seed_lanes(ln_);
  }

  void next(cplx* out, std::size_t count) noexcept {
    Lanes ln = ln_;
    const std::size_t laned = done_ < m_ ? std::min(count, m_ - done_) : 0;
    std::size_t k = 0;
    for (; k < laned; k += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        out[k + l] = cplx{ln.pr[l], ln.pi[l]};
      }
      ln.advance();
    }
    // Past the lanes, one sequential recurrence continues lane 0.
    double pr = ln.pr[0], pi = ln.pi[0];
    const double rr = nco_.rot_.real(), ri = nco_.rot_.imag();
    for (; k < count; ++k) {
      out[k] = cplx{pr, pi};
      const double npr = pr * rr - pi * ri;
      pi = pr * ri + pi * rr;
      pr = npr;
    }
    ln.pr[0] = pr;
    ln.pi[0] = pi;
    ln_ = ln;
    done_ += count;
    if (count != 0 && done_ == n_) nco_.store(pr, pi, n_);
  }

 private:
  PhasorNco& nco_;
  std::size_t n_;
  std::size_t m_;  ///< samples the four lanes render
  std::size_t done_ = 0;
  Lanes ln_{};
};

inline void PhasorNco::fill(cplx* out, std::size_t n) noexcept {
  Block{*this, n}.next(out, n);
}

}  // namespace arachnet::dsp
