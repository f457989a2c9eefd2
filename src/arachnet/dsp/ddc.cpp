#include "arachnet/dsp/ddc.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "arachnet/dsp/kernels/simd/simd_kernels.hpp"

namespace arachnet::dsp {

namespace {

/// Raw samples per kernel call: bounds the float32 history, and the
/// rotation phasor is reseeded from the double master phase once per
/// chunk.
constexpr std::size_t kChunk = 4096;

double wrap(double p) noexcept {
  return std::remainder(p, 2.0 * std::numbers::pi);
}

// design_lowpass() rejects a rate that is not finite and positive.
const Ddc::Params& validated(const Ddc::Params& p) {
  if (!std::isfinite(p.carrier_hz)) {
    throw std::invalid_argument("Ddc: carrier must be finite");
  }
  if (p.decimation == 0) {
    throw std::invalid_argument("Ddc: decimation must be >= 1");
  }
  return p;
}

std::vector<double> ddc_coeffs(const Ddc::Params& p) {
  return design_lowpass(p.cutoff_hz, p.sample_rate_hz, p.taps);
}

}  // namespace

Ddc::Ddc(Params params)
    : params_(validated(params)),
      phase_step_(2.0 * std::numbers::pi * params_.carrier_hz /
                  params_.sample_rate_hz),
      lpf_(params_.kernels == KernelPolicy::kScalar ? ddc_coeffs(params_)
                                                    : std::vector<double>{}) {
  if (params_.kernels != KernelPolicy::kSimd) return;
  // g[k] = h[k]·e^{jwk}, designed in double and narrowed once. Window
  // position i holds tap k = padded-1-i (the newest sample meets g[0]);
  // the front padding is zero.
  const std::vector<double> h = ddc_coeffs(params_);
  const std::size_t padded = (h.size() + 7) / 8 * 8;
  taps_re_.assign(padded, 0.0f);
  taps_im_.assign(padded, 0.0f);
  for (std::size_t k = 0; k < h.size(); ++k) {
    const double a = phase_step_ * static_cast<double>(k);
    taps_re_[padded - 1 - k] = static_cast<float>(h[k] * std::cos(a));
    taps_im_[padded - 1 - k] = static_cast<float>(h[k] * std::sin(a));
  }
  hist_.assign(padded - 1 + kChunk, 0.0f);
}

std::size_t Ddc::process(std::span<const double> in,
                         std::vector<std::complex<double>>& out) {
  if (params_.kernels == KernelPolicy::kSimd) return process_simd(in, out);
  std::size_t got = 0;
  for (double sample : in) {
    // Mix with e^{-j w t}: shifts the 90 kHz band to DC.
    const std::complex<double> mixed{sample * std::cos(phase_),
                                     -sample * std::sin(phase_)};
    phase_ += phase_step_;
    // Wrap symmetrically: a negative carrier walks the phase downward,
    // and one-sided wrapping would let it grow without bound, bleeding
    // precision out of the cos/sin arguments.
    if (phase_ > 2.0 * std::numbers::pi) phase_ -= 2.0 * std::numbers::pi;
    if (phase_ < -2.0 * std::numbers::pi) phase_ += 2.0 * std::numbers::pi;
    // Only the decimation points need the filter's dot product; in between,
    // just advance the delay line (a factor-`decimation` saving on the
    // dominant cost of the front end).
    lpf_.feed(mixed);
    if (++decim_count_ >= params_.decimation) {
      decim_count_ = 0;
      out.push_back(lpf_.value());
      ++got;
    }
  }
  return got;
}

std::size_t Ddc::process_simd(std::span<const double> in,
                              std::vector<std::complex<double>>& out) {
  const std::size_t d = params_.decimation;
  const std::size_t base = out.size();
  out.resize(base + (decim_count_ + in.size()) / d);
  std::complex<double>* y = out.data() + base;
  const simd::KernelTable& k = simd::kernels();
  // e^{-jw*d}: the rotation from one output to the next.
  const double step = phase_step_ * static_cast<double>(d);
  const double sr = std::cos(step);
  const double si = -std::sin(step);
  for (std::size_t off = 0; off < in.size();) {
    const std::size_t len = std::min(kChunk, in.size() - off);
    // Outputs fire at chunk samples first, first + d, ...; the one at
    // chunk sample m is mixed by e^{-j(phase_ + w*m)}.
    const std::size_t first = d - 1 - decim_count_;
    const std::size_t count = (decim_count_ + len) / d;
    k.ddc_bandpass_f32(in.data() + off, len, hist_.data(), taps_re_.data(),
                       taps_im_.data(), taps_re_.size(), first, d, count, y);
    const double theta =
        wrap(phase_ + phase_step_ * static_cast<double>(first));
    double cr = std::cos(theta);
    double ci = -std::sin(theta);
    for (std::size_t j = 0; j < count; ++j) {
      // Explicit real arithmetic: a std::complex multiply calls __muldc3.
      const double yr = y[j].real();
      const double yi = y[j].imag();
      y[j] = {yr * cr - yi * ci, yr * ci + yi * cr};
      const double ncr = cr * sr - ci * si;
      ci = cr * si + ci * sr;
      cr = ncr;
    }
    y += count;
    phase_ = wrap(phase_ + phase_step_ * static_cast<double>(len));
    decim_count_ = (decim_count_ + len) % d;
    off += len;
  }
  return out.size() - base;
}

std::vector<std::complex<double>> Ddc::process(
    const std::vector<double>& block) {
  std::vector<std::complex<double>> out;
  out.reserve(block.size() / params_.decimation + 1);
  process(std::span<const double>{block}, out);
  return out;
}

void Ddc::reset() {
  lpf_.reset();
  phase_ = 0.0;
  decim_count_ = 0;
  std::fill(hist_.begin(), hist_.end(), 0.0f);
}

double estimate_frequency_offset(const std::vector<std::complex<double>>& iq,
                                 double iq_rate_hz) {
  if (iq.size() < 2) return 0.0;
  // Mean of the one-lag phase increments, weighted by magnitude product —
  // robust to the modulation because the leak dominates.
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t i = 1; i < iq.size(); ++i) {
    acc += iq[i] * std::conj(iq[i - 1]);
  }
  const double dphi = std::arg(acc);
  return dphi * iq_rate_hz / (2.0 * std::numbers::pi);
}

}  // namespace arachnet::dsp
