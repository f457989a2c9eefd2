#include "arachnet/dsp/ddc.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace arachnet::dsp {

namespace {

std::vector<double> ddc_coeffs(const Ddc::Params& p) {
  return design_lowpass(p.cutoff_hz, p.sample_rate_hz, p.taps);
}

}  // namespace

Ddc::Ddc(Params params)
    : params_(params),
      lpf_(ddc_coeffs(params)),
      decimator_s_(ddc_coeffs(params),
                   params.decimation == 0 ? 1 : params.decimation) {
  if (params_.decimation == 0) {
    throw std::invalid_argument("Ddc: decimation must be >= 1");
  }
  set_carrier(params_.carrier_hz);
}

void Ddc::set_carrier(double hz) noexcept {
  params_.carrier_hz = hz;
  phase_step_ = 2.0 * std::numbers::pi * hz / params_.sample_rate_hz;
  // The scalar path mixes by conj(e^{j*phase}) with phase advancing
  // +phase_step_; the simd NCO holds e^{-j*phase} directly, so its step
  // is the negation. Both keep their phase across a retune.
  nco_s_.set_step(-phase_step_);
}

std::size_t Ddc::process(std::span<const double> in,
                         std::vector<std::complex<double>>& out) {
  if (params_.kernels == KernelPolicy::kSimd) {
    const std::size_t n = in.size();
    if (n == 0) return 0;
    mixed_f_.resize(2 * n);
    nco_s_.mix_real(in.data(), mixed_f_.data(), n);
    const std::size_t base = out.size();
    out.resize(base + n / params_.decimation + 1);
    const std::size_t got =
        decimator_s_.process(mixed_f_.data(), n, out.data() + base);
    out.resize(base + got);
    return got;
  }
  std::size_t got = 0;
  for (double sample : in) {
    // Mix with e^{-j w t}: shifts the 90 kHz band to DC.
    const std::complex<double> mixed{sample * std::cos(phase_),
                                     -sample * std::sin(phase_)};
    phase_ += phase_step_;
    // Wrap symmetrically: a negative carrier (or a retune below DC) walks
    // the phase downward, and one-sided wrapping would let it grow without
    // bound, bleeding precision out of the cos/sin arguments.
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
  nco_s_.set(0.0, -phase_step_);
  decimator_s_.reset();
  mixed_f_.clear();
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
