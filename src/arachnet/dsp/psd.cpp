#include "arachnet/dsp/psd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace arachnet::dsp {

WelchPsd::WelchPsd(Params params) : params_(params) {
  if (!std::has_single_bit(params_.segment_size)) {
    throw std::invalid_argument("WelchPsd: segment size must be a power of 2");
  }
  if (params_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument("WelchPsd: invalid sample rate");
  }
  // Plan and window are per-size constants: build them once here instead
  // of per estimate() call.
  plan_ = FftPlan::get(params_.segment_size);
  const std::size_t seg = params_.segment_size;
  window_.resize(seg);
  window_power_ = 0.0;
  for (std::size_t i = 0; i < seg; ++i) {
    window_[i] = 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * i /
                                       static_cast<double>(seg - 1)));
    window_power_ += window_[i] * window_[i];
  }
}

double WelchPsd::bin_width() const noexcept {
  return params_.sample_rate_hz / static_cast<double>(params_.segment_size);
}

std::size_t WelchPsd::bins() const noexcept {
  return params_.segment_size / 2 + 1;
}

double WelchPsd::bin_frequency(std::size_t bin) const noexcept {
  return bin_width() * static_cast<double>(bin);
}

std::vector<double> WelchPsd::estimate(
    const std::vector<double>& signal) const {
  const std::size_t seg = params_.segment_size;
  if (signal.size() < seg) {
    throw std::invalid_argument("WelchPsd: signal shorter than one segment");
  }
  // Local scratch keeps estimate() const and thread-safe; the plan and
  // window are shared immutable state.
  std::vector<double> psd(bins(), 0.0);
  std::size_t segments = 0;
  std::vector<double> windowed(seg);
  std::vector<FftPlan::cplx> buf;
  for (std::size_t start = 0; start + seg <= signal.size(); start += seg / 2) {
    for (std::size_t i = 0; i < seg; ++i) {
      windowed[i] = signal[start + i] * window_[i];
    }
    // Real-input transform: half the cost of the complex FFT the old
    // implementation ran on the zero-imaginary buffer.
    plan_->forward_real(windowed.data(), seg, buf);
    for (std::size_t k = 0; k < bins(); ++k) {
      const double mag2 = std::norm(buf[k]);
      // One-sided density: double the interior bins.
      const double scale = (k == 0 || k == bins() - 1) ? 1.0 : 2.0;
      psd[k] += scale * mag2 / (window_power_ * params_.sample_rate_hz);
    }
    ++segments;
  }
  for (auto& v : psd) v /= static_cast<double>(segments);
  return psd;
}

double band_snr_db(const std::vector<double>& psd, double bin_width,
                   double centre_hz, double signal_bw_hz,
                   double noise_bw_hz) {
  if (psd.empty() || bin_width <= 0.0) {
    throw std::invalid_argument("band_snr_db: empty PSD");
  }
  const auto clamp_bin = [&](double hz) {
    const auto bin = static_cast<std::ptrdiff_t>(std::llround(hz / bin_width));
    return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
        bin, 0, static_cast<std::ptrdiff_t>(psd.size()) - 1));
  };
  const std::size_t sig_lo = clamp_bin(centre_hz - signal_bw_hz / 2.0);
  const std::size_t sig_hi = clamp_bin(centre_hz + signal_bw_hz / 2.0);
  const std::size_t noise_lo = clamp_bin(centre_hz - noise_bw_hz / 2.0);
  const std::size_t noise_hi = clamp_bin(centre_hz + noise_bw_hz / 2.0);

  double signal_power = 0.0;
  for (std::size_t k = sig_lo; k <= sig_hi; ++k) signal_power += psd[k];

  double noise_density = 0.0;
  std::size_t noise_bins = 0;
  for (std::size_t k = noise_lo; k <= noise_hi; ++k) {
    if (k >= sig_lo && k <= sig_hi) continue;
    noise_density += psd[k];
    ++noise_bins;
  }
  if (noise_bins == 0 || noise_density <= 0.0) return 0.0;
  noise_density /= static_cast<double>(noise_bins);
  // Noise power scaled to the signal bandwidth.
  const double noise_power =
      noise_density * static_cast<double>(sig_hi - sig_lo + 1);
  return 10.0 * std::log10(signal_power / noise_power);
}

}  // namespace arachnet::dsp
