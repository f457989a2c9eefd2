#include "arachnet/dsp/fir.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace arachnet::dsp {

std::vector<double> design_lowpass(double cutoff_hz, double sample_rate_hz,
                                   std::size_t taps) {
  if (taps % 2 == 0 || taps < 3) {
    throw std::invalid_argument("design_lowpass: taps must be odd and >= 3");
  }
  if (!std::isfinite(sample_rate_hz) || !(sample_rate_hz > 0.0)) {
    throw std::invalid_argument(
        "design_lowpass: sample rate must be finite and positive");
  }
  // Written so that a NaN cutoff fails: both comparisons are false.
  if (!(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0)) {
    throw std::invalid_argument("design_lowpass: cutoff out of range");
  }
  const double fc = cutoff_hz / sample_rate_hz;  // normalized
  const auto mid = static_cast<std::ptrdiff_t>(taps / 2);
  std::vector<double> h(taps);
  double sum = 0.0;
  for (std::ptrdiff_t n = 0; n < static_cast<std::ptrdiff_t>(taps); ++n) {
    const auto k = static_cast<double>(n - mid);
    const double sinc =
        (n == mid) ? 2.0 * fc
                   : std::sin(2.0 * std::numbers::pi * fc * k) /
                         (std::numbers::pi * k);
    const double hamming =
        0.54 - 0.46 * std::cos(2.0 * std::numbers::pi * n /
                               static_cast<double>(taps - 1));
    h[static_cast<std::size_t>(n)] = sinc * hamming;
    sum += h[static_cast<std::size_t>(n)];
  }
  // Normalize to unity DC gain.
  for (auto& c : h) c /= sum;
  return h;
}

}  // namespace arachnet::dsp
