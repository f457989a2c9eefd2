#include "arachnet/reader/pam4_rx.hpp"

#include <algorithm>

#include "arachnet/dsp/axis_tracker.hpp"

namespace arachnet::reader {

std::vector<double> Pam4Receiver::symbol_amplitudes(
    const std::vector<double>& samples, double start_s,
    std::size_t symbols) const {
  dsp::Ddc ddc{params_.ddc};
  const auto iq = ddc.process(samples);
  const double iq_rate = ddc.output_rate_hz();

  // Leak estimate: mean IQ over the quiet interval before the frame
  // (skipping the filter warmup).
  const auto start_idx = static_cast<std::size_t>(start_s * iq_rate);
  std::complex<double> leak{0.0, 0.0};
  std::size_t leak_count = 0;
  for (std::size_t i = std::min<std::size_t>(200, start_idx / 2);
       i < start_idx && i < iq.size(); ++i) {
    leak += iq[i];
    ++leak_count;
  }
  if (leak_count > 0) leak /= static_cast<double>(leak_count);

  // Modulation axis from the pseudo-variance over the frame body.
  const double symbol_len = iq_rate / params_.symbol_rate;
  const auto end_idx = std::min<std::size_t>(
      iq.size(),
      start_idx + static_cast<std::size_t>(symbol_len * symbols) + 1);
  std::complex<double> c2{0.0, 0.0};
  for (std::size_t i = start_idx; i < end_idx; ++i) {
    const auto d = iq[i] - leak;
    c2 += d * d;
  }
  const std::complex<double> axis = dsp::half_angle_axis(c2);

  // Per-symbol interior means.
  std::vector<double> amps;
  amps.reserve(symbols);
  for (std::size_t s = 0; s < symbols; ++s) {
    const double lo = start_idx + (s + params_.edge_guard) * symbol_len;
    const double hi = start_idx + (s + 1.0 - params_.edge_guard) * symbol_len;
    double sum = 0.0;
    std::size_t n = 0;
    for (auto i = static_cast<std::size_t>(lo);
         i < static_cast<std::size_t>(hi) && i < iq.size(); ++i) {
      sum += dsp::project(iq[i] - leak, axis);
      ++n;
    }
    amps.push_back(n ? sum / static_cast<double>(n) : 0.0);
  }
  // The projection sign is ambiguous (axis is a line): normalize so the
  // mean is positive, matching ascending level conventions.
  double mean = 0.0;
  for (double a : amps) mean += a;
  if (mean < 0.0) {
    for (auto& a : amps) a = -a;
  }
  return amps;
}

std::optional<phy::BitVector> Pam4Receiver::decode(
    const std::vector<double>& samples, double start_s,
    std::size_t data_bits) const {
  const std::size_t symbols = phy::Pam4::kTrainingSymbols +
                              phy::Pam4::symbol_count_for(data_bits) + 1;
  const auto amps = symbol_amplitudes(samples, start_s, symbols);
  return pam_.decode_frame(amps, data_bits);
}

}  // namespace arachnet::reader
