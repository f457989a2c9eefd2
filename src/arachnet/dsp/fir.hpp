#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace arachnet::dsp {

/// Windowed-sinc low-pass FIR design (Hamming window).
/// `cutoff_hz` is the -6 dB edge; `taps` must be odd for a symmetric,
/// linear-phase filter.
std::vector<double> design_lowpass(double cutoff_hz, double sample_rate_hz,
                                   std::size_t taps);

/// Streaming FIR filter over real or complex samples.
///
/// The history is kept in a doubled buffer (each sample written twice, one
/// filter-length apart) so the dot product always runs over a contiguous
/// stretch of memory — no per-tap index wrap on the hot path. Accumulation
/// order matches the naive newest-to-oldest formulation, so outputs are
/// bit-identical to the textbook circular implementation.
template <typename Sample>
class FirFilter {
 public:
  explicit FirFilter(std::vector<double> coeffs)
      : coeffs_(std::move(coeffs)), history_(2 * coeffs_.size(), Sample{}) {}

  /// Advances the delay line without computing an output. Decimators use
  /// this for samples whose filtered value would be discarded.
  void feed(Sample x) noexcept {
    history_[pos_] = x;
    history_[pos_ + coeffs_.size()] = x;
    pos_ = (pos_ + 1 == coeffs_.size()) ? 0 : pos_ + 1;
  }

  /// Pushes one sample, returns the filtered output.
  Sample push(Sample x) noexcept {
    feed(x);
    return value();
  }

  /// Filtered output for the current delay-line contents (the sample last
  /// fed and its predecessors).
  Sample value() const noexcept {
    // After feed(), the newest sample sits at pos_-1, i.e. at
    // pos_ - 1 + taps in the doubled half; walking backwards from there is
    // contiguous for all taps.
    const Sample* newest = history_.data() + pos_ + coeffs_.size() - 1;
    Sample acc{};
    for (std::size_t k = 0; k < coeffs_.size(); ++k) {
      acc += newest[-static_cast<std::ptrdiff_t>(k)] * coeffs_[k];
    }
    return acc;
  }

  /// Filters `n` samples from `in` into `out` (in-place allowed).
  void process(const Sample* in, Sample* out, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) out[i] = push(in[i]);
  }

  void reset() {
    std::fill(history_.begin(), history_.end(), Sample{});
    pos_ = 0;
  }

  std::size_t taps() const noexcept { return coeffs_.size(); }
  /// Group delay in samples (symmetric linear-phase filter).
  double group_delay() const noexcept {
    return static_cast<double>(coeffs_.size() - 1) / 2.0;
  }

 private:
  std::vector<double> coeffs_;
  std::vector<Sample> history_;  ///< doubled: size == 2 * taps
  std::size_t pos_ = 0;          ///< next write slot in [0, taps)
};

}  // namespace arachnet::dsp
