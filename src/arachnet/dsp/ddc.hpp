#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/simd/stages.hpp"

namespace arachnet::dsp {

/// Digital down-converter: mixes the real 500 kS/s DAQ stream with a
/// numerically controlled oscillator at the carrier frequency, low-pass
/// filters the product, and decimates. Output is complex baseband IQ at
/// sample_rate / decimation.
///
/// This is the first block of the paper's reader software chain
/// ("down conversion, ... filtering, decimation", Sec. 6.1).
///
/// Two implementations live behind Params::kernels (see KernelPolicy):
/// the scalar reference path (per-sample cos/sin mixer + streaming FIR)
/// and the simd path (float32 vector lanes with runtime ISA dispatch,
/// double accumulation at the decimation points), which matches it to
/// float32 tolerance. The decimation grid is identical across both.
class Ddc {
 public:
  struct Params {
    double sample_rate_hz = 500e3;
    double carrier_hz = 90e3;
    std::size_t decimation = 16;   ///< output rate 31.25 kS/s by default
    double cutoff_hz = 6e3;        ///< anti-alias + modulation bandwidth
    std::size_t taps = 129;
    KernelPolicy kernels = default_kernel_policy();
  };

  explicit Ddc(Params params);

  /// Processes a block of real samples; returns the decimated IQ samples
  /// produced (0 or more per call). Allocating wrapper around the span
  /// overload.
  std::vector<std::complex<double>> process(const std::vector<double>& block);

  /// Span-in, caller-owned-out overload for allocation-free steady state:
  /// appends the produced IQ samples to `out` (which the caller clears and
  /// reuses across blocks) and returns how many were appended.
  std::size_t process(std::span<const double> in,
                      std::vector<std::complex<double>>& out);

  double output_rate_hz() const noexcept {
    return params_.sample_rate_hz / static_cast<double>(params_.decimation);
  }

  /// Adjusts the NCO (e.g. after frequency-offset calibration). Phase is
  /// continuous across the change.
  void set_carrier(double hz) noexcept;

  /// Raw samples consumed since the last decimated output, in
  /// [0, decimation) — lets block consumers map each produced IQ sample
  /// back to the exact raw-sample index that emitted it.
  std::size_t decimation_phase() const noexcept {
    return params_.kernels == KernelPolicy::kSimd ? decimator_s_.phase()
                                                  : decim_count_;
  }

  void reset();

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  FirFilter<std::complex<double>> lpf_;    ///< scalar-path filter state
  double phase_ = 0.0;
  double phase_step_ = 0.0;
  std::size_t decim_count_ = 0;
  // Simd path: float32 lanes, interleaved mix scratch, double outputs.
  simd::SimdNco nco_s_;
  simd::FirSimdDecimator decimator_s_;
  std::vector<float> mixed_f_;
};

/// Estimates a small carrier-frequency offset from decimated IQ: the slope
/// of the unwrapped phase of the (DC-dominated) leak component. Returns Hz.
double estimate_frequency_offset(const std::vector<std::complex<double>>& iq,
                                 double iq_rate_hz);

}  // namespace arachnet::dsp
