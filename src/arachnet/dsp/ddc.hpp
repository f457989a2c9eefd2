#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"

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
/// and the simd path, which filters first and mixes after: for real
/// input, y[M] = e^{-jwM} * sum_k (h[k] e^{jwk}) x[M-k], so complex
/// band-pass taps run over a real float32 history at the decimation
/// instants only, and a double phasor rotates each output to baseband.
/// It matches the scalar path to float32 tolerance, and the decimation
/// grid is identical across both. The carrier is fixed at construction:
/// the band-pass taps are designed for it.
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

  /// Raw samples consumed since the last decimated output, in
  /// [0, decimation) — lets block consumers map each produced IQ sample
  /// back to the exact raw-sample index that emitted it.
  std::size_t decimation_phase() const noexcept { return decim_count_; }

  void reset();

  const Params& params() const noexcept { return params_; }

 private:
  std::size_t process_simd(std::span<const double> in,
                           std::vector<std::complex<double>>& out);

  Params params_;
  double phase_step_ = 0.0;      ///< carrier phase per raw sample, rad
  double phase_ = 0.0;           ///< carrier phase of the next raw sample
  std::size_t decim_count_ = 0;  ///< raw samples since the last output
  /// Scalar path: the low-pass over the mixed stream (empty under kSimd).
  FirFilter<std::complex<double>> lpf_;
  // Simd path (empty under kScalar): the band-pass taps h[k]·e^{jwk} in
  // window order, zero-padded in front to a multiple of 8, and the real
  // float32 history (the window's past samples plus one chunk).
  std::vector<float> taps_re_;
  std::vector<float> taps_im_;
  std::vector<float> hist_;
};

/// Estimates a small carrier-frequency offset from decimated IQ: the slope
/// of the unwrapped phase of the (DC-dominated) leak component. Returns Hz.
double estimate_frequency_offset(const std::vector<std::complex<double>>& iq,
                                 double iq_rate_hz);

}  // namespace arachnet::dsp
