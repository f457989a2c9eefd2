#pragma once

#include <complex>
#include <vector>

#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/phy/bits.hpp"
#include "arachnet/sim/rng.hpp"

namespace arachnet::acoustic {

/// A tag's contribution to the reader RX waveform during an uplink slot.
struct BackscatterSource {
  /// FM0 chip stream the tag modulates (true = reflective).
  phy::BitVector chips;
  /// Multi-level alternative to `chips` for higher-order modulation:
  /// reflection coefficients per chip interval. When non-empty it takes
  /// precedence over `chips`.
  std::vector<double> levels;
  /// Raw chip rate (chips per second).
  double chip_rate = 375.0;
  /// Start time of the first chip relative to the synthesis window (s).
  double start_s = 0.0;
  /// Round-trip amplitude of the backscattered carrier at the RX PZT.
  double amplitude = 0.0;
  /// Carrier phase of this tag's reflection (set by its route delay).
  double phase_rad = 0.0;
  /// Reflection coefficients mapped by chip value.
  double reflect_coeff = 0.92;
  double absorb_coeff = 0.35;
};

/// Synthesizes the real-valued 500 kS/s waveform the reader's RX PZT
/// produces during uplink reception: the (strong) direct carrier leakage,
/// each tag's reflection with its modulation and ring-limited transitions,
/// vehicle self-vibration below 0.1 kHz, and AWGN.
class UplinkWaveformSynth {
 public:
  struct Params {
    double sample_rate_hz = 500e3;
    double carrier_hz = 90e3;
    /// Direct TX->RX carrier leakage amplitude (dominates the spectrum; the
    /// DSP chain's job is to pull modulation out from under it).
    double carrier_leak_amplitude = 1.0;
    /// AWGN standard deviation per sample. Calibrated so the weakest
    /// deployed tag decodes at paper-level SNR (Tag 11: ~18 dB at 750 bps).
    double noise_sigma = 0.004;
    /// Mechanical ring: one-pole time constant limiting how fast a tag's
    /// reflection amplitude can change (s).
    double ring_tau_s = 64e-6;
    /// Vehicle self-vibration (engine/road): frequency and amplitude.
    double ambient_hz = 35.0;
    double ambient_amplitude = 0.0;
    /// DSP implementation (see dsp::KernelPolicy): kSimd renders carriers
    /// with phasor-recurrence NCOs, walks each source's chip stream in
    /// run-length segments and draws the AWGN a block at a time
    /// (sim::Rng::normal_block through the kernel table's box_muller_f64);
    /// kScalar is the per-sample reference, one Rng::normal() per sample.
    /// Waveforms agree to rounding tolerance; the RNG draw order (and hence
    /// the noise realization) is identical.
    dsp::KernelPolicy kernels = dsp::default_kernel_policy();
  };

  /// Throws std::invalid_argument for a sample rate that is not finite
  /// and positive.
  explicit UplinkWaveformSynth(Params params);

  /// Renders `duration_s` seconds of RX waveform containing the given
  /// backscatter sources (whose start_s are relative to this window).
  ///
  /// Successive calls are continuous: the reader transmits its carrier
  /// without interruption, so the synthesizer keeps an absolute time
  /// cursor and the carrier/ambient phases and ring state carry over.
  /// Throws std::invalid_argument for a duration that is not finite or
  /// is negative.
  std::vector<double> synthesize(const std::vector<BackscatterSource>& sources,
                                 double duration_s, sim::Rng& rng);

  /// The same window, written into `out` (resized to its sample count).
  /// A caller that keeps `out` across calls allocates nothing once it has
  /// grown to the window.
  void synthesize(const std::vector<BackscatterSource>& sources,
                  double duration_s, sim::Rng& rng, std::vector<double>& out);

  /// Samples in a `duration_s` window: the size synthesize() gives `out`.
  /// Throws std::invalid_argument for a duration that is not finite or is
  /// negative.
  std::size_t window_samples(double duration_s) const;

  /// Absolute time rendered so far.
  double now() const noexcept { return t0_; }

  /// Restarts the timeline (a fresh reader power-up).
  void reset() noexcept { t0_ = 0.0; }

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  double t0_ = 0.0;
  /// Per-source ring state within a call, reused across calls.
  std::vector<double> smoothed_;
  /// kSimd path, per source: its carrier rotation, the ring step toward
  /// its current chip target, and the sample where that target changes.
  struct SourceLane {
    double rot_re;
    double rot_im;
    double step;
    std::size_t end;
  };
  std::vector<SourceLane> lanes_;
  /// kSimd-path oscillator scratch: one fixed chunk, sized at construction.
  std::vector<std::complex<double>> osc_buf_;
};

}  // namespace arachnet::acoustic
