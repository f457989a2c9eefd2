#pragma once

#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "arachnet/dsp/axis_tracker.hpp"
#include "arachnet/dsp/slicer.hpp"
#include "arachnet/phy/framer.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/reader/fm0_stream_decoder.hpp"
#include "arachnet/telemetry/metrics.hpp"

namespace arachnet::reader {

/// Converts a per-chip dynamics target (e.g. "98% level acquisition per
/// chip") into the per-sample EMA alpha that achieves it at
/// `samples_per_chip`.
double per_sample_alpha(double per_chip, double samples_per_chip);

/// Decode counters of one decision chain, monotonic since construction.
struct DecisionCounts {
  std::uint64_t iq_samples = 0;    ///< baseband samples consumed
  std::uint64_t bits = 0;          ///< FM0 bits recovered (pre-framing)
  std::uint64_t frames_ok = 0;     ///< CRC-valid packets
  std::uint64_t crc_failures = 0;  ///< framed bodies that failed CRC
};

/// The uplink decision back end, shared by RxChain and every FdmaRxChain
/// channel on both banks. It takes one leak-free baseband sample stream
/// through modulation-axis projection -> Schmitt trigger (AdaptiveSlicer)
/// -> debouncer -> run-length timing -> FM0 bit recovery -> preamble
/// framing -> CRC: the decision half of the paper's Sec. 6.1 reader chain,
/// which the FDMA extension (Sec. 6.3) runs once per subcarrier.
///
/// Its dynamics follow one per-chip rule (rule()), so the chain behaves
/// alike at every sample rate and chip rate. Each stage returns what it
/// decoded: a sample that completes a CRC-valid packet returns it, and the
/// caller dates it from the index of that sample (RxChain: the raw DAQ
/// sample index; the FDMA bank: the absolute IQ index).
///
/// Counters are working values on the decode thread; publish() copies them
/// once per block to relaxed atomics for readers on any thread, and adds
/// the deltas to the registry counters bound with bind(). Those atomics
/// make the chain neither copyable nor movable: its owner holds it in
/// place.
class DecisionChain {
 public:
  /// The per-chip rule as per-sample rates.
  struct Rule {
    double axis_alpha = 0.0;   ///< ~50% axis convergence per chip
    double track_alpha = 0.0;  ///< ~98% slicer level acquisition per chip
    double leak_alpha = 0.0;   ///< ~4% slicer level decay per chip
    /// Slicer fast capture: 2^(-125/3) of a step outside the band is left
    /// after a chip, i.e. exactly 0.5 per sample at 125/3 samples per chip
    /// (the single chain's rate at 93.75-750 chip/s).
    double capture_alpha = 0.0;
    std::size_t debounce = 1;  ///< hold: glitches < ~12% of a chip vanish
  };
  static Rule rule(double samples_per_chip) noexcept;

  /// The samples-per-chip rule of the single chain's front end: how far a
  /// DDC at `sample_rate_hz` decimates ahead of the chain for `chip_rate`.
  /// The factor is the largest power of two in [16, 128] that keeps >= 32
  /// samples per chip (16 when none does), and the DDC gets 8·factor + 1
  /// taps, so a filter-then-mix DDC does the same multiply-adds per raw
  /// sample at every factor. At 500 kS/s: 93.75 chip/s -> 128 and 1025
  /// taps, 375 -> 32 and 257 (41.7 samples per chip), 750 and up -> 16
  /// and 129. Any input, NaN included, yields a factor in [16, 128].
  struct Decimation {
    std::size_t factor = 16;
    std::size_t taps = 129;
  };
  static Decimation decimation(double sample_rate_hz,
                               double chip_rate) noexcept;

  struct Params {
    double rate_hz = 0.0;    ///< baseband sample rate
    double chip_rate = 0.0;  ///< FM0 chips per second
    double slicer_floor = 0.0;  ///< AdaptiveSlicer squelch separation
    /// Smallest |s| that updates the axis estimate (0 = every sample).
    double axis_floor = 0.0;
  };

  explicit DecisionChain(Params params);

  /// Runs one sample through the whole chain: decide(project(s)).
  std::optional<phy::UlPacket> step(std::complex<double> s) {
    return decide(project(s));
  }

  /// The axis half of a step: tracks the modulation axis and returns the
  /// projection of `s` on it. A sample that is not finite (see
  /// dsp::AxisTracker::push) changes nothing and returns nullopt.
  std::optional<double> project(std::complex<double> s) noexcept {
    return axis_.push(s);
  }

  /// The decision half of a step: slicer -> debouncer -> run-length -> FM0
  /// -> framer on one projected sample; returns the packet this sample
  /// completes. nullopt (a sample that is not finite) updates no estimator:
  /// the held decision level extends the current run.
  std::optional<phy::UlPacket> decide(std::optional<double> envelope) {
    const bool level = envelope ? debouncer_.push(slicer_.push(*envelope))
                                : debouncer_.level();
    if (const auto run = runs_.push(level)) return decode_run(run->samples);
    return std::nullopt;
  }

  /// Counts `samples` baseband samples, then publishes every counter.
  /// Call once per block, on the decode thread.
  void publish(std::size_t samples);

  /// Registry counters that publish() advances (nullptr = unbound).
  void bind(telemetry::Counter* iq_samples, telemetry::Counter* bits,
            telemetry::Counter* frames_ok, telemetry::Counter* crc_failures);

  /// Working counters (decode thread).
  DecisionCounts counts() const noexcept;

  /// Counters as of the last publish() (any thread).
  DecisionCounts published() const noexcept;

  /// Clears the decision state (axis, levels, runs, FM0 phase, partial
  /// frame); counters are kept.
  void reset();

 private:
  DecisionChain(const Params& params, const Rule& rule);

  /// FM0 and framer on a completed run of `samples` samples. Out of line:
  /// runs are rare next to samples, and the per-sample loop stays small.
  std::optional<phy::UlPacket> decode_run(std::size_t samples);

  double rate_hz_;
  dsp::AxisTracker axis_;
  dsp::AdaptiveSlicer slicer_;
  dsp::Debouncer debouncer_;
  dsp::RunLengthEncoder runs_;
  Fm0StreamDecoder fm0_;
  phy::UlFramer framer_;
  std::uint64_t iq_samples_ = 0;
  std::uint64_t bits_ = 0;
  DecisionCounts last_published_;
  std::atomic<std::uint64_t> pub_iq_samples_{0};
  std::atomic<std::uint64_t> pub_bits_{0};
  std::atomic<std::uint64_t> pub_frames_{0};
  std::atomic<std::uint64_t> pub_crc_{0};
  telemetry::Counter* m_iq_samples_ = nullptr;
  telemetry::Counter* m_bits_ = nullptr;
  telemetry::Counter* m_frames_ = nullptr;
  telemetry::Counter* m_crc_ = nullptr;
};

}  // namespace arachnet::reader
