#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "arachnet/dsp/axis_tracker.hpp"
#include "arachnet/dsp/cluster.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/nco.hpp"
#include "arachnet/dsp/schmitt.hpp"
#include "arachnet/dsp/slicer.hpp"
#include "arachnet/phy/framer.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/reader/fm0_stream_decoder.hpp"
#include "arachnet/sim/rng.hpp"

namespace arachnet::reader {

/// A decoded uplink packet with its arrival time.
struct RxPacket {
  phy::UlPacket packet;
  double time_s = 0.0;     ///< time of the last sample of the packet
  std::size_t channel = 0; ///< FDMA subcarrier channel (0 for the single-
                           ///< channel chain)
};

/// Converts a per-chip dynamics target (e.g. "98% level acquisition per
/// chip") into the per-sample EMA alpha that achieves it at
/// `samples_per_chip`. Shared by RxChain's resolve_* helpers and the FDMA
/// bank so the two chains cannot drift apart.
double per_sample_alpha(double per_chip, double samples_per_chip);

/// The reader's uplink receive chain — the paper's real-time software path
/// (Sec. 6.1): down conversion -> low-pass filtering and decimation ->
/// envelope extraction with DC (carrier-leak) removal -> Schmitt trigger ->
/// run-length timing -> FM0 bit recovery -> preamble framing -> CRC check.
///
/// Also retains the slot's decimated IQ points so the MAC layer can run the
/// cluster-based capture-effect collision detector.
class RxChain {
 public:
  struct Params {
    dsp::Ddc::Params ddc{};
    double chip_rate = phy::kDefaultUlRawBitRate;
    /// Match the DDC low-pass bandwidth to the chip rate (narrow for slow
    /// links to cut noise, wide for fast links to avoid inter-symbol
    /// interference). Overrides ddc.cutoff_hz with
    /// clamp(3.5 * chip_rate, 1.5 kHz, 12.5 kHz).
    bool auto_bandwidth = true;
    dsp::AdaptiveSlicer::Params slicer{};
    /// Leak-cancellation tracking rate after warmup. Zero (the default)
    /// freezes the leak estimate: within one slot the baseline is static.
    /// Across slots it shifts with the set of absorptive tags parked on
    /// the channel — slotted operation calls resync() at each slot start,
    /// re-estimating the baseline in the tag's 20 ms reply gap.
    double leak_ema_alpha = 0.0;
    /// During the first `leak_warmup_samples` IQ samples the leak EMA uses
    /// `leak_warmup_alpha` so it converges past the filter start-up
    /// transient before weak packets can arrive.
    std::size_t leak_warmup_samples = 300;
    double leak_warmup_alpha = 0.05;
    /// Modulation-axis tracking rate: EMA of the complex pseudo-variance
    /// of (iq - leak); its half-angle is the 1-D axis the tag's OOK lives
    /// on. Projecting onto it keeps modulation depth independent of the
    /// reflection phase (the quadrature-fading problem).
    double axis_ema_alpha = 0.01;
    /// Frequency-offset calibration: when nonzero, a one-shot offset
    /// estimate is applied after this many IQ samples.
    std::size_t freq_cal_samples = 0;
    /// Retain decimated IQ points for the MAC collision detector
    /// (iq_points()/collision_detected()). Slotted operation clears the
    /// buffer every slot, so the growth is bounded; streaming sessions
    /// (RealtimeReader, ReaderService) never call the detector, and for
    /// them an ever-growing point list is both a leak and a steady-state
    /// allocation source — they construct the chain with this off.
    bool retain_iq_points = true;
  };

  explicit RxChain(Params params);

  /// Processes a block of raw DAQ samples; decoded packets are appended to
  /// the internal list (see packets()).
  void process(const double* samples, std::size_t n);

  /// Vector convenience forwarder for the span-style overload above.
  void process(const std::vector<double>& samples) {
    process(samples.data(), samples.size());
  }

  /// All packets decoded so far.
  const std::vector<RxPacket>& packets() const noexcept { return packets_; }

  /// Clears decoded packets (keeps DSP state).
  void clear_packets() { packets_.clear(); }

  /// CRC failures observed by the framer.
  std::size_t crc_failures() const noexcept { return framer_.crc_failures(); }

  /// FM0 bits recovered so far (pre-framing).
  std::uint64_t bits_decoded() const noexcept { return bits_decoded_; }

  /// Decimated IQ points accumulated since the last clear — input to the
  /// IQ-cluster collision detector.
  const std::vector<std::complex<double>>& iq_points() const noexcept {
    return iq_points_;
  }
  void clear_iq_points() { iq_points_.clear(); }

  /// Runs the collision detector over the accumulated IQ points.
  bool collision_detected(sim::Rng& rng) const;

  /// Number of raw samples consumed.
  std::size_t samples_consumed() const noexcept { return sample_count_; }

  /// Re-baselines at a slot boundary: re-runs the leak warmup on the
  /// guaranteed-quiet reply gap (tags wait 20 ms after the beacon), and
  /// clears the modulation-axis estimate and decision state. Filter state
  /// is kept. Call at the start of each uplink slot in slotted operation.
  void resync();

  /// Resets all DSP state (full restart, e.g. on RESET).
  void reset();

  const Params& params() const noexcept { return params_; }

 private:
  void on_iq(std::complex<double> iq);
  /// Per-IQ-sample phase step of the frequency-offset derotation.
  double derotation_step() const noexcept;

  Params params_;
  dsp::Ddc ddc_;
  dsp::AdaptiveSlicer slicer_;
  dsp::Debouncer debouncer_;
  dsp::AxisTracker axis_;
  double leak_alpha_ = 0.0;
  dsp::RunLengthEncoder runs_;
  Fm0StreamDecoder fm0_;
  phy::UlFramer framer_;
  std::vector<RxPacket> packets_;
  std::uint64_t bits_decoded_ = 0;
  std::vector<std::complex<double>> iq_points_;
  std::size_t sample_count_ = 0;
  std::size_t iq_sample_index_ = 0;
  std::complex<double> leak_estimate_{0.0, 0.0};
  bool leak_primed_ = false;
  double freq_offset_hz_ = 0.0;
  bool freq_calibrated_ = false;
  dsp::PhasorNco derotator_;
  std::vector<std::complex<double>> cal_buffer_;
  /// Scratch for the DDC output, reused across process()
  /// calls (no steady-state allocation).
  std::vector<std::complex<double>> iq_buf_;
};

}  // namespace arachnet::reader
