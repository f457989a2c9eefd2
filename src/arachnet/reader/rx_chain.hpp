#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "arachnet/dsp/cluster.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/kernels/nco.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/reader/decision_chain.hpp"
#include "arachnet/sim/rng.hpp"

namespace arachnet::reader {

/// A decoded uplink packet with its arrival time.
struct RxPacket {
  phy::UlPacket packet;
  double time_s = 0.0;     ///< time of the last sample of the packet
  std::size_t channel = 0; ///< FDMA subcarrier channel (0 for the single-
                           ///< channel chain)
};

/// The reader's uplink receive chain — the paper's real-time software path
/// (Sec. 6.1): down conversion -> low-pass filtering and decimation ->
/// optional frequency-offset calibration -> carrier-leak removal -> the
/// shared decision back end (DecisionChain: axis projection -> Schmitt
/// trigger -> run-length timing -> FM0 bit recovery -> preamble framing ->
/// CRC check).
///
/// Fixed settings, the same for every caller:
///  - the DDC's decimation D and filter length follow the chip rate
///    (DecisionChain::decimation): D is the largest power of two in
///    [16, 128] that keeps >= 32 IQ samples per chip, with 8·D + 1 taps —
///    at 500 kS/s, D = 128 at 93.75 chip/s, 64 at 187.5, 32 at 375 and 16
///    from 750 up;
///  - the DDC low-pass cutoff follows the chip rate,
///    clamp(3.5 * chip_rate, 1.5 kHz, 12.5 kHz) — narrow for slow links to
///    cut noise, wide for fast links to avoid inter-symbol interference;
///  - the slicer squelch floor is 0.002 at the 1.5 kHz cutoff and grows
///    with the square root of the cutoff, as the baseband noise does;
///  - for the first 9.6 ms of IQ samples after construction, resync() or
///    reset() (300 samples at D = 16, 38 at D = 128) the leak EMA runs at
///    alpha 0.05 per 16 raw samples — 0.05 per IQ sample at D = 16, 0.34
///    at D = 128 — to converge past the filter start-up transient or a
///    leak step, while the back end, axis included, sees no sample: its
///    axis starts at the first decided sample, not on the residual the
///    warm-up is still cancelling. Both the warm-up's length and its time
///    constant are fixed in time, so it fits in the tag's 20 ms reply gap
///    and cancels the leak equally deeply at every D.
///
/// Also retains the slot's decimated IQ points so the MAC layer can run the
/// cluster-based capture-effect collision detector.
///
/// process() dates each packet the back end returns by the raw sample that
/// completed it. The back end's published counters (atomics) make the
/// chain neither copyable nor movable: construct it in place.
class RxChain {
 public:
  struct Params {
    /// Sample rate, carrier and kernel policy of the down-converter; its
    /// decimation, taps and cutoff_hz are replaced by the chip-rate rules
    /// above.
    dsp::Ddc::Params ddc{};
    double chip_rate = phy::kDefaultUlRawBitRate;
    /// Leak-cancellation tracking per chip after the warm-up. Zero (the
    /// default) freezes the leak estimate: within one slot the baseline is
    /// static. Across slots it shifts with the set of absorptive tags
    /// parked on the channel — slotted operation calls resync() at each
    /// slot start, re-estimating the baseline in the tag's 20 ms reply gap.
    double leak_ema_alpha = 0.0;
    /// Frequency-offset calibration: when nonzero, a one-shot offset
    /// estimate is taken over this many seconds of IQ samples and applied
    /// from then on. Must be finite and non-negative.
    double freq_cal_s = 0.0;
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
  std::size_t crc_failures() const noexcept {
    return decision_.counts().crc_failures;
  }

  /// FM0 bits recovered so far (pre-framing).
  std::uint64_t bits_decoded() const noexcept {
    return decision_.counts().bits;
  }

  /// Decode counters as of the last process() call; safe to read from any
  /// thread. iq_samples counts every IQ sample the DDC produced.
  DecisionCounts published_counts() const noexcept {
    return decision_.published();
  }

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

  /// Re-baselines at a slot boundary: re-runs the leak warm-up on the
  /// guaranteed-quiet reply gap (tags wait 20 ms after the beacon), and
  /// clears the modulation-axis estimate and decision state. Filter state
  /// is kept. Call at the start of each uplink slot in slotted operation.
  void resync();

  /// Resets all DSP state (full restart, e.g. on RESET).
  void reset();

  /// The settings the chain runs: the caller's, with ddc's decimation,
  /// taps and cutoff_hz resolved by the chip-rate rules above.
  const Params& params() const noexcept { return params_; }

 private:
  /// One IQ sample through leak removal and the back end; returns the
  /// packet it completes.
  std::optional<phy::UlPacket> on_iq(std::complex<double> iq);
  /// Per-IQ-sample phase step of the frequency-offset derotation.
  double derotation_step() const noexcept;

  Params params_;
  dsp::Ddc ddc_;
  /// IQ samples of leak warm-up and its leak EMA rate per IQ sample, and
  /// IQ samples of frequency calibration (0 = none).
  std::size_t warmup_samples_;
  double warmup_alpha_;
  std::size_t freq_cal_samples_;
  double leak_alpha_ = 0.0;
  DecisionChain decision_;
  std::vector<RxPacket> packets_;
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
