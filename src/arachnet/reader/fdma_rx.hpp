#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/channelizer.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/simd/stages.hpp"
#include "arachnet/dsp/pipeline.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/reader/decision_chain.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/telemetry/metrics.hpp"

namespace arachnet::reader {

/// FDMA uplink receiver: a bank of subcarrier channels on top of the main
/// down-converter. Each tag mixes its FM0 chips with a distinct square
/// subcarrier (phy::SubcarrierModulator), placing its energy at
/// carrier +/- f_sc; each channel shifts one such band to DC, low-pass
/// filters it against the neighbours, decimates it, and runs the shared
/// decision back end (DecisionChain, the same one RxChain runs). Tags on
/// different subcarriers decode simultaneously — the paper's FDMA
/// extension path (Sec. 6.3). The subcarrier set is fixed at construction.
///
/// The main DDC passes the top subcarrier plus 3 chip rates of FM0
/// sidebands in its flat passband: its cutoff sits half a transition band
/// above that edge, as far as aliasing allows (see params()).
///
/// Both front-end structures behind Params::bank (see BankPolicy) hand
/// every channel's back end a lane: the channel's band at DC, one sample
/// per M IQ samples on the frame grid (F+1)*M - 1, where M is the
/// channelizer planner's lane decimation
/// (dsp::PolyphaseChannelizer::lane_decimation, >= 8 samples per chip;
/// M = 16 at 62.5 kS/s and 375 chip/s, 10.4 samples per chip):
///  - per-channel: C independent NCO-mix + FIR stages; each mixer writes
///    into its filter's history and the filter runs at every M-th IQ
///    sample only, O(N * C * (1 + taps/M)) — the reference path;
///  - channelizer: one shared dsp::PolyphaseChannelizer front-end,
///    O(N/M * (taps + C*logC)) — it replaces every channel's mixer+LPF.
///    Each lane has its own FFT bin and residual phasor, so any subcarrier
///    set the planner accepts works, uniform grid or not.
/// The per-channel bank is faster below about 8 channels, the channelizer
/// from there (kAuto picks by that crossover). Decoded packet streams are
/// identical across bank policies: payloads, channels and CRC verdicts
/// exactly, timestamps within 2 lane samples (DESIGN.md §7, parity
/// contract).
///
/// Threading model: the main DDC (and, in channelizer mode, the shared
/// filterbank) runs on the calling thread, then each sample block fans out
/// across a persistent dsp::WorkerPool with one task per channel. Channels
/// live on the heap and never share mutable state, so the parallel bank is
/// bit-identical to the sequential one (`Params::workers = 1`); decoded
/// packets merge deterministically by (completion sample, channel index)
/// via drain_packets().
class FdmaRxChain {
 public:
  /// Front-end structure for the subcarrier bank.
  enum class BankPolicy {
    kPerChannel,   ///< independent mixer + LPF per channel (reference)
    kChannelizer,  ///< shared polyphase FFT filterbank; falls back to
                   ///< per-channel with a logged reason when the plan is
                   ///< not viable (two subcarriers in one FFT bin, a bin
                   ///< at DC or Nyquist, no room to decimate)
    kAuto,         ///< channelizer when the plan is viable and the bank
                   ///< has >= 8 channels (below that the per-channel
                   ///< bank is faster), else per-channel
  };

  struct ChannelSpec {
    double subcarrier_hz = 3000.0;
  };

  /// Per-channel decode counters (monotonic since construction). Safe to
  /// read from any thread; values are published at block granularity.
  struct ChannelStats {
    double subcarrier_hz = 0.0;
    /// Lane samples through the channel's decision chain, one per M IQ
    /// samples on both banks (M: the lane decimation, see the class
    /// comment).
    std::uint64_t iq_samples = 0;
    std::uint64_t bits = 0;          ///< FM0 bits recovered (pre-framing)
    std::uint64_t frames_ok = 0;     ///< CRC-valid packets
    std::uint64_t crc_failures = 0;  ///< framed bodies that failed CRC
  };

  struct Params {
    /// Sample rate, carrier, decimation and taps of the main DDC; its
    /// cutoff_hz and kernels are replaced (see params()).
    dsp::Ddc::Params ddc{};
    double chip_rate = phy::kDefaultUlRawBitRate;  ///< finite, > 0
    std::vector<ChannelSpec> channels;
    /// Worker threads for the per-block channel fan-out. 0 = auto (one per
    /// hardware thread); 1 = strictly sequential on the calling thread.
    std::size_t workers = 0;
    /// Optional metrics registry. When set, the chain registers per-channel
    /// decode counters (`fdma.ch<i>.{iq_samples,bits,frames,crc_failures}`),
    /// a worker-pool dispatch-latency histogram (`fdma.dispatch_us`), the
    /// active-front-end gauge `fdma.bank_policy` (0 = per-channel,
    /// 1 = channelizer), the channelizer counters
    /// `fdma.chzr.{frames,fft_us}`, and per-block stage histograms
    /// `fdma.stage.{frontend_us,decode_us}` (shared front-end vs channel
    /// fan-out). The registry must outlive the chain.
    /// nullptr = no instrumentation.
    telemetry::MetricsRegistry* metrics = nullptr;
    /// Per-instance metric-name prefix (e.g. "r0.") so several banks can
    /// share one registry without their `fdma.*` instruments colliding.
    /// Empty (the default) keeps the historical unscoped names.
    std::string metrics_scope;
    /// DSP implementation for the main DDC, the per-channel mixer/LPF and
    /// the channelizer front-end. Decoded packets are identical across
    /// policies (see KernelPolicy); kSimd is the production default.
    dsp::KernelPolicy kernels = dsp::default_kernel_policy();
    /// Bank front-end selection; resolved once at construction (see
    /// BankPolicy and active_bank()).
    BankPolicy bank = BankPolicy::kAuto;
    /// Channelizer fold precision under kSimd: kAuto rides the float32
    /// fast path; kFloat64 pins the double-precision fold (the speedup
    /// baseline for benches and parity tests). Ignored on the per-channel
    /// front-end and outside kSimd.
    dsp::PolyphaseChannelizer::Params::Fold chzr_fold =
        dsp::PolyphaseChannelizer::Params::Fold::kAuto;
  };

  explicit FdmaRxChain(Params params);

  /// Processes raw DAQ samples. Not reentrant: one processing thread at a
  /// time (the worker fan-out happens internally).
  void process(const double* samples, std::size_t n);

  /// Vector convenience forwarder for the span-style overload above.
  void process(const std::vector<double>& samples) {
    process(samples.data(), samples.size());
  }

  /// Packets decoded on channel `i` since the last drain_packets()/
  /// clear_packets() call (draining releases them — an endless cursor
  /// over every packet ever decoded grew without bound in long sessions).
  const std::vector<phy::UlPacket>& packets(std::size_t channel) const;

  /// Drains packets decoded since the last drain, merged across channels
  /// in a deterministic order: by the IQ sample at which the packet
  /// completed, then by channel index. Independent of worker scheduling.
  /// Drained packets are released from the per-channel lists.
  std::vector<RxPacket> drain_packets();

  /// Allocation-free drain: clears `out` and refills it in place, so a
  /// caller reusing one vector across blocks stops allocating once the
  /// vector has grown to the high-water packet count (the steady-state
  /// contract RealtimeReader and ReaderService rely on). Returns the
  /// number of packets drained. Same deterministic order as above.
  std::size_t drain_packets(std::vector<RxPacket>& out);

  /// Clears decoded packets on all channels.
  void clear_packets();

  /// Thread-safe snapshot of one channel's counters.
  ChannelStats channel_stats(std::size_t channel) const;

  /// Snapshots of all channels, in channel order.
  std::vector<ChannelStats> all_channel_stats() const;

  std::size_t channel_count() const noexcept { return channels_.size(); }

  /// Threads used for the channel fan-out (1 = sequential).
  std::size_t worker_count() const noexcept { return workers_; }

  /// The front-end the bank runs: kChannelizer when the shared filterbank
  /// engaged at construction, kPerChannel otherwise (never kAuto).
  BankPolicy active_bank() const noexcept {
    return chzr_ ? BankPolicy::kChannelizer : BankPolicy::kPerChannel;
  }

  /// The settings the bank runs: the caller's, with the main DDC's
  /// kernels set to Params::kernels and its cutoff_hz resolved to
  /// top + 3 * chip_rate + min(T/2, iq_rate - 2 * (top + 3 * chip_rate)
  /// - T/2), at least top + 3 * chip_rate, where top is the highest
  /// subcarrier and T = 3.3 * sample_rate / taps the filter's transition
  /// band. So the top channel's band lies in the flat passband, and the
  /// stopband edge stays below iq_rate - (top + 3 * chip_rate), the lowest
  /// frequency that folds onto a channel.
  const Params& params() const noexcept { return params_; }

 private:
  /// One subcarrier: a front end, the decision back end and the packets
  /// decoded since the last drain, each with the IQ index it completed at.
  /// The back end's published counters (atomics) make a channel neither
  /// copyable nor movable, so the bank holds each on the heap
  /// (make_channel()/make_lane_channel() build it).
  ///
  /// The back end always reads a lane. On the channelizer bank the shared
  /// filterbank makes it; on the per-channel bank the channel owns an
  /// NCO + LPF that make it from IQ a block at a time.
  struct Channel {
    Channel(double hz, DecisionChain::Params decision_params,
            std::size_t lane_decim, std::int64_t lane_delay);

    /// Per-channel bank: mixes, filters and decimates `n` IQ samples a
    /// block at a time, each block's lane through process_lane().
    void process_block(const std::complex<double>* iq, std::size_t n);

    /// Runs the back end over `n` lane samples; `frame_base` is the
    /// absolute frame index of `lane_in[0]`.
    void process_lane(const std::complex<double>* lane_in, std::size_t n,
                      std::uint64_t frame_base);

    double subcarrier_hz;
    std::size_t lane_decim;  ///< M: IQ samples per lane sample
    /// Extra group delay (in IQ samples) of the channelizer prototype over
    /// the per-channel LPF, subtracted from lane packet timestamps so both
    /// banks date packets alike (0 on the per-channel bank).
    std::int64_t lane_delay;
    // Per-channel front end (unused on channelizer lanes). kScalar mixes
    // in double and steps `lpf` with feed()/push(); kSimd mixes float32
    // lanes straight into `slpf`'s history, which decimates.
    dsp::KernelPolicy kernels = dsp::default_kernel_policy();
    double nco_phase = 0.0;
    double nco_step = 0.0;
    std::optional<dsp::FirFilter<std::complex<double>>> lpf;
    std::size_t phase = 0;  ///< kScalar: IQ samples since the last output
    dsp::simd::SimdNco nco_s;
    std::optional<dsp::simd::FirSimdFilter> slpf;
    std::vector<float> lane_f;  ///< kSimd filter output, interleaved
    std::vector<std::complex<double>> lane;  ///< one block's lane samples
    std::uint64_t frames = 0;  ///< lane samples made so far
    DecisionChain decision;
    std::vector<phy::UlPacket> packets;
    std::vector<std::uint64_t> packet_iq_index;  ///< parallel to `packets`
  };

  std::unique_ptr<Channel> make_channel(double subcarrier_hz) const;
  std::unique_ptr<Channel> make_lane_channel(double subcarrier_hz) const;
  void validate_subcarrier(double hz,
                           const std::vector<double>& existing) const;
  void bind_channel_metrics(std::size_t index);
  /// Tries to stand up the channelizer front-end for the channel set;
  /// returns false (with a logged reason) when the configuration
  /// cannot use it.
  bool engage_channelizer(const std::vector<double>& freqs);

  Params params_;
  dsp::Ddc ddc_;
  double iq_rate_;
  /// The lane decimation M and rate of both banks.
  std::size_t lane_decim_;
  double lane_rate_;
  std::vector<double> channel_coeffs_;
  std::size_t workers_ = 1;
  std::unique_ptr<dsp::WorkerPool> pool_;
  std::vector<std::unique_ptr<Channel>> channels_;
  // Channelizer front-end (null = per-channel path) and the lane packets'
  // timestamp correction (see Channel::lane_delay).
  std::unique_ptr<dsp::PolyphaseChannelizer> chzr_;
  std::int64_t lane_delay_ = 0;
  // Registry instruments (nullable; bound once in the constructor).
  telemetry::Gauge* g_bank_policy_ = nullptr;
  telemetry::Counter* c_chzr_frames_ = nullptr;
  telemetry::Counter* c_chzr_fft_us_ = nullptr;
  // Per-block stage split of process(): front-end (main DDC + shared
  // channelizer, caller thread) vs decode (per-channel pool fan-out).
  telemetry::LatencyHistogram* h_stage_frontend_us_ = nullptr;
  telemetry::LatencyHistogram* h_stage_decode_us_ = nullptr;
  /// One piece's IQ samples (see process()), reserved at construction so
  /// that no process() call allocates it.
  std::vector<std::complex<double>> iq_buf_;
};

}  // namespace arachnet::reader
