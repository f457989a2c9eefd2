#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arachnet/dsp/ring_buffer.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/rx_chain.hpp"

namespace arachnet::reader {

/// Threaded real-time reader front half: the DAQ thread pushes raw sample
/// blocks into a bounded ring buffer (back-pressure throttles a producer
/// that outruns the DSP), a worker thread runs the receive chain, and
/// decoded packets stream out through a second buffer — the architecture
/// the paper describes for its real-time reader software (Sec. 6.1).
///
/// Two chain modes share the same submit/poll surface:
///  - single-channel (default): the slotted RxChain, packets on channel 0;
///  - FDMA bank (Params::fdma set): the multi-subcarrier FdmaRxChain, whose
///    worker-pool fan-out parallelizes the per-channel DSP inside the
///    reader's DSP thread; packets carry their channel index.
class RealtimeReader {
 public:
  using Block = std::vector<double>;

  struct Params {
    RxChain::Params chain{};
    /// When set, run the FDMA subcarrier bank instead of the single chain.
    std::optional<FdmaRxChain::Params> fdma{};
    std::size_t input_capacity = 8;    ///< blocks in flight
    std::size_t output_capacity = 256; ///< decoded packets buffered
    /// Full-output-queue policy. false (default): block the DSP thread
    /// until the consumer drains (back-pressure, the paper's Sec. 6.1
    /// behaviour). true: drop the packet and count it — the real-time
    /// choice when a stalled consumer must not stall the DSP thread.
    /// Dropped packets are never counted as emitted (stats() and the
    /// `reader.packets_emitted` counter see successful pushes only).
    bool drop_on_full_output = false;
    /// Optional metrics registry (must outlive the reader). Registers the
    /// `reader.*` block-latency histogram, queue-depth gauges, and
    /// packet/stall counters, and is forwarded to the FDMA bank unless the
    /// bank params carry their own registry. nullptr = no instrumentation.
    telemetry::MetricsRegistry* metrics = nullptr;
    /// Per-instance metric-name prefix (e.g. "r0.") so several readers can
    /// share one registry without their `reader.*` counters silently
    /// summing into the same instruments. Empty (the default) keeps the
    /// historical unscoped names. Forwarded to the FDMA bank unless the
    /// bank params carry their own scope.
    std::string metrics_scope;
  };

  /// Live counters: queue depths plus per-channel decode statistics
  /// (one entry per FDMA channel; a single entry in single-channel mode).
  struct Stats {
    std::uint64_t samples_processed = 0;
    std::uint64_t packets_emitted = 0;  ///< successfully pushed to the output
    std::uint64_t packets_dropped = 0;  ///< lost to a full/closed output
    /// Packets still buffered inside the single chain's decode list after
    /// the last block's drain — steady-state 0 (the worker clears the list
    /// every block). Regression guard for the long-run leak where the list
    /// grew without bound; FDMA mode reports 0 (the bank keeps its own
    /// per-channel retention contract, see FdmaRxChain::packets()).
    std::uint64_t chain_buffered_packets = 0;
    std::size_t input_depth = 0;   ///< raw blocks waiting for the DSP
    std::size_t input_capacity = 0;
    std::size_t output_depth = 0;  ///< decoded packets not yet fetched
    /// Total time producers/worker spent blocked on a full queue
    /// (back-pressure): submit() stalls plus output-side stalls.
    double backpressure_stall_s = 0.0;
    std::vector<FdmaRxChain::ChannelStats> channels;
  };

  explicit RealtimeReader(Params params);
  ~RealtimeReader();

  RealtimeReader(const RealtimeReader&) = delete;
  RealtimeReader& operator=(const RealtimeReader&) = delete;

  /// Starts the DSP worker thread. Restartable: calling start() again
  /// after stop() reopens both queues and spawns a fresh worker — chain
  /// DSP state, all counters, any blocks still queued at the close point
  /// (there are none after stop(), which drains) and any undrained output
  /// packets carry over, so a stop()/start() pair is a pause, not a
  /// reset. start() while the worker is already running is a no-op.
  /// start/stop must be called from one control thread.
  void start();

  /// Submits a block of raw DAQ samples. Blocks while the input queue is
  /// full (back-pressure). Returns false while stopped (between stop()
  /// and a restart).
  bool submit(Block block);

  /// Non-blocking fetch of the next decoded packet.
  std::optional<RxPacket> poll_packet();

  /// Blocking fetch; nullopt once stopped and drained.
  std::optional<RxPacket> wait_packet();

  /// Closes the input, drains the worker, and joins it. Blocks already
  /// accepted by submit() are still fully processed and their packets
  /// remain fetchable — shutdown loses nothing before the close point.
  /// The reader may be restarted afterwards with start().
  void stop();

  /// Raw samples processed so far (worker-side).
  std::uint64_t samples_processed() const noexcept {
    return samples_processed_.load(std::memory_order_relaxed);
  }

  /// Thread-safe snapshot of queue depths and per-channel counters.
  Stats stats() const;

  /// The parameters the reader actually runs with. When a registry was
  /// forwarded into the FDMA bank, the stored `fdma->metrics` reflects
  /// that patch, so introspection agrees with the live bank.
  const Params& params() const noexcept { return params_; }

 private:
  /// One queued capture block plus its submit timestamp, so the worker
  /// can attribute input-queue wait separately from DSP time.
  struct InputItem {
    Block block;
    std::uint64_t submit_ns = 0;
  };

  void worker_loop();
  /// Pushes one decoded packet per Params::drop_on_full_output; returns
  /// whether it was actually enqueued.
  bool emit_packet(RxPacket pkt, std::uint64_t* stall_ns);

  Params params_;
  // Exactly one is built: the chain the configured mode runs.
  std::unique_ptr<RxChain> chain_;
  std::unique_ptr<FdmaRxChain> fdma_;
  dsp::RingBuffer<InputItem> input_;
  dsp::RingBuffer<RxPacket> output_;
  std::thread worker_;
  /// Worker-thread drain scratch, reused across blocks: once grown to
  /// the high-water packet count, the per-block FDMA drain stops
  /// allocating (part of the steady-state allocation contract).
  std::vector<RxPacket> drained_;
  std::atomic<std::uint64_t> samples_processed_{0};
  /// Packets left in chain_->packets() after a block's drain (the leak
  /// regression observable behind Stats::chain_buffered_packets).
  std::atomic<std::uint64_t> chain_buffered_{0};
  /// Packets successfully pushed to the output (cross-thread, stats()).
  std::atomic<std::uint64_t> packets_emitted_{0};
  /// Packets lost to a full (drop_on_full_output) or closed output.
  std::atomic<std::uint64_t> packets_dropped_{0};
  /// Nanoseconds spent blocked on full queues (submit + output side).
  std::atomic<std::uint64_t> stall_ns_{0};
  // Registry instruments (nullable; bound once in the constructor).
  telemetry::LatencyHistogram* h_block_ms_ = nullptr;
  // Per-stage breakdown of the block path: input-queue wait (submit ->
  // worker pop), chain DSP, packet emit. reader.block_ms stays the
  // pop -> done view (process + emit) it has always been.
  telemetry::LatencyHistogram* h_stage_wait_ms_ = nullptr;
  telemetry::LatencyHistogram* h_stage_process_ms_ = nullptr;
  telemetry::LatencyHistogram* h_stage_emit_ms_ = nullptr;
  telemetry::Gauge* g_input_depth_ = nullptr;
  telemetry::Gauge* g_output_depth_ = nullptr;
  telemetry::Counter* c_packets_emitted_ = nullptr;
  telemetry::Counter* c_packets_dropped_ = nullptr;
  telemetry::Counter* c_stall_ns_ = nullptr;
  telemetry::Counter* c_blocks_ = nullptr;
};

}  // namespace arachnet::reader
