#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/core/slot_network.hpp"
#include "arachnet/dsp/pipeline.hpp"
#include "arachnet/fleet/bus.hpp"
#include "arachnet/fleet/dedup.hpp"
#include "arachnet/fleet/planner.hpp"
#include "arachnet/phy/bits.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/telemetry/metrics.hpp"

namespace arachnet::fleet {

/// One packet the fleet delivered (post dedup / censoring), in the
/// deterministic merged order the coordinator produced it.
struct FleetPacket {
  std::uint64_t epoch = 0;   ///< coordinator epoch that delivered it
  std::int64_t slot = 0;     ///< transmission slot (slot mode) / tx seq
  int reader = 0;            ///< reader that reported it
  std::uint32_t tag = 0;     ///< global tag id
  std::uint32_t seq = 0;     ///< per-tag delivery sequence (monotonic)
  std::uint16_t channel = 0; ///< FDMA channel the uplink used
  bool overheard = false;    ///< reported by a non-owner (coverage overlap)

  friend bool operator==(const FleetPacket&, const FleetPacket&) = default;
};

/// Fleet-scale sharded multi-reader engine.
///
/// Each of N readers owns a shard — a core::SlotNetwork (slot mode: the
/// calibrated protocol abstraction, hundreds of tags) or a
/// reader::FdmaRxChain + waveform synthesizer (waveform mode: the real
/// per-sample DSP) — and the shards are connected by an in-process
/// MessageBus. Execution is bulk-synchronous per epoch:
///
///   1. serial pre-phase: bus.commit() delivers last epoch's traffic; the
///      coordinator applies handoffs and membership changes to the shards
///      in message order, then re-plans if membership changed;
///   2. parallel phase: every active shard advances one epoch
///      (slots_per_epoch slots, or epoch_duration_s of waveform DSP) on a
///      dsp::WorkerPool sized by `shards`, publishing decoded packets to
///      its own bus outbox (one writer per outbox: lock-free);
///   3. serial collect phase: co-channel censoring, duplicate suppression
///      (DedupWindow keyed on tag/seq/epoch), sequence assignment, packet
///      log append, overhearing synthesis, handoff decisions.
///
/// Determinism contract: shard tasks touch only their own state and draw
/// from sim::Rng streams namespaced by GLOBAL reader id (never by worker
/// or shard index), and both serial phases iterate in fixed (priority,
/// reader id, sequence) order — so the packet log, digest() and stats are
/// bit-exact for any `shards` value (1, 2, 4, 8, ...) and any worker
/// interleaving. A fleet whose readers do not overlap equals the
/// deterministic merge of per-reader single-shard engines (see
/// Params::first_reader_id), which is what ci/perf_gate.py gates.
class FleetEngine {
 public:
  enum class Mode {
    kSlot,     ///< SlotNetwork shards: protocol coordination at scale
    kWaveform  ///< FdmaRxChain shards: real DSP, honest parallel scaling
  };

  struct Params {
    Mode mode = Mode::kSlot;
    /// Readers managed by this engine instance.
    std::size_t readers = 4;
    /// Global id of reader 0 (single-reader parity references carve one
    /// global reader out of a larger fleet; see the determinism note).
    int first_reader_id = 0;
    /// Global fleet size for topology/stream namespacing. 0 = derive as
    /// first_reader_id + readers.
    std::size_t total_readers = 0;
    /// Concurrent shard executors (WorkerPool width). 0 = one per reader.
    /// Any value yields the identical packet log.
    std::size_t shards = 0;
    std::uint64_t seed = 1;

    // ---- slot mode ----
    std::size_t tags_per_reader = 8;
    std::size_t slots_per_epoch = 32;
    core::SlotNetwork::Params slot{};  ///< template; seed set per shard
    /// Base link gain a ring-neighbour reader has to another reader's
    /// tags. 0 disables overlap entirely (no duplicates, no handoffs, no
    /// interference) — the parity topology.
    double neighbor_gain = 0.6;
    /// Sinusoidal drift amplitude/period (epochs) of neighbour gains; the
    /// drift is a pure function of (reader, tag, epoch), never random.
    double gain_drift_amplitude = 0.5;
    std::uint64_t gain_drift_period = 16;
    /// A neighbour with drifted gain at or above this overhears the tag's
    /// uplink (duplicate reports on the bus).
    double overhear_threshold = 0.85;
    /// Handoff hysteresis: ownership moves only when the best neighbour
    /// exceeds the owner's gain by this margin.
    double handoff_margin = 0.05;

    // ---- planner ----
    bool planner_enabled = true;
    std::size_t planner_channels = 16;

    // ---- dedup ----
    std::size_t dedup_window = 4096;

    // ---- bus ----
    MessageBus::Params bus{};

    // ---- waveform mode ----
    std::size_t channels_per_reader = 4;
    /// Must cover a full uplink packet: 32 FM0 bits at 375 bps is ~0.17 s
    /// on air, plus the synth start offset.
    double epoch_duration_s = 0.25;
    acoustic::UplinkWaveformSynth::Params synth{};
    /// Subcarrier grid for each reader's bank: origin + spacing * k.
    double subcarrier_origin_hz = 3000.0;
    double subcarrier_spacing_hz = 1500.0;

    // ---- telemetry ----
    /// Optional registry: `fleet.*` counters/histograms and the bus's
    /// `fleet.bus.*` instruments, all under `metrics_scope`.
    telemetry::MetricsRegistry* metrics = nullptr;
    std::string metrics_scope;
  };

  struct Stats {
    std::uint64_t epochs = 0;
    std::uint64_t packets = 0;         ///< delivered into the packet log
    std::uint64_t dup_suppressed = 0;  ///< duplicates the window caught
    std::uint64_t dup_passed = 0;      ///< duplicates past an evicted key
    std::uint64_t handoffs = 0;        ///< ownership moves applied
    std::uint64_t conflicts = 0;       ///< co-channel censored reports
    std::uint64_t tdma_muted = 0;      ///< uplinks muted by TDMA gating
    std::size_t active_readers = 0;
    MessageBus::Stats bus{};
    DedupWindow::Stats dedup{};
  };

  explicit FleetEngine(Params params);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Advances the fleet by `n` BSP epochs.
  void run_epochs(std::size_t n);

  /// Runs barrier-only epochs (no shard stepping) so traffic still in
  /// flight on the bus lands in the packet log. Call after the last
  /// run_epochs() before comparing logs/digests.
  void flush(std::size_t epochs = 2);

  /// Requests that global reader `reader_id` leave (join) the fleet; the
  /// request travels the bus as a kMembership message and is applied at
  /// the next epoch's pre-phase, where the departing reader's tags hand
  /// off to the best-covering active reader. Call between run_epochs()
  /// calls only (the request is published from the coordinator thread).
  void request_leave(int reader_id);
  void request_join(int reader_id);

  /// Everything delivered so far, in deterministic coordinator order.
  const std::vector<FleetPacket>& packet_log() const noexcept {
    return log_;
  }

  /// FNV-1a over the packet log — one number that must match across any
  /// shard count (and, merged, across single-reader references).
  std::uint64_t digest() const noexcept;

  Stats stats() const;

  std::uint64_t epoch() const noexcept { return epoch_; }
  std::size_t reader_count() const noexcept { return shards_.size(); }
  std::size_t shard_width() const noexcept { return shard_width_; }
  bool reader_active(int reader_id) const;
  /// Current planner assignment of a global reader id.
  GridPlanner::Assignment assignment(int reader_id) const;
  /// Current owner (global reader id) of a global tag id.
  int tag_owner(std::uint32_t tag) const;

 private:
  struct Shard {
    int reader_id = 0;  ///< global id
    bool active = true;
    GridPlanner::Assignment assign{};
    std::uint64_t tdma_muted = 0;  ///< shard-task-owned; read at barrier
    // Slot mode.
    std::unique_ptr<core::SlotNetwork> net;
    // Waveform mode. Everything below is built once and reused: an epoch
    // rewrites the sources' chip streams and the waveform in place, so a
    // warm shard allocates nothing.
    std::unique_ptr<reader::FdmaRxChain> bank;
    std::unique_ptr<acoustic::UplinkWaveformSynth> synth;
    sim::Rng noise_rng{0};
    /// One tag per channel, with its subcarrier modulator.
    std::vector<phy::SubcarrierModulator> modulators;
    std::vector<acoustic::BackscatterSource> sources;
    /// Chip-stream scratch: a tag's frame bits and their FM0 chips.
    phy::BitVector frame_bits;
    phy::BitVector fm0_chips;
    std::vector<double> wave;
    std::vector<reader::RxPacket> drained;
  };

  /// Coordinator-side per-tag state; moves with ownership.
  struct TagState {
    int home = 0;   ///< initial (strongest-coverage) reader
    int owner = 0;  ///< current owner
    std::uint32_t next_seq = 1;
    std::int64_t last_slot = -1;  ///< newest transmission slot delivered
    core::SlotNetwork::TagSpec spec{};
  };

  void pre_phase();
  void parallel_phase();
  void collect_phase();
  void step_shard_slot(Shard& shard);
  void step_shard_waveform(Shard& shard);
  void apply_handoff(std::uint32_t tag, int to_reader);
  void recompute_plan();
  double gain(int reader_id, std::uint32_t tag, std::uint64_t epoch) const;
  bool ring_adjacent(int a, int b) const noexcept;
  bool interferes(int a, int b) const noexcept;
  Shard* find_shard(int reader_id);
  const Shard* find_shard(int reader_id) const;
  std::vector<int> active_reader_ids() const;
  std::size_t active_reader_count() const noexcept;

  Params params_;
  std::size_t total_readers_ = 0;
  std::size_t shard_width_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<dsp::WorkerPool> pool_;
  MessageBus bus_;
  GridPlanner planner_;
  DedupWindow dedup_;
  std::map<std::uint32_t, TagState> tags_;
  std::uint64_t epoch_ = 0;
  bool plan_dirty_ = true;
  /// kPacket messages delivered by this epoch's commit, in bus order.
  std::vector<BusMessage> inbox_packets_;
  /// collect_phase() scratch, reused across epochs: the co-channel censor's
  /// verdicts and the inbox indices of the fresh reports it logged.
  std::vector<bool> dropped_;
  std::vector<std::size_t> admitted_fresh_;
  std::uint64_t tdma_muted_total_ = 0;
  std::vector<FleetPacket> log_;
  // Aggregate counters (coordinator-thread only).
  std::uint64_t packets_ = 0;
  std::uint64_t dup_suppressed_ = 0;
  std::uint64_t dup_passed_ = 0;
  std::uint64_t handoffs_ = 0;
  std::uint64_t conflicts_ = 0;
  // Registry instruments (nullable; bound once in the constructor).
  telemetry::Counter* c_packets_ = nullptr;
  telemetry::Counter* c_dup_suppressed_ = nullptr;
  telemetry::Counter* c_dup_passed_ = nullptr;
  telemetry::Counter* c_handoffs_ = nullptr;
  telemetry::Counter* c_conflicts_ = nullptr;
  telemetry::Counter* c_tdma_muted_ = nullptr;
  telemetry::Gauge* g_active_readers_ = nullptr;
  telemetry::LatencyHistogram* h_epoch_ms_ = nullptr;
};

}  // namespace arachnet::fleet
