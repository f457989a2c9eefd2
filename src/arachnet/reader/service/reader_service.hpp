#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arachnet/dsp/pipeline.hpp"
#include "arachnet/reader/service/dispatch_queue.hpp"
#include "arachnet/reader/service/session.hpp"
#include "arachnet/telemetry/metrics.hpp"

namespace arachnet::reader::service {

/// Multi-tenant reader ingest front-end: N concurrent capture sessions
/// (one 500 kS/s DAQ stream each) multiplexed over one shared
/// dsp::WorkerPool.
///
/// Where RealtimeReader owns one stream and one DSP thread, ReaderService
/// owns a *fleet*: each session gets its own RxChain, bounded output
/// queue, and QoS (priority, TTL, in-flight cap), while the heavy DSP
/// shares a single pool sized to the machine. Queue topology:
///
///   producers 1..N --submit()--> [per-session in-flight caps]
///                                           |
///                            DispatchQueue (priority + TTL, bounded)
///                                           |
///                        dispatcher thread: pop_batch, group by session
///                                           |
///                     WorkerPool fan-out (one worker per session group)
///                                           |
///                         per-session bounded output rings (consumers)
///
/// Overload policy is displacement, not back-pressure: submit() never
/// blocks. A full dispatch queue drops the lowest-priority newest block
/// (or the newcomer, if nothing outranks it); stale blocks past their TTL
/// are dropped at dispatch; a stalled consumer costs its own session
/// dropped packets, never pool time.
///
/// Admission control bounds the fleet at `sessions_per_core × workers`
/// active sessions. A session opened beyond the budget either sheds the
/// lowest-priority active session (when the newcomer strictly outranks
/// it) or is rejected. Closed sessions' slots are reused warm (see
/// Session::reset).
///
/// Zero-copy hand-off: sample blocks move (never copy) from submit()
/// through the dispatch queue to the pool worker, which feeds the chain
/// via the raw-pointer process(const double*, size_t) overload; spent
/// buffers recycle into the owning session's block pool.
///
/// Threading: submit()/poll from any threads; open/close/start/stop from
/// one control thread. Internally all session-map and submit-side state
/// is serialized by one mutex; decode runs outside it on pool workers.
class ReaderService {
 public:
  using Block = std::vector<double>;

  struct Params {
    /// Total DSP parallelism (pool threads + the dispatcher itself, which
    /// participates in every fan-out). 0 = hardware concurrency.
    std::size_t workers = 0;
    /// Admission budget: active sessions allowed per worker. The cap is
    /// max(1, round(sessions_per_core × workers)).
    double sessions_per_core = 4.0;
    /// Bounded dispatch-queue capacity (blocks queued for the pool across
    /// all sessions). 0 = 4 × workers.
    std::size_t dispatch_capacity = 0;
    /// Optional registry (must outlive the service): `session.*` fleet
    /// counters, `service.*` latency/depth instruments.
    telemetry::MetricsRegistry* metrics = nullptr;
    /// Per-instance metric-name prefix (e.g. "svc1.") so several services
    /// can share one registry without their instruments silently summing.
    /// Empty (the default) keeps the historical unscoped names.
    std::string metrics_scope;
  };

  /// Service-wide counters.
  struct Stats {
    std::size_t active_sessions = 0;
    std::size_t max_sessions = 0;       ///< admission cap
    std::uint64_t admissions_rejected = 0;
    std::uint64_t sessions_shed = 0;
    std::uint64_t slots_reused = 0;     ///< warm Session slot recycles
    std::uint64_t blocks_processed = 0;
    /// All blocks lost service-wide (cap, displacement, rejection, TTL,
    /// shed-abandonment); superset of blocks_expired.
    std::uint64_t blocks_dropped = 0;
    std::uint64_t blocks_expired = 0;   ///< TTL expiries
    std::uint64_t packets_emitted = 0;
    std::uint64_t packets_dropped = 0;
    std::size_t dispatch_depth = 0;     ///< blocks currently queued
    std::size_t dispatch_capacity = 0;
  };

  explicit ReaderService(Params params);
  ~ReaderService();

  ReaderService(const ReaderService&) = delete;
  ReaderService& operator=(const ReaderService&) = delete;

  /// Spawns the dispatcher. No-op while running or after stop().
  void start();

  /// Closes the dispatch queue, drains every queued block through the
  /// pool, joins the dispatcher, then closes every session output so
  /// consumers drain-then-stop. Terminal: the service cannot be
  /// restarted (open a new ReaderService instead).
  void stop();

  /// Admits a new session. Returns its id, or nullopt when the fleet is
  /// at the admission cap and no active session has strictly lower
  /// priority to shed (the rejection is counted). Reuses a reaped slot
  /// warm when one is available. Throws std::invalid_argument, before
  /// anything is shed, for a chain config RxChain rejects or a TTL
  /// checked_ttl_ns() rejects.
  std::optional<SessionId> open_session(SessionConfig cfg);

  /// Graceful close: no further submits; already-queued blocks still
  /// decode; the output closes once the last in-flight block lands (so
  /// a consumer blocked in wait_packet() gets every packet, then
  /// nullopt). Returns false for an unknown id.
  bool close_session(SessionId id);

  /// Submits one block of raw DAQ samples for `id`. Never blocks.
  /// Returns false — counting the block dropped where applicable — when
  /// the id is unknown/closed, the session's in-flight cap is hit, the
  /// dispatch queue rejects it, or the service is stopped.
  bool submit(SessionId id, Block block);

  /// Non-blocking fetch of the next decoded packet for `id`.
  std::optional<RxPacket> poll_packet(SessionId id);

  /// Blocking fetch; nullopt once the session is closed and drained (or
  /// the id is unknown).
  std::optional<RxPacket> wait_packet(SessionId id);

  /// A recycled (empty, warm-capacity) sample buffer from the session's
  /// pool, or a fresh one. Pair with submit() for allocation-free
  /// steady-state streaming.
  Block acquire_block(SessionId id);

  /// Per-session counter snapshot; nullopt for an unknown (or already
  /// reaped) id.
  std::optional<SessionStats> session_stats(SessionId id) const;

  Stats stats() const;

  std::size_t worker_count() const noexcept { return workers_; }
  std::size_t max_sessions() const noexcept { return max_sessions_; }

 private:
  struct WorkItem {
    Session* session = nullptr;
    Block block;
    std::uint64_t submit_ns = 0;
  };
  /// One pool task: a session's FIFO run of blocks from the batch (a
  /// session is never decoded by two workers at once).
  struct Group {
    Session* session = nullptr;
    std::vector<WorkItem> items;
  };

  void dispatch_loop();
  void process_group(Group& group);
  /// Bumps per-session + service drop counters (expired implies dropped).
  void count_drop(Session* s, bool expired);
  /// Charges `item`'s session one pre-decode drop and resolves the block
  /// (recycle + in-flight release).
  void drop_item(WorkItem& item, bool expired);
  /// Releases one in-flight credit; closes the output when a closing
  /// session just drained its last block.
  void finish_block(Session* s);
  /// Force-closes an active session for admission control. Caller holds
  /// sessions_mutex_.
  void shed_locked(Session* s);
  /// Moves reapable closed sessions (no in-flight, no pinned consumer,
  /// output drained) from the map to the warm free list. Caller holds
  /// sessions_mutex_.
  void scavenge_locked();

  Params params_;
  std::size_t workers_ = 0;
  std::size_t max_sessions_ = 0;
  std::unique_ptr<dsp::WorkerPool> pool_;
  DispatchQueue<WorkItem> queue_;
  std::thread dispatcher_;
  bool stopped_ = false;  ///< stop() is terminal; control thread only

  mutable std::mutex sessions_mutex_;
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_;
  std::vector<std::unique_ptr<Session>> free_slots_;  ///< reaped, warm
  SessionId next_id_ = 1;
  std::size_t active_ = 0;  ///< open (not closed/shed) sessions

  std::atomic<std::uint64_t> admissions_rejected_{0};
  std::atomic<std::uint64_t> sessions_shed_{0};
  std::atomic<std::uint64_t> slots_reused_{0};
  std::atomic<std::uint64_t> blocks_processed_{0};
  std::atomic<std::uint64_t> blocks_dropped_{0};
  std::atomic<std::uint64_t> blocks_expired_{0};
  std::atomic<std::uint64_t> packets_emitted_{0};
  std::atomic<std::uint64_t> packets_dropped_{0};

  // Dispatcher-only batch scratch, sized at construction.
  std::vector<WorkItem> batch_;
  std::vector<WorkItem> expired_;
  /// Grouping scratch: only the first `n` entries of an iteration are
  /// live.
  std::vector<Group> groups_;

  // Registry instruments (nullable; bound once in the constructor).
  telemetry::Gauge* g_active_ = nullptr;
  telemetry::Gauge* g_dispatch_depth_ = nullptr;
  telemetry::Counter* c_admission_rejected_ = nullptr;
  telemetry::Counter* c_shed_ = nullptr;
  telemetry::Counter* c_slots_reused_ = nullptr;
  telemetry::Counter* c_blocks_ = nullptr;
  telemetry::Counter* c_blocks_dropped_ = nullptr;
  telemetry::Counter* c_blocks_expired_ = nullptr;
  telemetry::Counter* c_packets_emitted_ = nullptr;
  telemetry::Counter* c_packets_dropped_ = nullptr;
  telemetry::LatencyHistogram* h_block_ms_ = nullptr;
  // Per-stage breakdown of service.block_ms: dispatch-queue wait (submit
  // -> worker pickup), chain decode, packet emit. Together with the
  // chain-internal fdma.stage.* instruments this attributes the whole
  // capture -> dispatch -> process -> emit path.
  telemetry::LatencyHistogram* h_stage_wait_ms_ = nullptr;
  telemetry::LatencyHistogram* h_stage_process_ms_ = nullptr;
  telemetry::LatencyHistogram* h_stage_emit_ms_ = nullptr;
};

}  // namespace arachnet::reader::service
