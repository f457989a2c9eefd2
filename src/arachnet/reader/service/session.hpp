#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "arachnet/dsp/ring_buffer.hpp"
#include "arachnet/reader/rx_chain.hpp"

namespace arachnet::reader::service {

/// Stable handle for one capture session. Ids are never recycled (the
/// slot behind an id is — see Session::reset), so a stale id simply
/// stops resolving instead of silently aliasing a newer session.
using SessionId = std::uint64_t;

/// Per-session decode + QoS configuration, fixed at open_session().
struct SessionConfig {
  /// Receive-chain parameters for this session's stream (one single
  /// channel RxChain per session; FDMA-bank tenants run one session per
  /// subcarrier product stream).
  RxChain::Params chain{};
  /// Dispatch priority: larger outranks smaller. Under overload a
  /// higher-priority push displaces the lowest-priority newest queued
  /// block, and a higher-priority open_session() sheds the
  /// lowest-priority active session. Equal priorities never displace
  /// each other (FIFO fairness).
  int priority = 1;
  /// Time-to-live of a submitted block in the dispatch queue; a block
  /// still queued this long after submit() is dropped (counted per
  /// session) instead of decoded late. 0 = blocks never expire. Must be
  /// >= 0 and below 2^63 ns (see checked_ttl_ns()).
  double ttl_s = 0.0;
  /// Per-session bound on blocks in flight (queued + being processed).
  /// submit() beyond it drops the block — one overloaded session cannot
  /// monopolize the shared dispatch queue.
  std::size_t max_blocks_in_flight = 8;
  /// Decoded packets buffered for this session's consumer; the service
  /// never blocks the DSP pool on a stalled consumer, so a full output
  /// drops the packet and counts it.
  std::size_t output_capacity = 256;
};

/// `ttl_s` in whole nanoseconds (0 = never expires). Throws
/// std::invalid_argument for a NaN or negative TTL, or one of 2^63 ns
/// (about 292 years) or more: casting a NaN, an infinity or a value past
/// 2^64 is undefined, and the dispatch queue adds the result to a
/// steady-clock time.
inline std::uint64_t checked_ttl_ns(double ttl_s) {
  const double ns = ttl_s * 1e9;
  if (!(ns >= 0.0 && ns < 0x1p63)) {
    throw std::invalid_argument(
        "SessionConfig: ttl_s must be >= 0 and below 2^63 ns");
  }
  return static_cast<std::uint64_t>(ns);
}

/// Live per-session counters (monotonic since the session opened).
struct SessionStats {
  std::uint64_t blocks_submitted = 0;  ///< accepted by submit()
  std::uint64_t blocks_processed = 0;  ///< fully decoded
  /// Blocks lost before decode: per-session bound exceeded, displaced by
  /// a higher-priority push, TTL-expired, rejected by a full queue, or
  /// abandoned because the session was shed. Includes blocks_expired.
  std::uint64_t blocks_dropped = 0;
  std::uint64_t blocks_expired = 0;  ///< TTL expiries (subset of dropped)
  std::uint64_t samples_processed = 0;
  std::uint64_t packets_emitted = 0;  ///< pushed to the session output
  std::uint64_t packets_dropped = 0;  ///< lost to a full/closed output
  std::uint64_t frames_ok = 0;        ///< CRC-valid packets decoded
  std::uint64_t crc_failures = 0;
  bool closed = false;  ///< no longer accepts submits (closing or shed)
  bool shed = false;    ///< force-closed by admission control
};

/// One session slot: chain + bounded output + counters + warm scratch.
///
/// Lifecycle: open (ReaderService::open_session) -> streaming ->
/// closed (graceful close_session: queued blocks still decode, output
/// closes once the last in-flight block lands) or shed (admission
/// control: queued blocks drop, output closes immediately) -> drained
/// (consumer fetched the last packet) -> the *slot* is reclaimed for the
/// next open_session under a fresh id.
///
/// Warm reuse: reset() rebuilds identity, chain and counters but keeps
/// the slot's recycled sample-block pool and — when the capacity matches
/// — the output ring. The TrialScratch contract generalized to sessions:
/// only capacity survives an occupant change, contents never do (blocks
/// are cleared on recycle, the ring must be drained before reuse).
///
/// Concurrency: submit-side fields are touched under the service's
/// session mutex; decode-side fields by the one pool worker processing
/// this session's batch; counters are relaxed atomics readable anywhere.
struct Session {
  Session(SessionId id_, SessionConfig cfg_) { reset(id_, cfg_); }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Re-arms the slot for a new occupant. Requires: closed, no blocks in
  /// flight, output drained (the service's reap conditions). Throws what
  /// checked_ttl_ns() or the RxChain constructor throws, before the slot
  /// takes the new id or config.
  void reset(SessionId new_id, SessionConfig new_cfg) {
    const std::uint64_t new_ttl_ns = checked_ttl_ns(new_cfg.ttl_s);
    // Service sessions stream: no MAC collision detector, no iq_points()
    // surface. Retention would grow per-session IQ history without bound
    // and allocate in the steady state, so it is forced off here.
    new_cfg.chain.retain_iq_points = false;
    chain.emplace(new_cfg.chain);
    id = new_id;
    cfg = new_cfg;
    ttl_ns = new_ttl_ns;
    if (!output || output->capacity() != cfg.output_capacity) {
      output = std::make_unique<dsp::RingBuffer<RxPacket>>(
          cfg.output_capacity);
    } else {
      output->reopen();
    }
    closed.store(false, std::memory_order_relaxed);
    shed.store(false, std::memory_order_relaxed);
    in_flight.store(0, std::memory_order_relaxed);
    pinned.store(0, std::memory_order_relaxed);
    blocks_submitted.store(0, std::memory_order_relaxed);
    blocks_processed.store(0, std::memory_order_relaxed);
    blocks_dropped.store(0, std::memory_order_relaxed);
    blocks_expired.store(0, std::memory_order_relaxed);
    samples_processed.store(0, std::memory_order_relaxed);
    packets_emitted.store(0, std::memory_order_relaxed);
    packets_dropped.store(0, std::memory_order_relaxed);
    // block_pool intentionally kept: warm buffers carry to the next
    // occupant (contents are cleared on recycle). Its slots are sized
    // here, so recycling a burst's buffers never allocates.
    block_pool.reserve(cfg.max_blocks_in_flight + 2);
  }

  /// Hands out a recycled sample buffer (empty, capacity warm) or a
  /// fresh one. Producers that round-trip buffers through here submit
  /// with zero steady-state allocation.
  std::vector<double> acquire_block() {
    std::lock_guard lock{pool_mutex};
    if (block_pool.empty()) return {};
    std::vector<double> b = std::move(block_pool.back());
    block_pool.pop_back();
    return b;
  }

  /// Returns a processed/dropped block's buffer to the pool (bounded by
  /// the in-flight cap; excess buffers are simply freed).
  void recycle_block(std::vector<double> block) {
    block.clear();
    std::lock_guard lock{pool_mutex};
    if (block_pool.size() < cfg.max_blocks_in_flight + 2) {
      block_pool.push_back(std::move(block));
    }
  }

  SessionStats snapshot() const {
    SessionStats s;
    s.blocks_submitted = blocks_submitted.load(std::memory_order_relaxed);
    s.blocks_processed = blocks_processed.load(std::memory_order_relaxed);
    s.blocks_dropped = blocks_dropped.load(std::memory_order_relaxed);
    s.blocks_expired = blocks_expired.load(std::memory_order_relaxed);
    s.samples_processed = samples_processed.load(std::memory_order_relaxed);
    s.packets_emitted = packets_emitted.load(std::memory_order_relaxed);
    s.packets_dropped = packets_dropped.load(std::memory_order_relaxed);
    const DecisionCounts decoded = chain->published_counts();
    s.frames_ok = decoded.frames_ok;
    s.crc_failures = decoded.crc_failures;
    s.closed = closed.load(std::memory_order_relaxed);
    s.shed = shed.load(std::memory_order_relaxed);
    return s;
  }

  SessionId id = 0;
  SessionConfig cfg{};
  std::uint64_t ttl_ns = 0;  ///< cfg.ttl_s in ns (0 = never expires)
  /// The decode chain; rebuilt per occupant (optional so reset() can
  /// emplace in place).
  std::optional<RxChain> chain;
  /// Bounded per-session consumer queue; reused across occupants when
  /// the capacity matches.
  std::unique_ptr<dsp::RingBuffer<RxPacket>> output;

  std::atomic<bool> closed{false};
  std::atomic<bool> shed{false};
  /// Blocks accepted but not yet resolved (queued or being processed).
  /// Nonzero implies the dispatch queue or a pool worker may still hold
  /// a pointer to this slot — the reap barrier.
  std::atomic<std::uint32_t> in_flight{0};
  /// Consumers blocked in (or about to enter) a blocking output pop
  /// outside the service's session mutex. A second reap barrier: a
  /// pinned slot is never recycled under a waiting consumer.
  std::atomic<std::uint32_t> pinned{0};

  std::atomic<std::uint64_t> blocks_submitted{0};
  std::atomic<std::uint64_t> blocks_processed{0};
  std::atomic<std::uint64_t> blocks_dropped{0};
  std::atomic<std::uint64_t> blocks_expired{0};
  std::atomic<std::uint64_t> samples_processed{0};
  std::atomic<std::uint64_t> packets_emitted{0};
  std::atomic<std::uint64_t> packets_dropped{0};

  /// Warm sample-buffer pool (acquire_block/recycle_block).
  std::mutex pool_mutex;
  std::vector<std::vector<double>> block_pool;
};

}  // namespace arachnet::reader::service
