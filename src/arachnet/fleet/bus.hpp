#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arachnet/telemetry/metrics.hpp"

namespace arachnet::fleet {

/// Bus topics. Kept small and fixed: the fleet's coordination traffic is
/// packets, tag handoffs and membership changes.
enum class Topic : std::uint8_t {
  kPacket = 0,     ///< decoded-packet announcements (dedup input)
  kHandoff = 1,    ///< tag ownership transfers
  kMembership = 2  ///< reader join/leave
};

/// One inter-reader message. Payload is three opaque words interpreted per
/// topic (tag id / sequence / epoch / channel ...) — the bus itself only
/// orders and bounds.
struct BusMessage {
  Topic topic = Topic::kPacket;
  int from = 0;      ///< publishing reader id (set by publish())
  int priority = 0;  ///< higher wins under contention (goby buffer idiom)
  std::uint64_t a = 0, b = 0, c = 0;  ///< topic-specific payload words
  /// Position in the publisher's outbox this epoch (set by publish()).
  std::uint64_t pub_seq = 0;
};

/// In-process inter-reader message bus: a bounded per-epoch merge of the
/// publishers' outboxes.
///
/// Concurrency model mirrors the fleet's BSP epochs:
///  - publish(from, ...) may run concurrently across DIFFERENT publishers
///    (each publisher owns an outbox and is its only writer), so shard
///    tasks post from the parallel phase without locks;
///  - commit() and drain() run on the serial coordinator only.
///
/// commit() merges every outbox in a deterministic order — priority
/// descending, then publisher id ascending, then publication order —
/// independent of which worker ran which shard when. It delivers at most
/// `capacity` messages and displaces the rest of the merge, which is the
/// lowest-priority newest tail. Nothing is held across commits: every
/// message is delivered or displaced by the commit after its publication.
class MessageBus {
 public:
  struct Params {
    std::size_t capacity = 256;  ///< max messages delivered per commit
    /// Optional registry for `bus.*` counters; prefix with
    /// `metrics_scope` (see telemetry::scoped_name).
    telemetry::MetricsRegistry* metrics = nullptr;
    std::string metrics_scope;
  };

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t delivered = 0;
    std::uint64_t displaced = 0;  ///< merged past `capacity` and dropped
    /// Always 0: no message waits past its commit, so none expires. Kept
    /// because benchmark code still reads it.
    std::uint64_t expired = 0;
  };

  MessageBus(Params params, std::size_t publishers);

  /// Posts a message from publisher `from`. Parallel-phase safe under the
  /// one-writer-per-outbox contract; ordering within a publisher is its
  /// call order.
  void publish(int from, BusMessage msg);

  /// Serial barrier step: merges all outboxes deterministically, keeps
  /// the first `capacity` messages for drain() and displaces the rest.
  void commit();

  /// Messages delivered by the last commit(), in delivery order. Valid
  /// until the next commit().
  const std::vector<BusMessage>& drain() const noexcept { return delivered_; }

  Stats stats() const noexcept { return stats_; }
  std::size_t publisher_count() const noexcept { return outboxes_.size(); }
  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  std::vector<std::vector<BusMessage>> outboxes_;  ///< one per publisher
  std::vector<BusMessage> delivered_;  ///< merge buffer, reused per commit
  Stats stats_;
  // Registry instruments (nullable; bound once in the constructor).
  telemetry::Counter* c_published_ = nullptr;
  telemetry::Counter* c_delivered_ = nullptr;
  telemetry::Counter* c_displaced_ = nullptr;
};

}  // namespace arachnet::fleet
