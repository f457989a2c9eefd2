// Fleet-scale sharded multi-reader engine: bus ordering/bounding, dedup
// window behaviour, planner coloring, shard-count bit-exactness, parity
// against merged single-reader references, handoff/dedup/membership edge
// cases, and a small waveform-mode fleet. Labeled `concurrency` in CTest
// so the whole file runs under TSan via `ctest -L concurrency` on a
// -DARACHNET_SANITIZE=thread build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "arachnet/fleet/bus.hpp"
#include "arachnet/fleet/dedup.hpp"
#include "arachnet/fleet/fleet_engine.hpp"
#include "arachnet/fleet/planner.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/telemetry/metrics.hpp"

namespace {

using namespace arachnet;
using fleet::BusMessage;
using fleet::DedupWindow;
using fleet::FleetEngine;
using fleet::FleetPacket;
using fleet::GridPlanner;
using fleet::MessageBus;
using fleet::Topic;

// ------------------------------------------------------------ MessageBus

TEST(MessageBus, CommitOrdersByPriorityThenPublisherThenSequence) {
  MessageBus bus{{}, 3};
  // Publish out of publisher order with mixed priorities. Publisher 0
  // posts two priority-5 messages, whose payloads sort opposite to their
  // publication order.
  bus.publish(2, {.topic = Topic::kPacket, .priority = 1, .a = 42});
  bus.publish(0, {.topic = Topic::kPacket, .priority = 1, .a = 10});
  bus.publish(0, {.topic = Topic::kPacket, .priority = 5, .a = 13});
  bus.publish(1, {.topic = Topic::kHandoff, .priority = 5, .a = 20});
  bus.publish(0, {.topic = Topic::kPacket, .priority = 5, .a = 11});
  bus.commit();
  const auto& out = bus.drain();
  ASSERT_EQ(out.size(), 5u);
  // Priority 5 first (publisher 0 in publication order, then publisher
  // 1), then priority 1 (publisher 0 before 2).
  EXPECT_EQ(out[0].a, 13u);
  EXPECT_EQ(out[1].a, 11u);
  EXPECT_EQ(out[2].a, 20u);
  EXPECT_EQ(out[3].a, 10u);
  EXPECT_EQ(out[4].a, 42u);
  EXPECT_EQ(out[2].from, 1);
  EXPECT_EQ(out[2].topic, Topic::kHandoff);
}

TEST(MessageBus, CapacityDisplacesLowestPriorityNewest) {
  MessageBus::Params bp;
  bp.capacity = 2;
  MessageBus bus{bp, 1};
  bus.publish(0, {.topic = Topic::kPacket, .priority = 1, .a = 1});
  bus.publish(0, {.topic = Topic::kPacket, .priority = 1, .a = 2});
  bus.publish(0, {.topic = Topic::kPacket, .priority = 9, .a = 3});
  bus.commit();
  // Three messages exceed capacity 2: the lowest-priority NEWEST (a=2) is
  // displaced and the rest are delivered, highest priority first.
  const auto& out = bus.drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].a, 3u);
  EXPECT_EQ(out[1].a, 1u);
  EXPECT_EQ(bus.stats().published, 3u);
  EXPECT_EQ(bus.stats().delivered, 2u);
  EXPECT_EQ(bus.stats().displaced, 1u);
  // Nothing is held across commits: an empty epoch delivers nothing.
  bus.commit();
  EXPECT_TRUE(bus.drain().empty());
  EXPECT_EQ(bus.stats().delivered, 2u);
  EXPECT_EQ(bus.stats().displaced, 1u);
  EXPECT_EQ(bus.stats().expired, 0u);
}

TEST(MessageBus, SimultaneousReportsTieBreakByPublisherId) {
  // Two readers decode the same transmission in the same epoch; the bus
  // must order them identically every run — publisher id ascending — so
  // the dedup admits reader 1's report and suppresses reader 3's.
  MessageBus bus{{}, 4};
  bus.publish(3, {.topic = Topic::kPacket, .priority = 1, .a = /*tag*/ 7,
                  .b = /*slot*/ 100});
  bus.publish(1, {.topic = Topic::kPacket, .priority = 1, .a = 7, .b = 100});
  bus.commit();
  const auto& out = bus.drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].from, 1);
  EXPECT_EQ(out[1].from, 3);
  DedupWindow window{16};
  EXPECT_TRUE(window.admit(7, 100, 3));
  EXPECT_FALSE(window.admit(7, 100, 3));
  EXPECT_EQ(window.stats().suppressed, 1u);
}

// ------------------------------------------------------------ DedupWindow

TEST(DedupWindow, SuppressesWithinWindowAndEvictsFifo) {
  DedupWindow w{2};
  EXPECT_TRUE(w.admit(1, 10, 0));
  EXPECT_FALSE(w.admit(1, 10, 0));  // duplicate caught
  EXPECT_TRUE(w.admit(2, 20, 0));
  EXPECT_TRUE(w.admit(3, 30, 0));   // evicts (1,10,0)
  EXPECT_TRUE(w.admit(1, 10, 0));   // leaked past the eviction
  EXPECT_EQ(w.stats().suppressed, 1u);
  EXPECT_GE(w.stats().evicted, 2u);
  EXPECT_LE(w.size(), w.capacity());
}

TEST(DedupWindow, MatchesAFifoSetModelOnRandomTraffic) {
  // The fixed-capacity table must admit, suppress and evict exactly as a
  // node-based set with a FIFO of its keys does, at capacities from 1 up,
  // over traffic dense enough to repeat keys, evict them and probe long
  // runs (keys that differ only in the tag bits share low bits).
  for (const std::size_t capacity : {1u, 2u, 3u, 7u, 64u, 100u}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    DedupWindow w{capacity};
    std::unordered_set<std::uint64_t> seen;
    std::deque<std::uint64_t> order;
    std::uint64_t evicted = 0;
    sim::Rng rng{capacity};
    for (int i = 0; i < 20000; ++i) {
      const auto tag = static_cast<std::uint32_t>(rng.uniform_int(0, 40));
      const auto seq = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
      const auto epoch = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
      const std::uint64_t key = (std::uint64_t{tag} << 44) |
                                (std::uint64_t{seq} << 20) | epoch;
      const bool fresh = seen.count(key) == 0;
      if (fresh) {
        if (order.size() == capacity) {
          seen.erase(order.front());
          order.pop_front();
          ++evicted;
        }
        seen.insert(key);
        order.push_back(key);
      }
      ASSERT_EQ(w.admit(tag, seq, epoch), fresh) << "step " << i;
      ASSERT_EQ(w.size(), order.size()) << "step " << i;
    }
    EXPECT_EQ(w.stats().evicted, evicted);
    EXPECT_GT(w.stats().suppressed, 0u);
    EXPECT_EQ(w.stats().admitted, w.stats().evicted + w.size());
  }
  EXPECT_THROW(DedupWindow{DedupWindow::kMaxCapacity + 1},
               std::invalid_argument);
}

// ------------------------------------------------------------ GridPlanner

TEST(GridPlanner, RingGetsDisjointChannelBlocks) {
  GridPlanner planner{{16}};
  std::vector<std::vector<int>> ring(6);
  for (int i = 0; i < 6; ++i) ring[i] = {(i + 1) % 6};
  const auto plan = planner.plan(6, ring);
  ASSERT_EQ(plan.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const auto& a = plan[i];
    const auto& b = plan[(i + 1) % 6];
    EXPECT_NE(a.chan_begin, b.chan_begin) << "adjacent readers share a block";
    EXPECT_EQ(a.tdma_stride, 1u) << "enough channels: no TDMA needed";
  }
  // An even ring is 2-colorable; each color gets half the grid.
  EXPECT_EQ(GridPlanner::color_count(plan), 2u);
  EXPECT_EQ(plan[0].chan_count, 8u);
}

TEST(GridPlanner, TdmaAbsorbsColorOverflow) {
  // Odd ring needs 3 colors but only 2 channels exist: the surplus color
  // time-slices. No two interfering readers may share (channel, phase).
  GridPlanner planner{{2}};
  std::vector<std::vector<int>> ring(5);
  for (int i = 0; i < 5; ++i) ring[i] = {(i + 1) % 5};
  const auto plan = planner.plan(5, ring);
  bool any_tdma = false;
  for (int i = 0; i < 5; ++i) {
    const auto& a = plan[i];
    const auto& b = plan[(i + 1) % 5];
    EXPECT_FALSE(a.chan_begin == b.chan_begin &&
                 a.tdma_phase == b.tdma_phase)
        << "interfering readers " << i << " and " << (i + 1) % 5
        << " share channel AND phase";
    if (a.tdma_stride > 1) any_tdma = true;
  }
  EXPECT_TRUE(any_tdma);
}

TEST(GridPlanner, NoInterferenceSharesFullGrid) {
  GridPlanner planner{{16}};
  const auto plan = planner.plan(4, std::vector<std::vector<int>>(4));
  for (const auto& a : plan) {
    EXPECT_EQ(a.chan_begin, 0u);
    EXPECT_EQ(a.chan_count, 16u);
    EXPECT_EQ(a.tdma_stride, 1u);
  }
}

// ------------------------------------------------- FleetEngine (slot mode)

FleetEngine::Params overlap_params(std::size_t shards) {
  FleetEngine::Params p;
  p.mode = FleetEngine::Mode::kSlot;
  p.readers = 4;
  p.shards = shards;
  p.seed = 99;
  p.tags_per_reader = 4;
  p.slots_per_epoch = 32;
  p.neighbor_gain = 0.6;
  p.gain_drift_amplitude = 0.5;
  p.overhear_threshold = 0.85;
  p.handoff_margin = 0.05;
  return p;
}

TEST(FleetEngine, BitExactAtAnyShardCount) {
  // A coordination-heavy scenario (overlap, drift, handoffs, duplicates)
  // must produce the identical packet log at shard widths 1, 2, 4, 8.
  std::vector<std::uint64_t> digests;
  std::vector<std::vector<FleetPacket>> logs;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    FleetEngine eng{overlap_params(shards)};
    eng.run_epochs(16);
    eng.flush();
    digests.push_back(eng.digest());
    logs.push_back(eng.packet_log());
    EXPECT_GT(eng.stats().packets, 0u);
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "shard width diverged";
    EXPECT_EQ(logs[i], logs[0]);
  }
}

TEST(FleetEngine, CoordinationPrimitivesEngage) {
  FleetEngine eng{overlap_params(4)};
  eng.run_epochs(24);
  eng.flush();
  const auto s = eng.stats();
  EXPECT_GT(s.packets, 0u);
  EXPECT_GT(s.handoffs, 0u) << "gain drift should move ownership";
  EXPECT_GT(s.dup_suppressed, 0u) << "overhearing should produce echoes";
  EXPECT_EQ(s.conflicts, 0u) << "planner on: no co-channel collisions";
  EXPECT_EQ(s.dup_passed, 0u) << "window 4096 must catch every echo";
  EXPECT_GT(s.bus.published, 0u);
  EXPECT_GT(s.bus.delivered, 0u);
}

TEST(FleetEngine, PlannerOffCausesCoChannelConflicts) {
  auto p = overlap_params(2);
  p.planner_enabled = false;
  FleetEngine eng{p};
  eng.run_epochs(24);
  eng.flush();
  EXPECT_GT(eng.stats().conflicts, 0u)
      << "without the planner, adjacent readers collide on channel 0";
}

TEST(FleetEngine, SequencesStayMonotonicPerTagAcrossHandoffs) {
  FleetEngine eng{overlap_params(4)};
  eng.run_epochs(24);
  eng.flush();
  std::map<std::uint32_t, std::uint32_t> last_seq;
  std::map<std::uint32_t, std::int64_t> last_slot;
  bool decoded_by_non_home = false;
  for (const auto& pkt : eng.packet_log()) {
    if (pkt.seq == 0) continue;  // flagged replays are unordered
    auto [it, fresh] = last_seq.try_emplace(pkt.tag, 0);
    EXPECT_GT(pkt.seq, it->second)
        << "tag " << pkt.tag << " sequence regressed";
    it->second = pkt.seq;
    auto [st, s_fresh] = last_slot.try_emplace(pkt.tag, -1);
    EXPECT_GT(pkt.slot, st->second);
    st->second = pkt.slot;
    const auto home = static_cast<int>(pkt.tag / 4);
    if (pkt.reader != home && !pkt.overheard) decoded_by_non_home = true;
  }
  // A handoff target decodes the tag as its owner (not as an overhearer):
  // proof that ownership actually moved the tag between shards.
  EXPECT_TRUE(decoded_by_non_home);
  EXPECT_GT(eng.stats().handoffs, 0u);
}

TEST(FleetEngine, TinyDedupWindowLeaksAreFlaggedDeterministically) {
  auto p = overlap_params(2);
  p.dedup_window = 4;  // evicts within an epoch: echoes leak through
  FleetEngine a{p};
  a.run_epochs(16);
  a.flush();
  EXPECT_GT(a.stats().dup_passed, 0u);
  for (const auto& pkt : a.packet_log()) {
    if (pkt.seq == 0) EXPECT_TRUE(pkt.overheard);
  }
  // Still deterministic: the leak pattern is part of the contract.
  FleetEngine b{p};
  b.run_epochs(16);
  b.flush();
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(FleetEngine, ParityWithMergedSingleReaderReferences) {
  // Disjoint coverage: a 4-reader fleet must equal the deterministic
  // merge of four 1-reader engines carved out of the same global fleet.
  auto fleet_params = overlap_params(4);
  fleet_params.neighbor_gain = 0.0;  // no overlap, no drift, no handoffs
  FleetEngine whole{fleet_params};
  whole.run_epochs(12);
  whole.flush();

  std::vector<FleetPacket> merged;
  for (int r = 0; r < 4; ++r) {
    auto p = fleet_params;
    p.readers = 1;
    p.shards = 1;
    p.first_reader_id = r;
    p.total_readers = 4;
    FleetEngine single{p};
    single.run_epochs(12);
    single.flush();
    const auto& log = single.packet_log();
    merged.insert(merged.end(), log.begin(), log.end());
  }
  // The fleet's coordinator orders each epoch by reader id, then slot.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FleetPacket& x, const FleetPacket& y) {
                     if (x.epoch != y.epoch) return x.epoch < y.epoch;
                     if (x.reader != y.reader) return x.reader < y.reader;
                     return x.slot < y.slot;
                   });
  ASSERT_GT(whole.packet_log().size(), 0u);
  EXPECT_EQ(whole.packet_log(), merged);
}

TEST(FleetEngine, ReaderLeaveAndJoinMidRun) {
  auto p = overlap_params(4);
  FleetEngine eng{p};
  eng.run_epochs(6);
  eng.request_leave(1);
  eng.run_epochs(1);  // membership applies at the next pre-phase
  EXPECT_FALSE(eng.reader_active(1));
  // Reader 1's tags must now belong to other, active readers.
  for (std::uint32_t t = 4; t < 8; ++t) {
    EXPECT_NE(eng.tag_owner(t), 1) << "tag " << t << " stuck on leaver";
    EXPECT_TRUE(eng.reader_active(eng.tag_owner(t)));
  }
  const auto packets_before = eng.stats().packets;
  eng.run_epochs(8);
  EXPECT_GT(eng.stats().packets, packets_before)
      << "fleet keeps decoding after a leave";
  eng.request_join(1);
  eng.run_epochs(1);
  EXPECT_TRUE(eng.reader_active(1));
  eng.run_epochs(12);
  eng.flush();
  // Home coverage (gain 1.0) dominates the drifting neighbours, so the
  // rejoined reader wins its tags back.
  int owned = 0;
  for (std::uint32_t t = 4; t < 8; ++t) {
    if (eng.tag_owner(t) == 1) ++owned;
  }
  EXPECT_GT(owned, 0) << "rejoined reader never regained a tag";

  // The whole churn sequence is deterministic, including across shard
  // widths.
  const auto rerun = [&](std::size_t shards) {
    auto q = overlap_params(shards);
    FleetEngine e{q};
    e.run_epochs(6);
    e.request_leave(1);
    e.run_epochs(9);
    e.request_join(1);
    e.run_epochs(13);
    e.flush();
    return e.digest();
  };
  EXPECT_EQ(rerun(1), rerun(4));
}

TEST(FleetEngine, ScopedMetricsKeepFleetsApart) {
  telemetry::MetricsRegistry reg;
  auto pa = overlap_params(1);
  pa.metrics = &reg;
  pa.metrics_scope = "f0.";
  auto pb = overlap_params(1);
  pb.metrics = &reg;
  pb.metrics_scope = "f1.";
  FleetEngine a{pa};
  FleetEngine b{pb};
  a.run_epochs(4);
  a.flush();
  const auto snap = reg.snapshot();
  std::uint64_t a_packets = 0, b_packets = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "f0.fleet.packets") a_packets = c.value;
    if (c.name == "f1.fleet.packets") b_packets = c.value;
  }
  EXPECT_EQ(a_packets, a.stats().packets);
  EXPECT_EQ(b_packets, 0u) << "idle fleet's scoped counter must stay 0";
}

// --------------------------------------------- FleetEngine (waveform mode)

TEST(FleetEngine, WaveformFleetDecodesAndMatchesAcrossShardWidths) {
  FleetEngine::Params p;
  p.mode = FleetEngine::Mode::kWaveform;
  p.readers = 2;
  p.seed = 7;
  p.channels_per_reader = 2;
  p.epoch_duration_s = 0.25;
  const auto run = [&](std::size_t shards) {
    auto q = p;
    q.shards = shards;
    FleetEngine eng{q};
    eng.run_epochs(2);
    eng.flush();
    return std::pair{eng.digest(), eng.stats().packets};
  };
  const auto [d1, n1] = run(1);
  const auto [d2, n2] = run(2);
  EXPECT_GT(n1, 0u) << "waveform shards decoded nothing";
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(d1, d2) << "waveform fleet diverged across shard widths";
}

}  // namespace
