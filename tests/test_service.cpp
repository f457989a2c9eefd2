// Multi-session reader ingest service: dispatch-queue QoS (priority, TTL,
// displacement), admission control and shedding, graceful drain, warm slot
// reuse — plus the RealtimeReader long-run lifecycle regressions (decode
// list drain, restart after stop, FDMA metrics forwarding). Labeled
// `concurrency` in CTest so the whole file runs under TSan via
// `ctest -L concurrency` on a -DARACHNET_SANITIZE=thread build.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/reader/decision_chain.hpp"
#include "arachnet/reader/realtime_reader.hpp"
#include "arachnet/reader/service/dispatch_queue.hpp"
#include "arachnet/reader/service/reader_service.hpp"
#include "arachnet/telemetry/metrics.hpp"

namespace {

using namespace arachnet;
using reader::service::DispatchQueue;
using reader::service::ReaderService;
using reader::service::SessionConfig;

// Renders one 0.28 s uplink window carrying a single packet with the given
// payload (same source parameters as the RealtimeReader shutdown tests).
std::vector<double> packet_wave(std::uint16_t payload, sim::Rng& rng,
                                acoustic::UplinkWaveformSynth& synth) {
  const phy::UlPacket pkt{.tid = 3, .payload = payload};
  acoustic::BackscatterSource s;
  s.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
  s.chip_rate = 375.0;
  s.start_s = 0.02;
  s.amplitude = 0.2;
  s.phase_rad = 1.0;
  return synth.synthesize({s}, 0.28, rng);
}

// Splits a waveform into DAQ-sized blocks and submits all of them.
template <typename Submit>
void submit_blocks(const std::vector<double>& wave, Submit&& submit) {
  constexpr std::size_t kBlock = 10000;
  for (std::size_t off = 0; off < wave.size(); off += kBlock) {
    const std::size_t len = std::min(kBlock, wave.size() - off);
    submit(std::vector<double>{wave.begin() + off, wave.begin() + off + len});
  }
}

// ---------------------------------------------------------- DispatchQueue

TEST(DispatchQueue, PopsByPriorityThenFifo) {
  DispatchQueue<int> q{8};
  // Interleave two priorities; within one priority arrival order must hold.
  ASSERT_EQ(q.push(1, /*priority=*/1, 0, 0, nullptr),
            DispatchQueue<int>::Push::kAccepted);
  ASSERT_EQ(q.push(10, 5, 0, 0, nullptr), DispatchQueue<int>::Push::kAccepted);
  ASSERT_EQ(q.push(2, 1, 0, 0, nullptr), DispatchQueue<int>::Push::kAccepted);
  ASSERT_EQ(q.push(11, 5, 0, 0, nullptr), DispatchQueue<int>::Push::kAccepted);

  std::vector<int> out;
  std::vector<int> expired;
  ASSERT_TRUE(q.pop_batch(10, 0, &out, &expired));
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(out, (std::vector<int>{10, 11, 1, 2}));
}

TEST(DispatchQueue, FullQueueDisplacesLowestPriorityNewestOnly) {
  DispatchQueue<int> q{2};
  ASSERT_EQ(q.push(1, 1, 0, 0, nullptr), DispatchQueue<int>::Push::kAccepted);
  ASSERT_EQ(q.push(2, 1, 0, 0, nullptr), DispatchQueue<int>::Push::kAccepted);

  // Equal priority never displaces: the newcomer is rejected.
  std::optional<int> displaced;
  EXPECT_EQ(q.push(3, 1, 0, 0, &displaced),
            DispatchQueue<int>::Push::kRejected);
  EXPECT_FALSE(displaced.has_value());

  // A strictly higher priority evicts the lowest-priority *newest* item
  // (2, not 1 — the victim session keeps its FIFO prefix).
  EXPECT_EQ(q.push(4, 9, 0, 0, &displaced),
            DispatchQueue<int>::Push::kDisplaced);
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(*displaced, 2);

  std::vector<int> out;
  std::vector<int> expired;
  ASSERT_TRUE(q.pop_batch(10, 0, &out, &expired));
  EXPECT_EQ(out, (std::vector<int>{4, 1}));
}

TEST(DispatchQueue, ExpiredItemsAreHandedBackSeparately) {
  DispatchQueue<int> q{8};
  ASSERT_EQ(q.push(1, 1, /*now_ns=*/100, /*ttl_ns=*/50, nullptr),
            DispatchQueue<int>::Push::kAccepted);  // deadline 150
  ASSERT_EQ(q.push(2, 1, 100, 0, nullptr),
            DispatchQueue<int>::Push::kAccepted);  // never expires

  std::vector<int> out;
  std::vector<int> expired;
  ASSERT_TRUE(q.pop_batch(10, /*now_ns=*/200, &out, &expired));
  EXPECT_EQ(expired, (std::vector<int>{1}));
  EXPECT_EQ(out, (std::vector<int>{2}));
}

TEST(DispatchQueue, CloseDrainsThenStops) {
  DispatchQueue<int> q{4};
  ASSERT_EQ(q.push(7, 1, 0, 0, nullptr), DispatchQueue<int>::Push::kAccepted);
  q.close();
  EXPECT_EQ(q.push(8, 1, 0, 0, nullptr), DispatchQueue<int>::Push::kClosed);

  std::vector<int> out;
  std::vector<int> expired;
  ASSERT_TRUE(q.pop_batch(10, 0, &out, &expired));
  EXPECT_EQ(out, (std::vector<int>{7}));
  out.clear();
  EXPECT_FALSE(q.pop_batch(10, 0, &out, &expired));  // closed and drained
}

// ----------------------------------------------- RealtimeReader lifecycle

TEST(RealtimeReaderLifecycle, SingleChainDecodeListStaysBounded) {
  // Regression: the single-chain worker never drained chain_.packets(), so
  // a long-running session accumulated every decoded packet forever. The
  // list must be empty after each block's drain while the frame total
  // stays monotonic and exact.
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  reader::RealtimeReader::Params params;
  params.input_capacity = 64;
  reader::RealtimeReader rtr{params};
  rtr.start();

  constexpr int kPackets = 8;
  for (int i = 0; i < kPackets; ++i) {
    const auto wave =
        packet_wave(static_cast<std::uint16_t>(0x900 + i), rng, synth);
    submit_blocks(wave, [&](std::vector<double> b) {
      ASSERT_TRUE(rtr.submit(std::move(b)));
    });
  }
  rtr.stop();

  const auto stats = rtr.stats();
  EXPECT_EQ(stats.chain_buffered_packets, 0u)
      << "decode list must be drained every block";
  ASSERT_EQ(stats.channels.size(), 1u);
  EXPECT_EQ(stats.channels[0].frames_ok,
            static_cast<std::uint64_t>(kPackets));
  // Every decoded packet is still fetchable exactly once.
  std::size_t got = 0;
  while (rtr.wait_packet()) ++got;
  EXPECT_EQ(got, static_cast<std::size_t>(kPackets));
}

TEST(RealtimeReaderLifecycle, SingleChainStatsCountIqSamples) {
  // Regression: stats() reported iq_samples = 0 for the single chain,
  // while FDMA mode reports each channel's real count. The single chain
  // consumes one IQ sample per DDC decimation step, and derives that
  // decimation from the chip rate.
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  reader::RealtimeReader::Params params;
  params.input_capacity = 64;
  reader::RealtimeReader rtr{params};
  rtr.start();
  submit_blocks(packet_wave(0xB01, rng, synth), [&](std::vector<double> b) {
    ASSERT_TRUE(rtr.submit(std::move(b)));
  });
  rtr.stop();

  const auto stats = rtr.stats();
  ASSERT_EQ(stats.channels.size(), 1u);
  const auto decimation = reader::DecisionChain::decimation(
      params.chain.ddc.sample_rate_hz, params.chain.chip_rate);
  EXPECT_EQ(stats.channels[0].iq_samples,
            stats.samples_processed / decimation.factor);
  EXPECT_GT(stats.channels[0].iq_samples, 0u);
  EXPECT_EQ(stats.channels[0].frames_ok, 1u);
  EXPECT_EQ(stats.channels[0].crc_failures, 0u);
}

TEST(RealtimeReaderLifecycle, RestartAfterStopProcessesNewBlocks) {
  // Regression: start() after stop() silently no-oped (closed queues were
  // never reopened), so a paused reader could never resume. A stop/start
  // pair must behave as a pause: both runs' packets arrive, counters and
  // chain state carry over.
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  reader::RealtimeReader::Params params;
  params.input_capacity = 64;
  reader::RealtimeReader rtr{params};

  rtr.start();
  submit_blocks(packet_wave(0xA01, rng, synth), [&](std::vector<double> b) {
    ASSERT_TRUE(rtr.submit(std::move(b)));
  });
  rtr.stop();
  EXPECT_FALSE(rtr.submit(std::vector<double>(100, 0.0)))
      << "submit must fail while stopped";

  rtr.start();  // restart: queues reopen, a fresh worker spawns
  submit_blocks(packet_wave(0xA02, rng, synth), [&](std::vector<double> b) {
    ASSERT_TRUE(rtr.submit(std::move(b)));
  });
  rtr.stop();

  std::vector<phy::UlPacket> got;
  while (auto pkt = rtr.wait_packet()) got.push_back(pkt->packet);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload, 0xA01);
  EXPECT_EQ(got[1].payload, 0xA02);
  const auto stats = rtr.stats();
  ASSERT_EQ(stats.channels.size(), 1u);
  EXPECT_EQ(stats.channels[0].frames_ok, 2u) << "counters span both runs";
}

TEST(RealtimeReaderLifecycle, FdmaBankInheritsReaderRegistry) {
  // Regression: the constructor forwarded the reader's registry into the
  // FDMA bank through a local Params copy, leaving the *stored*
  // params().fdma->metrics null — introspection disagreed with the live
  // bank. The stored params must reflect the patch.
  telemetry::MetricsRegistry registry;
  reader::RealtimeReader::Params params;
  reader::FdmaRxChain::Params fp;
  fp.channels.push_back({.subcarrier_hz = 30000.0});
  params.fdma = fp;
  params.metrics = &registry;

  reader::RealtimeReader rtr{params};
  ASSERT_TRUE(rtr.params().fdma.has_value());
  EXPECT_EQ(rtr.params().fdma->metrics, &registry);

  // An explicitly bound bank registry is left alone.
  telemetry::MetricsRegistry bank_registry;
  fp.metrics = &bank_registry;
  reader::RealtimeReader::Params params2;
  params2.fdma = fp;
  params2.metrics = &registry;
  reader::RealtimeReader rtr2{params2};
  EXPECT_EQ(rtr2.params().fdma->metrics, &bank_registry);
}

// ------------------------------------------------------------- ReaderService

TEST(ReaderService, AdmissionRejectsBeyondBudgetAndShedsForPriority) {
  telemetry::MetricsRegistry registry;
  ReaderService::Params params;
  params.workers = 1;
  params.sessions_per_core = 2.0;  // cap: 2 active sessions
  params.metrics = &registry;
  ReaderService svc{params};
  svc.start();
  ASSERT_EQ(svc.max_sessions(), 2u);

  SessionConfig low;
  low.priority = 1;
  const auto a = svc.open_session(low);
  const auto b = svc.open_session(low);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  // Same priority over budget: rejected (no strictly-lower victim).
  EXPECT_FALSE(svc.open_session(low).has_value());
  EXPECT_EQ(svc.stats().admissions_rejected, 1u);
  EXPECT_EQ(svc.stats().active_sessions, 2u);

  // Higher priority over budget: the lowest-priority *newest* session (b)
  // is shed to make room.
  SessionConfig high;
  high.priority = 9;
  const auto c = svc.open_session(high);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(svc.stats().sessions_shed, 1u);
  EXPECT_EQ(svc.stats().active_sessions, 2u);

  const auto b_stats = svc.session_stats(*b);
  ASSERT_TRUE(b_stats.has_value());
  EXPECT_TRUE(b_stats->shed);
  EXPECT_TRUE(b_stats->closed);
  EXPECT_FALSE(svc.submit(*b, std::vector<double>(16, 0.0)))
      << "a shed session accepts no further blocks";
  EXPECT_FALSE(svc.wait_packet(*b).has_value())
      << "a shed session's output is closed";
  // The high-priority session is live.
  EXPECT_TRUE(svc.submit(*c, std::vector<double>(16, 0.0)));
  ASSERT_TRUE(a.has_value());  // silence unused warnings on release builds

  // Telemetry mirrors the counters.
  const auto snap = registry.snapshot();
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& cv : snap.counters) {
      if (cv.name == name) return cv.value;
    }
    return 0;
  };
  EXPECT_EQ(counter("session.admission_rejected"), 1u);
  EXPECT_EQ(counter("session.shed"), 1u);
}

TEST(ReaderService, OpenThatThrowsShedsNothingAndKeepsTheSlotPool) {
  ReaderService::Params params;
  params.workers = 1;
  params.sessions_per_core = 2.0;  // cap: 2 active sessions
  ReaderService svc{params};
  svc.start();

  SessionConfig low;
  low.priority = 1;
  const auto a = svc.open_session(low);
  const auto spare = svc.open_session(low);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(spare.has_value());
  ASSERT_TRUE(svc.close_session(*spare));
  while (svc.wait_packet(*spare).has_value()) {
  }  // drain to make the slot reapable

  // Under budget: the reaped slot is re-armed for a config its RxChain
  // rejects, or for a TTL whose nanoseconds a uint64 cannot hold. The
  // open throws, and the slot stays in the pool.
  SessionConfig bad_rate;
  bad_rate.priority = 9;
  bad_rate.chain.chip_rate = std::numeric_limits<double>::quiet_NaN();
  std::vector<SessionConfig> bad = {bad_rate};
  for (const double ttl_s : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0,
                             1e11}) {
    SessionConfig bad_ttl;
    bad_ttl.priority = 9;
    bad_ttl.ttl_s = ttl_s;
    bad.push_back(bad_ttl);
  }
  for (const SessionConfig& cfg : bad) {
    EXPECT_THROW(svc.open_session(cfg), std::invalid_argument);
    EXPECT_EQ(svc.stats().active_sessions, 1u);
  }
  const auto b = svc.open_session(low);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(svc.stats().slots_reused, 1u);

  // Over budget: the newcomer outranks b, but its chain or TTL throws
  // before anything is shed.
  SessionConfig bad_ddc;
  bad_ddc.priority = 9;
  bad_ddc.chain.ddc.carrier_hz = std::numeric_limits<double>::quiet_NaN();
  bad.front() = bad_ddc;
  for (const SessionConfig& cfg : bad) {
    EXPECT_THROW(svc.open_session(cfg), std::invalid_argument);
    EXPECT_EQ(svc.stats().sessions_shed, 0u);
    EXPECT_EQ(svc.stats().active_sessions, 2u);
  }
  EXPECT_TRUE(svc.submit(*a, std::vector<double>(16, 0.0)));
  EXPECT_TRUE(svc.submit(*b, std::vector<double>(16, 0.0)));

  // A valid priority-9 newcomer still sheds exactly one session.
  SessionConfig high;
  high.priority = 9;
  ASSERT_TRUE(svc.open_session(high).has_value());
  EXPECT_EQ(svc.stats().sessions_shed, 1u);
  EXPECT_EQ(svc.stats().active_sessions, 2u);
}

TEST(ReaderService, PriorityDisplacementUnderFullDispatchQueue) {
  // Fill the dispatch queue from a low-priority session *before* starting
  // the dispatcher, then push a high-priority session's blocks: each one
  // must displace a queued low-priority block, charged to its owner.
  ReaderService::Params params;
  params.workers = 1;
  params.dispatch_capacity = 4;
  ReaderService svc{params};

  SessionConfig low;
  low.priority = 1;
  low.max_blocks_in_flight = 16;
  SessionConfig high;
  high.priority = 5;
  high.max_blocks_in_flight = 16;
  const auto a = svc.open_session(low);
  const auto b = svc.open_session(high);
  ASSERT_TRUE(a && b);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(svc.submit(*a, std::vector<double>(64, 0.0)));
  }
  EXPECT_EQ(svc.stats().dispatch_depth, 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(svc.submit(*b, std::vector<double>(64, 0.0)))
        << "high priority must displace, not be rejected";
  }
  // All four of a's blocks were evicted pre-decode.
  const auto a_mid = svc.session_stats(*a);
  ASSERT_TRUE(a_mid.has_value());
  EXPECT_EQ(a_mid->blocks_dropped, 4u);

  // An additional low-priority push into the all-high queue is rejected.
  ASSERT_TRUE(svc.submit(*a, std::vector<double>(64, 0.0)) == false);
  EXPECT_EQ(svc.session_stats(*a)->blocks_dropped, 5u);

  svc.start();
  svc.stop();  // drains the queue through the pool

  const auto a_stats = svc.session_stats(*a);
  const auto b_stats = svc.session_stats(*b);
  ASSERT_TRUE(a_stats && b_stats);
  EXPECT_EQ(a_stats->blocks_processed, 0u);
  EXPECT_EQ(b_stats->blocks_processed, 4u);
  EXPECT_EQ(b_stats->blocks_dropped, 0u);
  EXPECT_EQ(svc.stats().blocks_processed, 4u);
  EXPECT_EQ(svc.stats().blocks_dropped, 5u);
}

TEST(ReaderService, TtlExpiryIsCountedAsDropped) {
  // Queue blocks with a 1 ms TTL while the dispatcher is not yet running,
  // let them age past the deadline, then start: they must be dropped as
  // expired, never decoded.
  ReaderService::Params params;
  params.workers = 1;
  ReaderService svc{params};

  SessionConfig cfg;
  cfg.ttl_s = 0.001;
  const auto id = svc.open_session(cfg);
  ASSERT_TRUE(id.has_value());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(svc.submit(*id, std::vector<double>(64, 0.0)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  svc.start();
  svc.stop();

  const auto st = svc.session_stats(*id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->blocks_expired, 3u);
  EXPECT_EQ(st->blocks_dropped, 3u);
  EXPECT_EQ(st->blocks_processed, 0u);
  EXPECT_EQ(svc.stats().blocks_expired, 3u);
}

TEST(ReaderService, StopDrainsEverySessionsQueuedBlocks) {
  // Two sessions with packet-bearing streams; stop() right after the last
  // submit. Every accepted block must still decode and each session's
  // packets must be fetchable from its own output (chains are isolated).
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  ReaderService::Params params;
  params.workers = 2;
  params.dispatch_capacity = 256;
  ReaderService svc{params};
  svc.start();

  SessionConfig cfg;
  cfg.max_blocks_in_flight = 64;
  const auto a = svc.open_session(cfg);
  const auto b = svc.open_session(cfg);
  ASSERT_TRUE(a && b);

  submit_blocks(packet_wave(0xB0A, rng, synth), [&](std::vector<double> blk) {
    ASSERT_TRUE(svc.submit(*a, std::move(blk)));
  });
  submit_blocks(packet_wave(0xB0B, rng, synth), [&](std::vector<double> blk) {
    ASSERT_TRUE(svc.submit(*b, std::move(blk)));
  });
  svc.stop();

  std::vector<phy::UlPacket> got_a;
  while (auto pkt = svc.wait_packet(*a)) got_a.push_back(pkt->packet);
  std::vector<phy::UlPacket> got_b;
  while (auto pkt = svc.wait_packet(*b)) got_b.push_back(pkt->packet);
  ASSERT_EQ(got_a.size(), 1u);
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_a[0].payload, 0xB0A);
  EXPECT_EQ(got_b[0].payload, 0xB0B);

  const auto a_stats = svc.session_stats(*a);
  ASSERT_TRUE(a_stats.has_value());
  EXPECT_EQ(a_stats->blocks_dropped, 0u);
  EXPECT_EQ(a_stats->frames_ok, 1u);
  EXPECT_EQ(svc.stats().blocks_dropped, 0u);
}

TEST(ReaderService, GracefulCloseStillDeliversInFlightPackets) {
  // close_session immediately after submitting: already-accepted blocks
  // keep decoding, the consumer gets every packet, then nullopt once the
  // last in-flight block lands.
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};

  ReaderService::Params params;
  params.workers = 2;
  params.dispatch_capacity = 64;
  ReaderService svc{params};
  svc.start();

  SessionConfig cfg;
  cfg.max_blocks_in_flight = 64;
  const auto id = svc.open_session(cfg);
  ASSERT_TRUE(id.has_value());
  submit_blocks(packet_wave(0xC01, rng, synth), [&](std::vector<double> blk) {
    ASSERT_TRUE(svc.submit(*id, std::move(blk)));
  });
  ASSERT_TRUE(svc.close_session(*id));
  EXPECT_FALSE(svc.submit(*id, std::vector<double>(16, 0.0)));

  std::vector<phy::UlPacket> got;
  while (auto pkt = svc.wait_packet(*id)) got.push_back(pkt->packet);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, 0xC01);
  svc.stop();
}

TEST(ReaderService, ClosedSessionSlotsAreReusedWarm) {
  ReaderService::Params params;
  params.workers = 1;
  ReaderService svc{params};
  svc.start();

  const auto a = svc.open_session(SessionConfig{});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(svc.submit(*a, std::vector<double>(64, 0.0)));
  ASSERT_TRUE(svc.close_session(*a));
  while (svc.wait_packet(*a).has_value()) {
  }  // drain to make the slot reapable

  // The next open reaps and reuses a's slot under a fresh id.
  const auto b = svc.open_session(SessionConfig{});
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b) << "session ids are never recycled";
  EXPECT_EQ(svc.stats().slots_reused, 1u);
  EXPECT_FALSE(svc.session_stats(*a).has_value())
      << "the reaped id no longer resolves";
  // The reused slot starts with clean counters and a working pipeline.
  const auto b_stats = svc.session_stats(*b);
  ASSERT_TRUE(b_stats.has_value());
  EXPECT_EQ(b_stats->blocks_submitted, 0u);
  ASSERT_TRUE(svc.submit(*b, std::vector<double>(64, 0.0)));
  svc.stop();
  EXPECT_EQ(svc.session_stats(*b)->blocks_processed, 1u);
}

TEST(ReaderService, PerSessionInFlightCapDropsExcess) {
  // Without a running dispatcher nothing leaves the queue, so the
  // per-session cap is what bounds submissions.
  ReaderService::Params params;
  params.workers = 1;
  params.dispatch_capacity = 64;
  ReaderService svc{params};

  SessionConfig cfg;
  cfg.max_blocks_in_flight = 2;
  const auto id = svc.open_session(cfg);
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(svc.submit(*id, std::vector<double>(16, 0.0)));
  EXPECT_TRUE(svc.submit(*id, std::vector<double>(16, 0.0)));
  EXPECT_FALSE(svc.submit(*id, std::vector<double>(16, 0.0)));
  const auto st = svc.session_stats(*id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->blocks_submitted, 3u);
  EXPECT_EQ(st->blocks_dropped, 1u);
  svc.start();
  svc.stop();
  EXPECT_EQ(svc.session_stats(*id)->blocks_processed, 2u);
}

TEST(ReaderService, ScopedServicesShareOneRegistryWithoutColliding) {
  // A fleet host runs one ReaderService per reader against a single
  // registry; metrics_scope keeps every instance's rows distinct while an
  // unscoped instance keeps the historical names.
  telemetry::MetricsRegistry registry;
  ReaderService::Params p0;
  p0.workers = 1;
  p0.metrics = &registry;
  p0.metrics_scope = "r0.";
  ReaderService s0{p0};
  ReaderService::Params p1;
  p1.workers = 1;
  p1.metrics = &registry;
  p1.metrics_scope = "r1.";
  ReaderService s1{p1};
  s0.start();
  s1.start();

  const auto id = s0.open_session({});
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(s0.submit(*id, std::vector<double>(16, 0.0)));
  EXPECT_TRUE(s0.submit(*id, std::vector<double>(16, 0.0)));
  s0.stop();
  s1.stop();

  EXPECT_EQ(registry.counter("r0.service.blocks").value(), 2u);
  EXPECT_EQ(registry.counter("r1.service.blocks").value(), 0u);
  EXPECT_EQ(registry.counter("service.blocks").value(), 0u)
      << "scoped instances must not leak into the unscoped name";
}

}  // namespace
