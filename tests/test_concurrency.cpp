// Threaded reader paths: ring-buffer stress, worker-pool fork/join, the
// parallel FDMA bank's bit-exact parity with the sequential path,
// RealtimeReader shutdown ordering, and FDMA stats read during decode.
// Labeled `concurrency` in CTest so the whole file runs under TSan via
// `ctest -L concurrency` on a -DARACHNET_SANITIZE=thread build.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/pipeline.hpp"
#include "arachnet/dsp/ring_buffer.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/realtime_reader.hpp"

namespace {

using namespace arachnet;

// ------------------------------------------------------------ RingBuffer

TEST(RingBufferStress, ProducersAndConsumersAccountForEveryItem) {
  // 2 producers x 2 consumers through a small buffer: back-pressure and
  // wakeups are exercised constantly. Every pushed value must be popped
  // exactly once.
  dsp::RingBuffer<int> buf{4};
  constexpr int kPerProducer = 20000;
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(buf.push(p * kPerProducer + i));
      }
    });
  }

  std::vector<std::vector<int>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      while (auto v = buf.pop()) received[c].push_back(*v);
    });
  }

  for (auto& t : producers) t.join();
  buf.close();
  for (auto& t : consumers) t.join();

  std::vector<int> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(all[static_cast<std::size_t>(i)], i);
  }
}

TEST(RingBufferStress, DrainsQueuedItemsAfterClose) {
  dsp::RingBuffer<int> buf{8};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(buf.push(i));
  buf.close();
  EXPECT_FALSE(buf.push(99));
  for (int i = 0; i < 5; ++i) {
    auto v = buf.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(buf.pop().has_value());
}

TEST(RingBufferStress, WrapsAroundManyTimes) {
  // Capacity-3 buffer cycled far past its capacity: the circular indices
  // must keep FIFO order through every wrap.
  dsp::RingBuffer<int> buf{3};
  int popped = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(buf.push(i));
    if (i % 2 == 1) {
      // Pop two at a time on odd iterations to shift the phase.
      for (int k = 0; k < 2; ++k) {
        auto v = buf.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, popped++);
      }
    }
  }
}

// ------------------------------------------------------------ WorkerPool

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  dsp::WorkerPool pool{3};
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.run(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkerPool, ReusableAcrossManyDispatches) {
  dsp::WorkerPool pool{2};
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(1 + round % 7);
    for (std::size_t i = 0; i < n; ++i) expected += i;
    pool.run(n, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(WorkerPool, ZeroThreadsRunsInline) {
  dsp::WorkerPool pool{0};
  std::vector<int> order;
  pool.run(4, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WorkerPool, BackToBackDispatchesNeverLeakAcrossEpochs) {
  // Regression for the stale-worker epoch race: with more workers than
  // indices and back-to-back dispatches, a worker that wakes for round r
  // but is preempted before its first claim must not steal indices of
  // round r+1 (it would execute round r's already-destroyed task). Each
  // round targets a fresh stack array, so a cross-epoch claim shows up as
  // a missed index in the current round.
  dsp::WorkerPool pool{4};
  constexpr int kRounds = 4000;
  constexpr std::size_t kN = 2;  // caller claims most; workers oversleep
  for (int r = 0; r < kRounds; ++r) {
    std::array<std::atomic<int>, kN> hits{};
    pool.run(kN, [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << r << " index " << i;
    }
  }
}

TEST(WorkerPool, TaskExceptionRethrownOnCallerAndPoolStaysUsable) {
  dsp::WorkerPool pool{2};
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(8,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error{"boom"};
                          ran.fetch_add(1, std::memory_order_relaxed);
                        }),
               std::runtime_error);
  // The throwing index is still credited; the other seven executed.
  EXPECT_EQ(ran.load(), 7);
  // Epoch/completion state must be left consistent for the next dispatch.
  std::atomic<int> after{0};
  pool.run(5,
           [&](std::size_t) { after.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(after.load(), 5);
}

// ----------------------------------------------- FDMA parallel parity

// Renders one uplink window with one tag per subcarrier, all overlapping.
std::vector<double> synth_capture(const std::vector<double>& subcarriers,
                                  int round, sim::Rng& rng,
                                  acoustic::UplinkWaveformSynth& synth) {
  std::vector<acoustic::BackscatterSource> srcs;
  int k = 0;
  for (double fsc : subcarriers) {
    const phy::UlPacket pkt{
        .tid = static_cast<std::uint8_t>(k + 1),
        .payload = static_cast<std::uint16_t>(0x400 + 16 * round + k)};
    phy::SubcarrierModulator mod{{375.0, fsc}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.12 + 0.01 * (k % 5);
    s.phase_rad = 0.5 + 0.4 * k;
    srcs.push_back(s);
    ++k;
  }
  return synth.synthesize(srcs, 0.3, rng);
}

reader::FdmaRxChain::Params twelve_channel_params(std::size_t workers) {
  reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = 8;  // 62.5 kS/s IQ rate: room for 12 subcarriers
  fp.workers = workers;
  // Multiples of half the chip rate (the subcarrier modulator's grid),
  // 4x chip-rate spacing: 3.0, 4.5, ..., 19.5 kHz.
  for (int k = 0; k < 12; ++k) {
    fp.channels.push_back({3000.0 + 1500.0 * k});
  }
  return fp;
}

TEST(FdmaParity, ParallelBankMatchesSequentialBitExactly) {
  std::vector<double> subcarriers;
  for (const auto& c : twelve_channel_params(1).channels) {
    subcarriers.push_back(c.subcarrier_hz);
  }

  // Two independent synthesizer+RNG pairs render identical waveforms.
  sim::Rng rng_a{42}, rng_b{42};
  acoustic::UplinkWaveformSynth synth_a{
      acoustic::UplinkWaveformSynth::Params{}};
  acoustic::UplinkWaveformSynth synth_b{
      acoustic::UplinkWaveformSynth::Params{}};

  reader::FdmaRxChain sequential{twelve_channel_params(1)};
  reader::FdmaRxChain parallel{twelve_channel_params(4)};
  EXPECT_EQ(sequential.worker_count(), 1u);
  EXPECT_EQ(parallel.worker_count(), 4u);

  std::size_t total_packets = 0;
  for (int round = 0; round < 2; ++round) {
    const auto wave_a = synth_capture(subcarriers, round, rng_a, synth_a);
    const auto wave_b = synth_capture(subcarriers, round, rng_b, synth_b);
    ASSERT_EQ(wave_a, wave_b);
    // Feed in DAQ-sized chunks so the parallel bank crosses many
    // fan-out/merge boundaries.
    constexpr std::size_t kBlock = 20000;
    for (std::size_t off = 0; off < wave_a.size(); off += kBlock) {
      const std::size_t len = std::min(kBlock, wave_a.size() - off);
      const std::vector<double> block(wave_a.begin() + off,
                                      wave_a.begin() + off + len);
      sequential.process(block);
      parallel.process(block);
    }
  }

  // Exact per-channel packet sets, in order.
  for (std::size_t c = 0; c < sequential.channel_count(); ++c) {
    ASSERT_EQ(sequential.packets(c), parallel.packets(c))
        << "channel " << c << " diverged";
    total_packets += sequential.packets(c).size();
    // Per-channel counters must agree too (both banks saw the same IQ).
    const auto sa = sequential.channel_stats(c);
    const auto pa = parallel.channel_stats(c);
    EXPECT_EQ(sa.iq_samples, pa.iq_samples);
    EXPECT_EQ(sa.bits, pa.bits);
    EXPECT_EQ(sa.frames_ok, pa.frames_ok);
    EXPECT_EQ(sa.crc_failures, pa.crc_failures);
  }
  // The capture must actually decode on most channels for the parity to
  // be meaningful (12 tags x 2 rounds = 24 opportunities).
  EXPECT_GE(total_packets, 16u);

  // The deterministic merge must agree as well.
  const auto seq_merged = sequential.drain_packets();
  const auto par_merged = parallel.drain_packets();
  ASSERT_EQ(seq_merged.size(), par_merged.size());
  for (std::size_t i = 0; i < seq_merged.size(); ++i) {
    EXPECT_EQ(seq_merged[i].packet, par_merged[i].packet);
    EXPECT_EQ(seq_merged[i].channel, par_merged[i].channel);
    EXPECT_DOUBLE_EQ(seq_merged[i].time_s, par_merged[i].time_s);
  }
}

// --------------------------------------------- RealtimeReader shutdown

TEST(RealtimeReaderShutdown, StopMidStreamLosesNothingBeforeClose) {
  // Queue several packet-bearing blocks, then stop() while the worker is
  // still mid-stream: every block accepted before the close point must be
  // fully processed and its packets fetchable, and stop() must not
  // deadlock (the test would hang).
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};

  reader::RealtimeReader::Params params;
  params.input_capacity = 64;  // accept the whole stream up front
  reader::RealtimeReader rtr{params};
  rtr.start();

  constexpr int kPackets = 6;
  std::vector<phy::UlPacket> sent;
  for (int i = 0; i < kPackets; ++i) {
    const phy::UlPacket pkt{.tid = 3,
                            .payload = static_cast<std::uint16_t>(0x500 + i)};
    sent.push_back(pkt);
    acoustic::BackscatterSource s;
    s.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
    s.chip_rate = 375.0;
    s.start_s = 0.02;
    s.amplitude = 0.2;
    s.phase_rad = 1.0;
    // One packet per 0.28 s window, split into DAQ-sized blocks.
    const auto wave = synth.synthesize({s}, 0.28, rng);
    constexpr std::size_t kBlock = 10000;
    for (std::size_t off = 0; off < wave.size(); off += kBlock) {
      const std::size_t len = std::min(kBlock, wave.size() - off);
      ASSERT_TRUE(rtr.submit({wave.begin() + off, wave.begin() + off + len}));
    }
  }

  // Close the input while blocks are still queued: the worker must drain
  // all of them before exiting.
  rtr.stop();
  EXPECT_FALSE(rtr.submit(std::vector<double>(100, 0.0)));

  std::vector<phy::UlPacket> got;
  while (auto pkt = rtr.wait_packet()) got.push_back(pkt->packet);
  ASSERT_EQ(got.size(), sent.size());
  for (int i = 0; i < kPackets; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              sent[static_cast<std::size_t>(i)]);
  }

  const auto stats = rtr.stats();
  EXPECT_EQ(stats.input_depth, 0u);
  ASSERT_EQ(stats.channels.size(), 1u);
  EXPECT_EQ(stats.channels[0].frames_ok,
            static_cast<std::uint64_t>(kPackets));
  EXPECT_GT(stats.channels[0].bits, 0u);
}

TEST(RealtimeReaderShutdown, DroppedPacketsAreCountedAsDroppedNotEmitted) {
  // Regression: packets_emitted_ used to double as the single-chain
  // emission cursor, so a packet dropped on a full output queue was still
  // reported as emitted. With a capacity-1 output, drop_on_full_output,
  // and nobody polling, only the first decoded packet fits — the other
  // two must surface as drops, while the decode counters still see all 3.
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};

  reader::RealtimeReader::Params params;
  params.input_capacity = 64;
  params.output_capacity = 1;
  params.drop_on_full_output = true;
  reader::RealtimeReader rtr{params};
  rtr.start();

  constexpr int kPackets = 3;
  std::vector<phy::UlPacket> sent;
  for (int i = 0; i < kPackets; ++i) {
    const phy::UlPacket pkt{.tid = 3,
                            .payload = static_cast<std::uint16_t>(0x700 + i)};
    sent.push_back(pkt);
    acoustic::BackscatterSource s;
    s.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
    s.chip_rate = 375.0;
    s.start_s = 0.02;
    s.amplitude = 0.2;
    s.phase_rad = 1.0;
    const auto wave = synth.synthesize({s}, 0.28, rng);
    constexpr std::size_t kBlock = 10000;
    for (std::size_t off = 0; off < wave.size(); off += kBlock) {
      const std::size_t len = std::min(kBlock, wave.size() - off);
      ASSERT_TRUE(rtr.submit({wave.begin() + off, wave.begin() + off + len}));
    }
  }
  rtr.stop();

  const auto stats = rtr.stats();
  EXPECT_EQ(stats.packets_emitted, 1u);
  EXPECT_EQ(stats.packets_dropped, static_cast<std::uint64_t>(kPackets - 1));
  ASSERT_EQ(stats.channels.size(), 1u);
  EXPECT_EQ(stats.channels[0].frames_ok,
            static_cast<std::uint64_t>(kPackets));

  // Exactly the first decoded packet is fetchable.
  std::vector<phy::UlPacket> got;
  while (auto pkt = rtr.wait_packet()) got.push_back(pkt->packet);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], sent[0]);
}

TEST(RealtimeReaderShutdown, FdmaModeDecodesTagsChannelsAndStats) {
  // FDMA-bank mode: two tags on different subcarriers through the
  // threaded reader; packets carry channel indices and per-channel stats
  // are populated.
  sim::Rng rng{12};
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};

  reader::RealtimeReader::Params params;
  reader::FdmaRxChain::Params fp;
  fp.channels = {{3000.0}, {6000.0}};
  fp.workers = 2;
  params.fdma = fp;
  params.input_capacity = 64;
  reader::RealtimeReader rtr{params};
  rtr.start();

  std::vector<acoustic::BackscatterSource> srcs;
  std::vector<phy::UlPacket> sent;
  int k = 0;
  for (double fsc : {3000.0, 6000.0}) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload = static_cast<std::uint16_t>(0x600 + k)};
    sent.push_back(pkt);
    phy::SubcarrierModulator mod{{375.0, fsc}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = k == 0 ? 0.2 : 0.15;
    s.phase_rad = 0.8 + k;
    srcs.push_back(s);
    ++k;
  }
  const auto wave = synth.synthesize(srcs, 0.3, rng);
  constexpr std::size_t kBlock = 25000;
  for (std::size_t off = 0; off < wave.size(); off += kBlock) {
    const std::size_t len = std::min(kBlock, wave.size() - off);
    ASSERT_TRUE(rtr.submit({wave.begin() + off, wave.begin() + off + len}));
  }
  rtr.stop();

  std::vector<reader::RxPacket> got;
  while (auto pkt = rtr.wait_packet()) got.push_back(*pkt);
  ASSERT_EQ(got.size(), 2u);
  for (const auto& rx : got) {
    ASSERT_LT(rx.channel, sent.size());
    EXPECT_EQ(rx.packet, sent[rx.channel]);
    EXPECT_GT(rx.time_s, 0.0);
  }

  const auto stats = rtr.stats();
  ASSERT_EQ(stats.channels.size(), 2u);
  for (const auto& ch : stats.channels) {
    EXPECT_EQ(ch.frames_ok, 1u);
    EXPECT_GT(ch.bits, 0u);
    EXPECT_GT(ch.iq_samples, 0u);
  }
  EXPECT_EQ(stats.samples_processed, wave.size());
}

TEST(RealtimeReaderStats, FdmaCountersPolledWhileDecodingNeverRunBackwards) {
  // stats() is a thread-safe snapshot, and the bank's channel list is
  // fixed at construction, so another thread may read it while the worker
  // decodes. A second thread polls a 4-channel channelizer bank from
  // before the first block until after stop(): no per-channel counter may
  // ever decrease, and none may exceed its final value.
  const std::vector<double> freqs = {3000.0, 4500.0, 6000.0, 7500.0};
  sim::Rng rng{31};
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  std::vector<acoustic::BackscatterSource> srcs;
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload = static_cast<std::uint16_t>(0x640 + k)};
    phy::SubcarrierModulator mod{{375.0, freqs[k]}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.15;
    s.phase_rad = 0.6 + 0.5 * static_cast<double>(k);
    srcs.push_back(s);
  }
  const auto wave = synth.synthesize(srcs, 0.3, rng);

  reader::RealtimeReader::Params params;
  reader::FdmaRxChain::Params fp;
  for (double hz : freqs) fp.channels.push_back({hz});
  fp.workers = 2;
  fp.bank = reader::FdmaRxChain::BankPolicy::kChannelizer;
  params.fdma = fp;
  params.input_capacity = 8;
  reader::RealtimeReader rtr{params};
  rtr.start();

  // Counters of one snapshot, flattened: 4 per channel.
  using Counts = std::array<std::uint64_t, 16>;
  const auto flatten = [](const reader::RealtimeReader::Stats& s) {
    Counts c{};
    for (std::size_t ch = 0; ch < 4 && ch < s.channels.size(); ++ch) {
      c[4 * ch] = s.channels[ch].iq_samples;
      c[4 * ch + 1] = s.channels[ch].bits;
      c[4 * ch + 2] = s.channels[ch].frames_ok;
      c[4 * ch + 3] = s.channels[ch].crc_failures;
    }
    return c;
  };
  std::atomic<bool> done{false};
  Counts highest{};
  std::size_t polls = 0;
  bool went_back = false;
  bool wrong_width = false;
  std::thread poller([&] {
    Counts prev{};
    do {
      const auto s = rtr.stats();
      wrong_width |= s.channels.size() != freqs.size();
      const Counts now = flatten(s);
      for (std::size_t i = 0; i < now.size(); ++i) {
        went_back |= now[i] < prev[i];
        highest[i] = std::max(highest[i], now[i]);
      }
      prev = now;
      ++polls;
    } while (!done.load());
  });

  // EXPECT, not ASSERT: an early return would leave the poller unjoined.
  constexpr int kRepeats = 3;
  constexpr std::size_t kBlock = 5000;
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t off = 0; off < wave.size(); off += kBlock) {
      const std::size_t len = std::min(kBlock, wave.size() - off);
      EXPECT_TRUE(rtr.submit({wave.begin() + off, wave.begin() + off + len}));
    }
  }
  rtr.stop();
  done.store(true);
  poller.join();

  const auto final_stats = rtr.stats();
  ASSERT_EQ(final_stats.channels.size(), freqs.size());
  const Counts last = flatten(final_stats);
  EXPECT_GE(polls, 1u);
  EXPECT_FALSE(wrong_width);
  EXPECT_FALSE(went_back) << "a per-channel counter decreased between polls";
  for (std::size_t i = 0; i < last.size(); ++i) {
    EXPECT_LE(highest[i], last[i]) << "counter " << i % 4 << " of channel "
                                   << i / 4;
  }
  for (std::size_t ch = 0; ch < freqs.size(); ++ch) {
    EXPECT_EQ(final_stats.channels[ch].frames_ok,
              static_cast<std::uint64_t>(kRepeats))
        << "channel " << ch;
  }
}

}  // namespace
