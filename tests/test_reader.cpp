// Tests for the reader receive path: FM0 stream decoder semantics, the
// shared decision back end (per-chip rule, packet stamps, counter
// publication), and the full waveform-to-packet chain, including multi-rate
// operation, weak links, back-to-back packets, and IQ-cluster collision
// detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/reader/decision_chain.hpp"
#include "arachnet/reader/fm0_stream_decoder.hpp"
#include "arachnet/reader/realtime_reader.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/telemetry/metrics.hpp"

namespace {

using namespace arachnet;
using acoustic::BackscatterSource;
using acoustic::UplinkWaveformSynth;
using phy::BitVector;
using phy::Fm0Encoder;
using phy::UlPacket;
using reader::DecisionChain;
using reader::Fm0StreamDecoder;
using reader::RxChain;
using sim::Rng;

// ------------------------------------------------------- Fm0StreamDecoder

struct DecoderHarness {
  std::string bits;
  int desyncs = 0;
  Fm0StreamDecoder decoder;

  explicit DecoderHarness(double chip = 1.0 / 375.0)
      : decoder({chip, 0.35}) {}

  void push_run(double duration_s) {
    switch (decoder.push_run(duration_s)) {
      case Fm0StreamDecoder::Symbol::kZero: bits.push_back('0'); break;
      case Fm0StreamDecoder::Symbol::kOne: bits.push_back('1'); break;
      case Fm0StreamDecoder::Symbol::kDesync: ++desyncs; break;
      case Fm0StreamDecoder::Symbol::kNone: break;
    }
  }

  void feed_chips(const BitVector& chips, double chip = 1.0 / 375.0) {
    // Convert chips to runs.
    bool level = chips[0];
    double run = chip;
    for (std::size_t i = 1; i < chips.size(); ++i) {
      if (chips[i] == level) {
        run += chip;
      } else {
        push_run(run);
        run = chip;
        level = chips[i];
      }
    }
    push_run(run);
  }
};

TEST(Fm0Stream, DecodesCleanStream) {
  DecoderHarness h;
  const auto data = BitVector::from_string("10110100");
  // Terminator ensures the final run closes.
  h.feed_chips(Fm0Encoder::encode_frame(data));
  EXPECT_EQ(h.bits.substr(0, 8 + Fm0Encoder::kPilotBits),
            std::string(Fm0Encoder::kPilotBits, '0') + "10110100");
  EXPECT_EQ(h.desyncs, 0);
}

TEST(Fm0Stream, ResynchronizesAfterSwallowedChip) {
  // Drop the first chip (silence merge): the decoder must realign at the
  // first full-bit run and decode the data correctly.
  DecoderHarness h;
  const auto data = BitVector::from_string("10110100");
  auto chips = Fm0Encoder::encode_frame(data);
  BitVector clipped;
  for (std::size_t i = 1; i < chips.size(); ++i) clipped.push_back(chips[i]);
  h.feed_chips(clipped);
  // The data must appear somewhere in the decoded stream despite the lost
  // pilot chip.
  EXPECT_NE(h.bits.find("10110100"), std::string::npos) << h.bits;
}

TEST(Fm0Stream, LongRunTriggersDesync) {
  DecoderHarness h;
  h.push_run(10.0);  // seconds of silence
  EXPECT_EQ(h.desyncs, 1);
  h.push_run(0.2 / 375.0);  // sub-chip noise blip
  EXPECT_EQ(h.desyncs, 2);
}

TEST(Fm0Stream, ToleratesTimingJitter) {
  Rng rng{3};
  for (int trial = 0; trial < 50; ++trial) {
    DecoderHarness h;
    const double chip = 1.0 / 375.0;
    BitVector data;
    for (int i = 0; i < 24; ++i) data.push_back(rng.bernoulli(0.5));
    const auto chips = Fm0Encoder::encode_frame(data);
    bool level = chips[0];
    double run = chip * rng.uniform(0.85, 1.15);
    for (std::size_t i = 1; i < chips.size(); ++i) {
      if (chips[i] == level) {
        run += chip * rng.uniform(0.85, 1.15);
      } else {
        h.push_run(run);
        run = chip * rng.uniform(0.85, 1.15);
        level = chips[i];
      }
    }
    h.push_run(run);
    EXPECT_NE(h.bits.find(data.to_string()), std::string::npos);
  }
}

// ---------------------------------------------------------- DecisionChain

TEST(DecisionChain, RuleMeetsThePerChipTargets) {
  for (const double spc : {2.5, 125.0 / 3.0, 50.0, 200.0}) {
    const auto r = DecisionChain::rule(spc);
    // What is left after one chip of samples: 2% of a level step, 96% of
    // a held level, half the axis error, 2^(-125/3) of a step captured
    // from outside the slicer's band.
    EXPECT_NEAR(std::pow(1.0 - r.track_alpha, spc), 0.02, 1e-12);
    EXPECT_NEAR(std::pow(1.0 - r.leak_alpha, spc), 0.96, 1e-12);
    EXPECT_NEAR(std::pow(1.0 - r.axis_alpha, spc), 0.5, 1e-12);
    EXPECT_NEAR(std::pow(1.0 - r.capture_alpha, spc) /
                    std::exp2(-125.0 / 3.0),
                1.0, 1e-9);
  }
  // The single chain decides at 125/3 samples per chip at 93.75-750
  // chip/s (15625 / 375 at 375 chip/s); its recorded decodes (DecisionPin)
  // need capture at exactly 0.5 per sample there.
  EXPECT_EQ(DecisionChain::rule(125.0 / 3.0).capture_alpha, 0.5);
  EXPECT_EQ(DecisionChain::rule(15625.0 / 375.0).capture_alpha, 0.5);
  EXPECT_NEAR(DecisionChain::rule(31250.0 / 1500.0).capture_alpha, 0.75,
              1e-12);
  EXPECT_NEAR(DecisionChain::rule(3906.25 / 375.0).capture_alpha, 0.9375,
              1e-12);
  EXPECT_EQ(DecisionChain::rule(2.5).debounce, 1u);  // never below one
  EXPECT_EQ(DecisionChain::rule(50.0).debounce, 6u);
  EXPECT_EQ(DecisionChain::rule(200.0).debounce, 24u);
}

// Renders the first `keep` chips (all by default) of one framed packet as
// bipolar FM0 chips on a rotated axis, with `spc` samples per chip and 40
// chips of silence on both sides.
std::vector<std::complex<double>> chip_samples(
    const UlPacket& pkt, std::size_t spc,
    std::size_t keep = std::numeric_limits<std::size_t>::max()) {
  const std::complex<double> axis = std::polar(0.1, 0.7);
  std::vector<std::complex<double>> s(40 * spc, 0.0);
  const auto chips = Fm0Encoder::encode_frame(pkt.serialize());
  for (std::size_t i = 0; i < std::min(keep, chips.size()); ++i) {
    s.insert(s.end(), spc, chips[i] ? axis : -axis);
  }
  s.insert(s.end(), 40 * spc, 0.0);
  return s;
}

TEST(DecisionChain, ReturnsPacketsAndPublishesCountsOncePerBlock) {
  constexpr std::size_t kSpc = 20;
  const UlPacket pkt{.tid = 5, .payload = 0x3B7};
  const auto samples = chip_samples(pkt, kSpc);
  std::vector<std::pair<UlPacket, std::uint64_t>> got;
  DecisionChain chain{{.rate_hz = 375.0 * kSpc,
                       .chip_rate = 375.0,
                       .slicer_floor = 0.001}};
  telemetry::MetricsRegistry registry;
  chain.bind(&registry.counter("iq"), &registry.counter("bits"),
             &registry.counter("frames"), &registry.counter("crc"));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (const auto p = chain.step(samples[i])) got.emplace_back(*p, 1000 + i);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, pkt);
  // Returned by a sample inside the frame, at or after its last data chip.
  const std::size_t frame_end = samples.size() - 40 * kSpc;
  EXPECT_GE(got[0].second, 1000 + frame_end - 2 * kSpc);
  EXPECT_LT(got[0].second, 1000 + frame_end + kSpc);

  // Nothing is published until the block ends.
  EXPECT_EQ(chain.published().frames_ok, 0u);
  chain.publish(samples.size());
  const auto c = chain.published();
  EXPECT_EQ(c.iq_samples, samples.size());
  EXPECT_EQ(c.frames_ok, 1u);
  EXPECT_EQ(c.crc_failures, 0u);
  EXPECT_GE(c.bits, pkt.serialize().size());
  EXPECT_EQ(c.bits, chain.counts().bits);
  EXPECT_EQ(registry.counter("iq").value(), c.iq_samples);
  EXPECT_EQ(registry.counter("bits").value(), c.bits);
  EXPECT_EQ(registry.counter("frames").value(), 1u);
}

TEST(DecisionChain, DesyncSendsTheFramerBackToHunting) {
  // A packet cut off after half its body leaves the framer collecting.
  // The silence after it is no FM0 run; that desync must restart the
  // preamble hunt, or the framer would take the next packet's pilot and
  // preamble as the rest of the cut body.
  constexpr std::size_t kSpc = 20;
  const UlPacket cut{.tid = 3, .payload = 0x5A1};
  const UlPacket whole{.tid = 5, .payload = 0x3B7};
  // Pilot, preamble and half the body, two chips per bit.
  constexpr std::size_t kKept =
      2 * (Fm0Encoder::kPilotBits + phy::kUlPreambleBits +
           (phy::kUlPacketBits - phy::kUlPreambleBits) / 2);
  auto samples = chip_samples(cut, kSpc, kKept);  // ends in 40 silent chips
  const auto next = chip_samples(whole, kSpc);
  samples.insert(samples.end(), next.begin() + 40 * kSpc, next.end());
  std::vector<UlPacket> got;
  DecisionChain chain{{.rate_hz = 375.0 * kSpc,
                       .chip_rate = 375.0,
                       .slicer_floor = 0.001}};
  for (const auto& s : samples) {
    if (const auto p = chain.step(s)) got.push_back(*p);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], whole);
  EXPECT_EQ(chain.counts().crc_failures, 0u);
}

// ----------------------------------------------------------------- RxChain

struct WaveHarness {
  UplinkWaveformSynth synth{UplinkWaveformSynth::Params{}};
  Rng rng{77};

  BackscatterSource source(const UlPacket& pkt, double amp, double rate,
                           double start = 0.03, double phase = 1.2) {
    BackscatterSource src;
    src.chips = Fm0Encoder::encode_frame(pkt.serialize());
    src.chip_rate = rate;
    src.start_s = start;
    src.amplitude = amp;
    src.phase_rad = phase;
    return src;
  }
};

TEST(RxChain, DecodesSinglePacket) {
  WaveHarness h;
  RxChain rx{RxChain::Params{}};
  const UlPacket pkt{.tid = 9, .payload = 0x5C3};
  const auto wave = h.synth.synthesize({h.source(pkt, 0.2, 375.0)}, 0.35, h.rng);
  rx.process(wave);
  ASSERT_EQ(rx.packets().size(), 1u);
  EXPECT_EQ(rx.packets()[0].packet, pkt);
}

TEST(RxChain, DecodesAtAllPaperBitRates) {
  for (double rate : {93.75, 187.5, 375.0, 750.0, 1500.0, 3000.0}) {
    WaveHarness h;
    RxChain::Params params;
    params.chip_rate = rate;
    RxChain rx{params};
    int decoded = 0;
    for (int i = 0; i < 5; ++i) {
      const UlPacket pkt{.tid = static_cast<std::uint8_t>(i),
                         .payload = static_cast<std::uint16_t>(0x700 + i)};
      const auto wave = h.synth.synthesize({h.source(pkt, 0.3, rate)},
                                           0.05 + 84.0 / rate, h.rng);
      rx.clear_packets();
      rx.process(wave);
      for (const auto& p : rx.packets()) {
        if (p.packet.tid == i) ++decoded;
      }
    }
    EXPECT_GE(decoded, 4) << "rate " << rate;
  }
}

TEST(RxChain, DecodesWeakTag11LevelLinkAt375) {
  WaveHarness h;
  RxChain rx{RxChain::Params{}};
  int decoded = 0;
  for (int i = 0; i < 10; ++i) {
    const UlPacket pkt{.tid = 11, .payload = static_cast<std::uint16_t>(i)};
    const auto wave =
        h.synth.synthesize({h.source(pkt, 0.0128, 375.0)}, 0.30, h.rng);
    rx.clear_packets();
    rx.process(wave);
    for (const auto& p : rx.packets()) {
      if (p.packet.payload == i) ++decoded;
    }
  }
  EXPECT_GE(decoded, 8);
}

TEST(RxChain, QuadraturePhaseStillDecodes) {
  // Reflection in quadrature with the leak: magnitude demod would fade,
  // the axis projection must not.
  WaveHarness h;
  RxChain rx{RxChain::Params{}};
  const UlPacket pkt{.tid = 2, .payload = 0x0F0};
  const auto wave = h.synth.synthesize(
      {h.source(pkt, 0.05, 375.0, 0.03, 1.5707963)}, 0.35, h.rng);
  rx.process(wave);
  ASSERT_EQ(rx.packets().size(), 1u);
  EXPECT_EQ(rx.packets()[0].packet, pkt);
}

TEST(RxChain, BackToBackPacketsAcrossWindows) {
  WaveHarness h;
  RxChain rx{RxChain::Params{}};
  int decoded = 0;
  for (int i = 0; i < 8; ++i) {
    const UlPacket pkt{.tid = static_cast<std::uint8_t>(i),
                       .payload = static_cast<std::uint16_t>(i * 111)};
    const auto wave =
        h.synth.synthesize({h.source(pkt, 0.25, 375.0)}, 0.32, h.rng);
    rx.process(wave);
    for (const auto& p : rx.packets()) {
      if (p.packet.tid == i && p.packet.payload == i * 111) ++decoded;
    }
    rx.clear_packets();
  }
  EXPECT_GE(decoded, 7);
}

TEST(RxChain, CorruptedPacketIsDroppedNotMisparsed) {
  WaveHarness h;
  RxChain rx{RxChain::Params{}};
  const UlPacket pkt{.tid = 5, .payload = 0x123};
  auto src = h.source(pkt, 0.2, 375.0);
  // Truncate the chips mid-packet: reception must not produce a packet.
  src.chips = src.chips.slice(0, src.chips.size() / 2);
  const auto wave = h.synth.synthesize({src}, 0.3, h.rng);
  rx.process(wave);
  EXPECT_TRUE(rx.packets().empty());
}

TEST(RxChain, CollisionDetectedViaIqClusters) {
  WaveHarness h;
  RxChain rx{RxChain::Params{}};
  const UlPacket a{.tid = 1, .payload = 0x111};
  const UlPacket b{.tid = 2, .payload = 0x222};
  // Overlapping transmissions with distinct phases.
  const auto wave = h.synth.synthesize(
      {h.source(a, 0.2, 375.0, 0.03, 0.9), h.source(b, 0.15, 375.0, 0.05, 2.2)},
      0.4, h.rng);
  rx.process(wave);
  Rng cluster_rng{5};
  EXPECT_TRUE(rx.collision_detected(cluster_rng));
}

TEST(RxChain, SingleTagIsNotFlaggedAsCollision) {
  WaveHarness h;
  RxChain rx{RxChain::Params{}};
  const UlPacket pkt{.tid = 1, .payload = 0x111};
  const auto wave =
      h.synth.synthesize({h.source(pkt, 0.2, 375.0)}, 0.35, h.rng);
  rx.process(wave);
  Rng cluster_rng{5};
  EXPECT_FALSE(rx.collision_detected(cluster_rng));
}

TEST(RxChain, ResetClearsState) {
  WaveHarness h;
  RxChain rx{RxChain::Params{}};
  const UlPacket pkt{.tid = 3, .payload = 0x333};
  rx.process(h.synth.synthesize({h.source(pkt, 0.2, 375.0)}, 0.3, h.rng));
  ASSERT_FALSE(rx.iq_points().empty());
  rx.reset();
  rx.clear_packets();
  EXPECT_TRUE(rx.iq_points().empty());
  EXPECT_TRUE(rx.packets().empty());
  // Chain still works after reset.
  rx.process(h.synth.synthesize({h.source(pkt, 0.2, 375.0)}, 0.3, h.rng));
  EXPECT_EQ(rx.packets().size(), 1u);
}

TEST(RxChain, RejectsChipRateThatIsNotFiniteAndPositive) {
  // Checked before anything is built from it: at 0 the per-chip rule
  // would cast +inf samples per chip to an integer, and NaN would design
  // an all-NaN DDC.
  for (const double rate : {0.0, -375.0,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    RxChain::Params p;
    p.chip_rate = rate;
    try {
      RxChain rx{p};
      ADD_FAILURE() << "accepted chip_rate " << rate;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("chip_rate"), std::string::npos)
          << "got: " << e.what();
    }
  }
}

TEST(RxChain, DecimationFollowsChipRate) {
  // The DDC decimates by the largest power of two in [16, 128] that keeps
  // >= 32 IQ samples per chip, through 8·D + 1 taps; the caller's
  // ddc.decimation and ddc.taps are not read.
  struct Row {
    double chip_rate;
    std::size_t decimation;
    std::size_t taps;
  };
  constexpr Row kRows[] = {{93.75, 128, 1025}, {187.5, 64, 513},
                           {375.0, 32, 257},   {750.0, 16, 129},
                           {1500.0, 16, 129},  {3000.0, 16, 129}};
  for (const Row& row : kRows) {
    SCOPED_TRACE(testing::Message() << row.chip_rate << " chip/s");
    const auto rule = DecisionChain::decimation(500e3, row.chip_rate);
    EXPECT_EQ(rule.factor, row.decimation);
    EXPECT_EQ(rule.taps, row.taps);

    WaveHarness h;
    const UlPacket pkt{.tid = 7, .payload = 0x2A5};
    const auto wave = h.synth.synthesize(
        {h.source(pkt, 0.2, row.chip_rate)}, 0.05 + 84.0 / row.chip_rate,
        h.rng);
    RxChain::Params params;
    params.chip_rate = row.chip_rate;
    RxChain rx{params};
    EXPECT_EQ(rx.params().ddc.decimation, row.decimation);
    EXPECT_EQ(rx.params().ddc.taps, row.taps);
    rx.process(wave);
    EXPECT_EQ(rx.published_counts().iq_samples, wave.size() / row.decimation);
    ASSERT_EQ(rx.packets().size(), 1u);
    EXPECT_EQ(rx.packets()[0].packet, pkt);

    // Whatever decimation or filter length the caller asks for, the chain
    // decodes the same packets at the same stamps.
    RxChain::Params decim = params;
    decim.ddc.decimation = 4;
    RxChain::Params taps = params;
    taps.ddc.taps = 31;
    for (const RxChain::Params& other : {decim, taps}) {
      RxChain alt{other};
      alt.process(wave);
      EXPECT_EQ(alt.bits_decoded(), rx.bits_decoded());
      ASSERT_EQ(alt.packets().size(), rx.packets().size());
      EXPECT_EQ(alt.packets()[0].packet, rx.packets()[0].packet);
      EXPECT_EQ(alt.packets()[0].time_s, rx.packets()[0].time_s);
    }
  }

  // A tiny chip rate must not grow the filter without bound (or hang the
  // rule): it gets the 93.75 chip/s front end.
  const auto slow = DecisionChain::decimation(500e3, 1e-3);
  EXPECT_EQ(slow.factor, 128u);
  EXPECT_EQ(slow.taps, 1025u);
  RxChain::Params params;
  params.chip_rate = 1e-3;
  RxChain rx{params};
  EXPECT_EQ(rx.params().ddc.decimation, 128u);
  EXPECT_EQ(rx.params().ddc.taps, 1025u);
  rx.process(std::vector<double>(5000, 0.0));
  EXPECT_EQ(rx.published_counts().iq_samples, 5000u / 128u);
}

TEST(RxChain, PacketAfterTheReplyGapDecodesAtEveryRate) {
  // Slotted operation: resync() at the slot start, and the tag replies
  // after its 20 ms gap. The leak warm-up that resync() restarts (and the
  // decision mute with it) is a duration, 9.6 ms, so at every decimation
  // it ends inside the gap and the chain recovers every bit of the frame,
  // pilot included. Counted as 300 IQ samples it would last 38.4 ms at
  // D = 64 and 76.8 ms at D = 128 and mute the first pilot bits.
  for (const double rate : {93.75, 187.5, 375.0, 750.0, 1500.0, 3000.0}) {
    SCOPED_TRACE(testing::Message() << rate << " chip/s");
    WaveHarness h;
    RxChain::Params params;
    params.chip_rate = rate;
    RxChain rx{params};
    for (int i = 0; i < 3; ++i) {
      const UlPacket pkt{.tid = 3,
                         .payload = static_cast<std::uint16_t>(0x400 + i)};
      const auto wave = h.synth.synthesize(
          {h.source(pkt, 0.2, rate, 0.02)}, 0.03 + 84.0 / rate, h.rng);
      rx.resync();
      rx.clear_packets();
      const std::uint64_t bits_before = rx.bits_decoded();
      rx.process(wave);
      ASSERT_EQ(rx.packets().size(), 1u) << "slot " << i;
      EXPECT_EQ(rx.packets()[0].packet, pkt);
      // Pilot, body and the closing dummy bit.
      EXPECT_GE(rx.bits_decoded() - bits_before,
                Fm0Encoder::kPilotBits + pkt.serialize().size() + 1)
          << "slot " << i;
    }
  }
}

TEST(RxChain, WarmUpCancelsTheLeakUnderAWeakQuadratureTagAtSlowRates) {
  // A weak reflection in quadrature with the leak decodes only if the
  // warm-up cancels the leak to far below the modulation: with the default
  // leak_ema_alpha = 0 the estimate freezes after the warm-up, a leftover
  // leak pulls the axis onto itself and the tag projects to ~0. The
  // warm-up's time constant is fixed in time, so at D = 128 and 64 (38 and
  // 75 warm-up samples) it converges as deeply as over 300 samples at
  // D = 16: right after construction, and after the leak steps from 1.0 to
  // 0.5 across resync(). Nor may the axis learn the residual the warm-up
  // is still cancelling, or the pilot and preamble go to forgetting it:
  // every slot decodes its whole frame, pilot included, at the Tag 11
  // level.
  constexpr double kQuadrature = 1.5707963;
  for (const double chip_rate : {93.75, 187.5}) {
    SCOPED_TRACE(testing::Message() << chip_rate << " chip/s");
    WaveHarness h;
    // A second carrier at the leak's phase, rendered in lockstep with the
    // first and added from slot 2 on, halves the leak.
    UplinkWaveformSynth::Params sp;
    sp.carrier_leak_amplitude = -0.5;
    sp.noise_sigma = 0.0;
    UplinkWaveformSynth leak_step{sp};
    Rng unused{1};
    RxChain::Params params;
    params.chip_rate = chip_rate;
    RxChain rx{params};
    for (int i = 0; i < 4; ++i) {
      const UlPacket pkt{.tid = 11,
                         .payload = static_cast<std::uint16_t>(0x300 + i)};
      const double span = 0.03 + 84.0 / chip_rate;
      auto wave = h.synth.synthesize(
          {h.source(pkt, 0.013, chip_rate, 0.02, kQuadrature)}, span, h.rng);
      const auto step = leak_step.synthesize({}, span, unused);
      if (i >= 2) {
        for (std::size_t k = 0; k < wave.size(); ++k) wave[k] += step[k];
      }
      if (i > 0) rx.resync();
      rx.clear_packets();
      const std::uint64_t bits_before = rx.bits_decoded();
      rx.process(wave);
      // The pilot and the frame.
      EXPECT_GE(rx.bits_decoded() - bits_before,
                Fm0Encoder::kPilotBits + pkt.serialize().size())
          << "slot " << i;
      ASSERT_EQ(rx.packets().size(), 1u) << "slot " << i;
      EXPECT_EQ(rx.packets()[0].packet, pkt) << "slot " << i;
    }
  }
}

TEST(RxChain, RejectsFrequencyCalibrationThatIsNotFiniteAndNonNegative) {
  for (const double span : {-0.01, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    RxChain::Params p;
    p.freq_cal_s = span;
    try {
      RxChain rx{p};
      ADD_FAILURE() << "accepted freq_cal_s " << span;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("freq_cal_s"), std::string::npos)
          << "got: " << e.what();
    }
  }
}

TEST(RxChain, AmbientVehicleVibrationDoesNotBreakDecoding) {
  // Strong sub-100 Hz vibration (driving conditions) must not affect the
  // 90 kHz link (paper Sec. 2.2 discussion).
  WaveHarness h;
  UplinkWaveformSynth::Params wp;
  wp.ambient_amplitude = 2.0;  // large low-frequency component
  wp.ambient_hz = 35.0;
  h.synth = UplinkWaveformSynth{wp};
  RxChain rx{RxChain::Params{}};
  int decoded = 0;
  for (int i = 0; i < 5; ++i) {
    const UlPacket pkt{.tid = 6, .payload = static_cast<std::uint16_t>(i)};
    const auto wave =
        h.synth.synthesize({h.source(pkt, 0.1, 375.0)}, 0.3, h.rng);
    rx.clear_packets();
    rx.process(wave);
    for (const auto& p : rx.packets()) {
      if (p.packet.payload == i) ++decoded;
    }
  }
  EXPECT_GE(decoded, 4);
}

TEST(RxChain, FrequencyCalibrationHoldsAnOffsetCarrierStill) {
  // A carrier 12 Hz off the DDC's mixer leaves the leak phasor spinning at
  // baseband, which the leak estimate frozen after each slot's warmup
  // cannot cancel. The one-shot calibration estimates the offset from the
  // first IQ samples; from then on the derotation holds the leak still, so
  // every slot decodes (slotted operation: resync() at each slot start).
  UplinkWaveformSynth::Params wp;
  wp.carrier_hz = 90e3 + 12.0;
  WaveHarness h;
  h.synth = UplinkWaveformSynth{wp};
  RxChain::Params cal;
  cal.freq_cal_s = 0.064;
  RxChain calibrated{cal};
  RxChain uncalibrated{RxChain::Params{}};
  int decoded_cal = 0;
  int decoded_uncal = 0;
  for (int i = 0; i < 6; ++i) {
    const UlPacket pkt{.tid = 4, .payload = static_cast<std::uint16_t>(i)};
    const auto wave = h.synth.synthesize(
        {h.source(pkt, 0.1, 375.0, 0.1, 0.4 * i)}, 0.35, h.rng);
    for (RxChain* rx : {&calibrated, &uncalibrated}) {
      rx->resync();
      rx->clear_packets();
      rx->process(wave);
    }
    for (const auto& p : calibrated.packets()) decoded_cal += p.packet == pkt;
    for (const auto& p : uncalibrated.packets()) {
      decoded_uncal += p.packet == pkt;
    }
  }
  EXPECT_EQ(decoded_cal, 6);
  EXPECT_EQ(decoded_uncal, 0) << "the offset must matter";
}

// --------------------------------------------------- per-instance scopes

TEST(RealtimeReaderScope, TwoReadersShareOneRegistryWithoutColliding) {
  telemetry::MetricsRegistry registry;
  reader::RealtimeReader::Params p0;
  p0.metrics = &registry;
  p0.metrics_scope = "r0.";
  reader::RealtimeReader r0{p0};
  reader::RealtimeReader::Params p1;
  p1.metrics = &registry;
  p1.metrics_scope = "r1.";
  reader::RealtimeReader r1{p1};
  r0.start();
  r1.start();

  Rng rng{7};
  UplinkWaveformSynth synth{UplinkWaveformSynth::Params{}};
  const UlPacket pkt{.tid = 9, .payload = 0x5C3};
  BackscatterSource src;
  src.chips = Fm0Encoder::encode_frame(pkt.serialize());
  src.chip_rate = 375.0;
  src.start_s = 0.03;
  src.amplitude = 0.2;
  src.phase_rad = 1.2;
  const auto wave = synth.synthesize({src}, 0.35, rng);

  // Only r0 sees traffic; r1 stays idle on the same registry.
  constexpr std::size_t kBlock = 12500;
  std::size_t blocks = 0;
  for (std::size_t off = 0; off < wave.size(); off += kBlock, ++blocks) {
    const std::size_t len = std::min(kBlock, wave.size() - off);
    ASSERT_TRUE(r0.submit({wave.begin() + off, wave.begin() + off + len}));
  }
  r0.stop();
  r1.stop();

  std::size_t fetched = 0;
  while (r0.poll_packet()) ++fetched;
  ASSERT_GT(fetched, 0u);
  EXPECT_EQ(registry.counter("r0.reader.packets_emitted").value(), fetched);
  EXPECT_EQ(registry.counter("r0.reader.blocks").value(), blocks);
  EXPECT_EQ(registry.counter("r1.reader.packets_emitted").value(), 0u);
  EXPECT_EQ(registry.counter("r1.reader.blocks").value(), 0u);
  // The unscoped historical name is untouched by scoped instances.
  EXPECT_EQ(registry.counter("reader.blocks").value(), 0u);
}

}  // namespace
