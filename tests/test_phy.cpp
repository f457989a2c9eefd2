// Tests for the PHY layer: bit vectors, CRC, FM0/PIE line codes, packet
// serialization, and streaming framers. Includes property-style sweeps over
// all payload/TID values and random bit strings.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <type_traits>
#include <vector>

#include "arachnet/phy/bits.hpp"
#include "arachnet/phy/crc.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/framer.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/pie.hpp"
#include "arachnet/sim/rng.hpp"
#include "fm0_runs.hpp"

namespace {

using namespace arachnet::phy;
using arachnet::sim::Rng;
using arachnet::test::chip_runs;
using arachnet::test::stream_decode;

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng.bernoulli(0.5));
  return v;
}

// ---------------------------------------------------------------- BitVector

TEST(BitVector, AppendAndReadUintRoundTrip) {
  BitVector v;
  v.append_uint(0xABC, 12);
  v.append_uint(0x5, 4);
  EXPECT_EQ(v.size(), 16u);
  EXPECT_EQ(v.read_uint(0, 12), 0xABCu);
  EXPECT_EQ(v.read_uint(12, 4), 0x5u);
}

TEST(BitVector, FromStringAndToString) {
  const auto v = BitVector::from_string("1010 1100");
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(v.to_string(), "10101100");
  EXPECT_THROW(BitVector::from_string("10a"), std::invalid_argument);
}

TEST(BitVector, SliceBoundsChecked) {
  const auto v = BitVector::from_string("110011");
  EXPECT_EQ(v.slice(2, 2).to_string(), "00");
  EXPECT_THROW(v.slice(4, 3), std::out_of_range);
  EXPECT_THROW(v.read_uint(4, 3), std::out_of_range);
}

TEST(BitVector, EqualityAndAppend) {
  auto a = BitVector::from_string("101");
  const auto b = BitVector::from_string("01");
  a.append(b);
  EXPECT_EQ(a, BitVector::from_string("10101"));
}

// ---------------------------------------------------------------------- CRC

TEST(Crc, Crc8KnownVectors) {
  // CRC-8 (poly 0x07, init 0x00) of "123456789" is 0xF4.
  const std::array<std::uint8_t, 9> msg{'1', '2', '3', '4', '5',
                                        '6', '7', '8', '9'};
  EXPECT_EQ(crc8(msg), 0xF4);
}

TEST(Crc, Crc8BitsMatchesByteVersionOnByteAlignedInput) {
  const std::array<std::uint8_t, 3> bytes{0xDE, 0xAD, 0x42};
  BitVector bits;
  for (auto b : bytes) bits.append_uint(b, 8);
  EXPECT_EQ(crc8_bits(bits), crc8(bytes));
}

TEST(Crc, Crc8DetectsSingleBitFlips) {
  Rng rng{3};
  for (int trial = 0; trial < 50; ++trial) {
    BitVector bits = random_bits(rng, 16);
    const auto reference = crc8_bits(bits);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      BitVector corrupted;
      for (std::size_t j = 0; j < bits.size(); ++j) {
        corrupted.push_back(i == j ? !bits[j] : bits[j]);
      }
      EXPECT_NE(crc8_bits(corrupted), reference)
          << "flip at " << i << " undetected";
    }
  }
}

TEST(Crc, Crc16KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::array<std::uint8_t, 9> msg{'1', '2', '3', '4', '5',
                                        '6', '7', '8', '9'};
  EXPECT_EQ(crc16(msg), 0x29B1);
}

// ---------------------------------------------------------------------- FM0

TEST(Fm0, PaperChipPairSemantics) {
  // Bit 0 -> chip pair with a mid transition (10/01); bit 1 -> equal chips.
  const auto chips = Fm0Encoder::encode(BitVector{0, 1}, false);
  ASSERT_EQ(chips.size(), 4u);
  EXPECT_NE(chips[0], chips[1]);  // bit 0: mid transition
  EXPECT_EQ(chips[2], chips[3]);  // bit 1: no mid transition
  EXPECT_NE(chips[1], chips[2]);  // boundary transition between bits
}

TEST(Fm0, StreamDecoderRoundTripsRandomBits) {
  // The reader decodes FM0 from run lengths, whatever the level it starts
  // from.
  Rng rng{5};
  const double chip = 1.0 / 750.0;  // 375 bps raw chips
  for (int trial = 0; trial < 200; ++trial) {
    const auto data = random_bits(rng, 1 + rng.uniform_int(64));
    const auto chips = Fm0Encoder::encode(data, rng.bernoulli(0.5));
    const auto decoded = stream_decode(chip_runs(chips, chip), chip);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

TEST(Fm0, MissingBoundaryTransitionDesyncs) {
  // Bits 1, 0 from level 0 are chips 11 01. Without the transition at
  // the second bit's boundary they read 11 10: a 3-chip run.
  const double chip = 1.0 / 750.0;
  ASSERT_EQ(Fm0Encoder::encode(BitVector{1, 0}, false).to_string(), "1101");
  EXPECT_FALSE(
      stream_decode(chip_runs(BitVector{1, 1, 1, 0}, chip), chip).has_value());
}

TEST(Fm0, StreamDecoderToleratesJitter) {
  Rng rng{12};
  const double chip = 1.0 / 750.0;
  const auto data = BitVector{1, 0, 1, 1, 0, 0, 1, 0};
  auto runs = chip_runs(Fm0Encoder::encode(data, false), chip);
  for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
    runs[i] *= rng.uniform(0.85, 1.15);
  }
  const auto decoded = stream_decode(runs, chip);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Fm0, StreamDecoderRejectsGarbage) {
  const double chip = 1.0 / 750.0;
  EXPECT_FALSE(stream_decode({chip * 3.5, chip}, chip).has_value());
}

// ---------------------------------------------------------------------- PIE

TEST(Pie, ChipPatterns) {
  EXPECT_EQ(PieEncoder::encode(BitVector{0}).to_string(), "10");
  EXPECT_EQ(PieEncoder::encode(BitVector{1}).to_string(), "110");
  EXPECT_EQ(PieEncoder::encode(BitVector{1, 0, 1}).to_string(), "11010110");
}

TEST(Pie, ChipCount) {
  EXPECT_EQ(PieEncoder::chip_count(BitVector{0, 0}), 4u);
  EXPECT_EQ(PieEncoder::chip_count(BitVector{1, 1}), 6u);
  EXPECT_EQ(PieEncoder::chip_count(BitVector{1, 0}), 5u);
}

TEST(Pie, PulseClassification) {
  const double chip = 1.0 / 250.0;
  EXPECT_EQ(PieDecoder::classify_pulse(chip, chip), false);
  EXPECT_EQ(PieDecoder::classify_pulse(2.0 * chip, chip), true);
  EXPECT_FALSE(PieDecoder::classify_pulse(3.2 * chip, chip).has_value());
  EXPECT_FALSE(PieDecoder::classify_pulse(0.2 * chip, chip).has_value());
}

TEST(Pie, ThresholdDecisionMatchesFirmwareRule) {
  const double chip = 1.0 / 250.0;
  EXPECT_FALSE(PieDecoder::threshold_decision(1.2 * chip, chip));
  EXPECT_TRUE(PieDecoder::threshold_decision(1.8 * chip, chip));
}

TEST(Pie, DecodePulseSequenceRoundTrip) {
  Rng rng{31};
  const double chip = 1.0 / 250.0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto data = random_bits(rng, 10);
    std::vector<double> pulses;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double nominal = data[i] ? 2.0 * chip : chip;
      pulses.push_back(nominal * rng.uniform(0.9, 1.1));
    }
    const auto decoded = PieDecoder::decode(pulses, chip);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

// ------------------------------------------------------------------ Packets

TEST(Packet, UlSerializeHasDocumentedGeometry) {
  const UlPacket pkt{.tid = 0xA, .payload = 0x123};
  const auto frame = pkt.serialize();
  EXPECT_EQ(frame.size(), static_cast<std::size_t>(kUlPacketBits));
  EXPECT_EQ(frame.slice(0, kUlPreambleBits), ul_preamble());
  EXPECT_EQ(frame.read_uint(8, 4), 0xAu);
  EXPECT_EQ(frame.read_uint(12, 12), 0x123u);
}

TEST(Packet, UlRoundTripAllTidsAndPayloadSample) {
  for (std::uint8_t tid = 0; tid < 16; ++tid) {
    for (std::uint16_t payload : {0x000, 0x001, 0x7FF, 0x800, 0xFFF}) {
      const UlPacket pkt{.tid = tid,
                         .payload = static_cast<std::uint16_t>(payload)};
      const auto parsed = UlPacket::parse(pkt.serialize());
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(*parsed, pkt);
    }
  }
}

TEST(Packet, UlParseRejectsAnySingleBitFlip) {
  const UlPacket pkt{.tid = 0x5, .payload = 0xACE};
  const auto frame = pkt.serialize();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    BitVector corrupted;
    for (std::size_t j = 0; j < frame.size(); ++j) {
      corrupted.push_back(i == j ? !frame[j] : frame[j]);
    }
    const auto parsed = UlPacket::parse(corrupted);
    if (parsed.has_value()) {
      // A flip must never yield a *different* accepted packet.
      EXPECT_EQ(*parsed, pkt) << "bit " << i;
    }
  }
}

TEST(Packet, DlCommandNibbleRoundTrip) {
  for (int mask = 0; mask < 8; ++mask) {
    const DlCommand cmd{.ack = (mask & 1) != 0,
                        .empty = (mask & 2) != 0,
                        .reset = (mask & 4) != 0};
    EXPECT_EQ(DlCommand::from_nibble(cmd.to_nibble()), cmd);
  }
}

TEST(Packet, DlBeaconRoundTrip) {
  const DlBeacon beacon{.cmd = {.ack = true, .empty = false, .reset = true}};
  const auto parsed = DlBeacon::parse(beacon.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, beacon);
}

TEST(Packet, DurationsMatchPaperScale) {
  // 32-bit UL packet at 375 bps raw: 64 chips -> ~170.7 ms ("~200 ms").
  EXPECT_NEAR(ul_packet_duration(375.0), 64.0 / 375.0, 1e-12);
  EXPECT_GT(ul_packet_duration(), 0.15);
  EXPECT_LT(ul_packet_duration(), 0.25);
  // DL beacon at 250 bps: 10 bits, 20-30 chips -> 80-120 ms.
  const DlBeacon beacon{};
  EXPECT_GT(dl_beacon_duration(beacon), 0.05);
  EXPECT_LT(dl_beacon_duration(beacon), dl_beacon_max_duration());
  EXPECT_NEAR(dl_beacon_max_duration(250.0), 30.0 / 250.0, 1e-12);
}

// ------------------------------------------------------------------ Framers

TEST(Framer, UlFramerFindsPacketInNoise) {
  Rng rng{99};
  std::vector<UlPacket> received;
  UlFramer framer;
  const auto push = [&](bool bit) {
    if (const auto p = framer.push(bit)) received.push_back(*p);
  };

  const UlPacket pkt{.tid = 0x3, .payload = 0x456};
  const auto frame = pkt.serialize();
  // Random leading bits, then the packet, then random trailing bits.
  for (int i = 0; i < 64; ++i) push(rng.bernoulli(0.5));
  framer.reset();  // make sure reset rearms cleanly
  for (int i = 0; i < 32; ++i) push(rng.bernoulli(0.5));
  for (std::size_t i = 0; i < frame.size(); ++i) push(frame[i]);
  for (int i = 0; i < 32; ++i) push(rng.bernoulli(0.5));

  ASSERT_GE(received.size(), 1u);
  EXPECT_EQ(received.front(), pkt);
}

TEST(Framer, UlFramerCountsCrcFailures) {
  std::size_t packets = 0;
  UlFramer framer;
  auto frame = UlPacket{.tid = 1, .payload = 2}.serialize();
  // Corrupt one payload bit (after the preamble so framing still locks).
  BitVector corrupted;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    corrupted.push_back(i == 20 ? !frame[i] : frame[i]);
  }
  for (std::size_t i = 0; i < corrupted.size(); ++i) {
    packets += framer.push(corrupted[i]).has_value();
  }
  EXPECT_EQ(packets, 0u);
  EXPECT_EQ(framer.crc_failures(), 1u);
}

TEST(Framer, BackToBackPackets) {
  std::vector<UlPacket> received;
  UlFramer framer;
  for (std::uint8_t tid = 0; tid < 5; ++tid) {
    const auto frame =
        UlPacket{.tid = tid, .payload = static_cast<std::uint16_t>(100u + tid)}
            .serialize();
    for (std::size_t i = 0; i < frame.size(); ++i) {
      if (const auto p = framer.push(frame[i])) received.push_back(*p);
    }
  }
  ASSERT_EQ(received.size(), 5u);
  for (std::uint8_t tid = 0; tid < 5; ++tid) {
    EXPECT_EQ(received[tid].tid, tid);
    EXPECT_EQ(received[tid].payload, 100u + tid);
  }
}

TEST(Framer, CopyTakenMidFrameCompletesTheFrameOnItsOwn) {
  // The framer is a plain value: a copy owns its shift register and body,
  // so it finishes a frame the original began even once the original is
  // gone.
  static_assert(std::is_copy_constructible_v<UlFramer> &&
                std::is_copy_assignable_v<UlFramer>);
  const UlPacket pkt{.tid = 0x6, .payload = 0x9A5};
  const auto frame = pkt.serialize();
  constexpr std::size_t kCut = kUlPreambleBits + 10;  // inside the body
  auto original = std::make_unique<UlFramer>();
  for (std::size_t i = 0; i < kCut; ++i) {
    EXPECT_FALSE(original->push(frame[i]).has_value());
  }
  UlFramer copy = *original;
  original.reset();
  std::vector<UlPacket> received;
  for (std::size_t i = kCut; i < frame.size(); ++i) {
    if (const auto p = copy.push(frame[i])) received.push_back(*p);
  }
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received.front(), pkt);
  EXPECT_EQ(copy.packets(), 1u);
  EXPECT_EQ(copy.crc_failures(), 0u);
}

}  // namespace
