// Robustness and failure-injection tests: random-bit fuzzing of the
// framers and decoders (must never crash, never accept corrupted CRC
// packets as different packets), reader-controller belief expiry, the
// harvester overvoltage clamp, FDMA behaviour under same-subcarrier
// collisions, and single NaN/Inf DAQ samples in a streaming capture (the
// single chain and both FDMA bank modes must keep decoding).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/core/reader_controller.hpp"
#include "arachnet/energy/harvester.hpp"
#include "arachnet/mcu/vlo_clock.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/framer.hpp"
#include "arachnet/phy/pie.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/fm0_stream_decoder.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/sim/rng.hpp"

namespace arachnet::phy {

// Readable packet lists in failure messages.
void PrintTo(const UlPacket& p, std::ostream* os) {
  *os << "tid " << static_cast<int>(p.tid) << " payload 0x" << std::hex
      << p.payload << std::dec;
}

}  // namespace arachnet::phy

namespace {

using namespace arachnet;

// ------------------------------------------------------------ framer fuzz

TEST(Fuzz, UlFramerSurvivesRandomBits) {
  sim::Rng rng{101};
  std::size_t accepted = 0;
  phy::UlFramer framer;
  for (int i = 0; i < 200000; ++i) {
    accepted += framer.push(rng.bernoulli(0.5)).has_value();
  }
  // Random bits occasionally satisfy preamble+CRC (~2^-16 of preamble
  // hits); what matters is bounded acceptance and no crash.
  EXPECT_LT(accepted, 50u);
}

TEST(Fuzz, Fm0StreamDecoderSurvivesRandomRuns) {
  sim::Rng rng{105};
  std::size_t bits = 0, desyncs = 0;
  reader::Fm0StreamDecoder decoder{{1.0 / 375.0, 0.35}};
  using Symbol = reader::Fm0StreamDecoder::Symbol;
  for (int i = 0; i < 50000; ++i) {
    const Symbol s = decoder.push_run(rng.uniform(0.0, 4.0 / 375.0));
    bits += s == Symbol::kZero || s == Symbol::kOne;
    desyncs += s == Symbol::kDesync;
  }
  EXPECT_GT(desyncs, 0u);
  EXPECT_GT(bits, 0u);
}

TEST(Fuzz, RxChainSurvivesPureNoiseWithoutFalsePackets) {
  sim::Rng rng{107};
  acoustic::UplinkWaveformSynth::Params wp;
  wp.noise_sigma = 0.05;  // much hotter than calibrated
  acoustic::UplinkWaveformSynth synth{wp};
  reader::RxChain rx{reader::RxChain::Params{}};
  rx.process(synth.synthesize({}, 2.0, rng));  // 1M samples of noise
  EXPECT_TRUE(rx.packets().empty());
}

TEST(Fuzz, PieDecoderRejectsRandomPulses) {
  sim::Rng rng{109};
  const double chip = 1.0 / 250.0;
  int classified = 0;
  for (int i = 0; i < 10000; ++i) {
    if (phy::PieDecoder::classify_pulse(rng.uniform(0.0, 5.0 * chip), chip)) {
      ++classified;
    }
  }
  // Acceptance windows cover (0.55..1.45) and (1.1..2.9) chips of the
  // 0..5 range: random pulses mostly rejected or benignly classified.
  EXPECT_LT(classified, 7000);
}

// ------------------------------------------- reader controller edge cases

TEST(ReaderEdge, BeliefExpiresWhenOwnerGoesSilent) {
  core::ReaderController reader;
  reader.register_tag(1, 4);
  reader.register_tag(2, 4);
  // Tag 1 settles at offset 0.
  EXPECT_TRUE(reader.close_slot({.decoded_tid = 1}).ack);
  // Tag 1 then vanishes (e.g. brownout) for > 2 periods.
  for (int s = 1; s < 12; ++s) reader.close_slot({});
  // Tag 2 now shows up on tag 1's old residue: the stale belief must not
  // block its admission.
  EXPECT_TRUE(reader.close_slot({.decoded_tid = 2}).ack);
}

TEST(ReaderEdge, UnknownTidDecodeIsAckedButNotTracked) {
  // A decode with a TID the reader never registered (corrupted TID that
  // passed CRC is ~2^-8 rare but possible) must not crash bookkeeping.
  core::ReaderController reader;
  reader.register_tag(1, 4);
  const auto cmd = reader.close_slot({.decoded_tid = 9});
  EXPECT_TRUE(cmd.ack);  // decoded cleanly; reader has no basis to NACK
}

TEST(ReaderEdge, ConsecutiveResetsAreIdempotent) {
  core::ReaderController reader;
  reader.register_tag(1, 2);
  reader.close_slot({.decoded_tid = 1});
  reader.request_reset();
  EXPECT_TRUE(reader.close_slot({}).reset);
  reader.request_reset();
  reader.request_reset();
  EXPECT_TRUE(reader.close_slot({}).reset);
  EXPECT_FALSE(reader.close_slot({}).reset);
  EXPECT_EQ(reader.slot_index(), 1);
}

// ----------------------------------------------------- harvester clamping

TEST(HarvesterEdge, StrongLinkClampsInsteadOfOvercharging) {
  energy::Harvester h{energy::Harvester::Params{}};
  h.set_pzt_peak_voltage(1.9);  // tag-8-class link, Voc ~19 V
  for (int i = 0; i < 30000; ++i) h.step(1e-2);
  EXPECT_LE(h.cap_voltage(), h.params().clamp_voltage + 1e-9);
  EXPECT_TRUE(h.mcu_powered());
}

TEST(HarvesterEdge, ClampKeepsVloInUsableRange) {
  // The clamp exists so the supply-sensitive VLO stays near its reference;
  // at 2.5 V the frequency shift is under 2%.
  mcu::VloClock vlo;
  energy::Harvester h{energy::Harvester::Params{}};
  EXPECT_LT(vlo.frequency(h.params().clamp_voltage) / vlo.frequency(2.0),
            1.02);
}

// --------------------------------------------------- FDMA collision cases

TEST(FdmaEdge, SameSubcarrierCollisionYieldsNoCleanDecode) {
  sim::Rng rng{111};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  reader::FdmaRxChain::Params fp;
  fp.channels = {{3000.0}};
  reader::FdmaRxChain fdma{fp};

  std::vector<acoustic::BackscatterSource> srcs;
  for (int k = 0; k < 2; ++k) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload = 0x111};
    phy::SubcarrierModulator mod{{375.0, 3000.0}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.15;
    s.phase_rad = 0.5 + k;
    srcs.push_back(s);
  }
  fdma.process(synth.synthesize(srcs, 0.3, rng));
  // Two tags on ONE subcarrier collide exactly like baseband ARACHNET:
  // the channel must not fabricate a valid packet from the mixture.
  for (const auto& p : fdma.packets(0)) {
    EXPECT_TRUE(p.tid == 1 || p.tid == 2);  // capture effect at most
  }
}

// ------------------------------------------------- non-finite DAQ samples

// A phase-continuous stream of `windows` windows of `window_s` seconds,
// each carrying one 375 bps packet per subcarrier (one baseband packet
// when `subcarriers` is empty) that starts 30 ms into the window.
struct WindowedCapture {
  std::vector<double> samples;
  std::size_t window_samples = 0;
  std::vector<std::vector<phy::UlPacket>> truth;  ///< per window
};

WindowedCapture render_windows(const std::vector<double>& subcarriers,
                               std::size_t windows, double window_s) {
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{211};
  WindowedCapture cap;
  cap.window_samples =
      static_cast<std::size_t>(window_s * synth.params().sample_rate_hz);
  const std::size_t lanes = subcarriers.empty() ? 1 : subcarriers.size();
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<acoustic::BackscatterSource> srcs;
    cap.truth.emplace_back();
    for (std::size_t c = 0; c < lanes; ++c) {
      const phy::UlPacket pkt{
          .tid = static_cast<std::uint8_t>(1 + c),
          .payload = static_cast<std::uint16_t>((w << 6) | c)};
      const auto chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
      acoustic::BackscatterSource s;
      if (subcarriers.empty()) {
        s.chips = chips;
        s.chip_rate = 375.0;
        s.amplitude = 0.1;
      } else {
        phy::SubcarrierModulator mod{{375.0, subcarriers[c]}};
        s.chips = mod.modulate(chips);
        s.chip_rate = mod.subchip_rate();
        s.amplitude = 0.15;
      }
      s.start_s = 0.03;
      s.phase_rad = 0.7 * static_cast<double>(w) + 0.4 * static_cast<double>(c);
      srcs.push_back(std::move(s));
      cap.truth.back().push_back(pkt);
    }
    const auto wave = synth.synthesize(srcs, window_s, rng);
    cap.samples.insert(cap.samples.end(), wave.begin(), wave.end());
  }
  return cap;
}

// Sorts decoded packets into the windows their timestamps fall in.
std::vector<std::vector<phy::UlPacket>> by_window(
    const std::vector<reader::RxPacket>& packets,
    const WindowedCapture& cap) {
  std::vector<std::vector<phy::UlPacket>> out(cap.truth.size());
  for (const auto& p : packets) {
    const auto w = static_cast<std::size_t>(
        p.time_s * 500e3 / static_cast<double>(cap.window_samples));
    if (w < out.size()) out[w].push_back(p.packet);
  }
  for (auto& v : out) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.payload < b.payload;
    });
  }
  return out;
}

// Plants one non-finite sample 10 ms into window 1 (its leading quiet
// gap, 20 ms before the packet), streams the capture in 4096-sample
// blocks, and requires every window from the bad one on to decode all of
// its packets: a NaN or Inf must cost at most the samples it touches,
// never the rest of the session.
template <typename Decode>
void expect_recovers_from(double bad, const WindowedCapture& clean,
                          Decode decode) {
  auto cap = clean;
  cap.samples[cap.window_samples + 5000] = bad;
  const auto got = by_window(decode(cap.samples), cap);
  for (std::size_t w = 0; w < cap.truth.size(); ++w) {
    EXPECT_EQ(got[w], cap.truth[w]) << "window " << w;
  }
}

constexpr std::size_t kStreamBlock = 4096;

class NonFiniteSample : public testing::TestWithParam<double> {};

TEST_P(NonFiniteSample, StreamingRxChainKeepsDecoding) {
  const auto cap = render_windows({}, 4, 0.28);
  expect_recovers_from(GetParam(), cap, [](const std::vector<double>& x) {
    reader::RxChain::Params p;
    p.leak_ema_alpha = 0.2;        // the streaming front halves' setting
    p.retain_iq_points = false;
    reader::RxChain rx{p};
    for (std::size_t off = 0; off < x.size(); off += kStreamBlock) {
      rx.process(x.data() + off, std::min(kStreamBlock, x.size() - off));
    }
    return rx.packets();
  });
}

std::vector<reader::RxPacket> decode_fdma(
    reader::FdmaRxChain::BankPolicy bank, std::size_t decimation,
    const std::vector<double>& subcarriers, const std::vector<double>& x) {
  reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = decimation;
  fp.workers = 1;
  fp.bank = bank;
  for (double hz : subcarriers) fp.channels.push_back({hz});
  reader::FdmaRxChain fdma{fp};
  EXPECT_EQ(fdma.active_bank(), bank);
  std::vector<reader::RxPacket> all;
  for (std::size_t off = 0; off < x.size(); off += kStreamBlock) {
    fdma.process(x.data() + off, std::min(kStreamBlock, x.size() - off));
    const auto drained = fdma.drain_packets();
    all.insert(all.end(), drained.begin(), drained.end());
  }
  return all;
}

TEST_P(NonFiniteSample, PerChannelBankKeepsDecoding) {
  const std::vector<double> freqs{3000.0, 4500.0, 6000.0};
  const auto cap = render_windows(freqs, 3, 0.3);
  expect_recovers_from(GetParam(), cap, [&](const std::vector<double>& x) {
    return decode_fdma(reader::FdmaRxChain::BankPolicy::kPerChannel, 8,
                       freqs, x);
  });
}

TEST_P(NonFiniteSample, ChannelizerBankKeepsDecoding) {
  std::vector<double> freqs;
  for (int k = 0; k < 8; ++k) freqs.push_back(3375.0 + 1500.0 * k);
  const auto cap = render_windows(freqs, 3, 0.3);
  expect_recovers_from(GetParam(), cap, [&](const std::vector<double>& x) {
    return decode_fdma(reader::FdmaRxChain::BankPolicy::kChannelizer, 4,
                       freqs, x);
  });
}

INSTANTIATE_TEST_SUITE_P(
    HostileInput, NonFiniteSample,
    testing::Values(std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity()),
    [](const testing::TestParamInfo<double>& info) {
      return std::string(std::isnan(info.param) ? "NaN" : "Inf");
    });

}  // namespace
