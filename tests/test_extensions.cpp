// Tests for the paper's future-work extensions (Sec. 6.3 / Sec. 2.2):
// FDMA subcarrier backscatter with parallel decoding, 4-PAM higher-order
// modulation, and ambient-vibration energy harvesting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/fft_plan.hpp"
#include "arachnet/energy/ambient.hpp"
#include "arachnet/energy/harvester.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/pam4.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/pzt/transducer.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/pam4_rx.hpp"
#include "arachnet/sim/rng.hpp"

namespace {

using namespace arachnet;

// --------------------------------------------------------- Subcarrier mod

TEST(Subcarrier, ModulateDemodulateRoundTrip) {
  phy::SubcarrierModulator mod{{375.0, 3000.0}};
  EXPECT_EQ(mod.half_periods_per_chip(), 16);
  EXPECT_DOUBLE_EQ(mod.subchip_rate(), 6000.0);
  sim::Rng rng{1};
  for (int trial = 0; trial < 50; ++trial) {
    phy::BitVector chips;
    for (int i = 0; i < 64; ++i) chips.push_back(rng.bernoulli(0.5));
    const auto sub = mod.modulate(chips);
    EXPECT_EQ(sub.size(), chips.size() * 16);
    EXPECT_EQ(mod.demodulate(sub), chips);
  }
}

TEST(Subcarrier, SubchipStreamAlternatesWithinChip) {
  phy::SubcarrierModulator mod{{375.0, 750.0}};  // 4 half-periods per chip
  const auto sub = mod.modulate(phy::BitVector{1});
  ASSERT_EQ(sub.size(), 4u);
  // chip 1 XOR alternating phase 0,1,0,1 -> 1,0,1,0
  EXPECT_EQ(sub.to_string(), "1010");
}

TEST(Subcarrier, RejectsMisalignedRates) {
  EXPECT_THROW((phy::SubcarrierModulator{{375.0, 1000.0}}),
               std::invalid_argument);
  EXPECT_THROW((phy::SubcarrierModulator{{375.0, 187.5}}),
               std::invalid_argument);  // < 2 half-periods per chip
}

TEST(Subcarrier, DemodToleratesMinorityErrors) {
  phy::SubcarrierModulator mod{{375.0, 3000.0}};
  const auto chips = phy::BitVector{1, 0, 1, 1};
  auto sub = mod.modulate(chips);
  // Flip 3 of the 16 sub-chips of the first chip: majority vote holds.
  phy::BitVector corrupted;
  for (std::size_t i = 0; i < sub.size(); ++i) {
    corrupted.push_back(i < 3 ? !sub[i] : sub[i]);
  }
  EXPECT_EQ(mod.demodulate(corrupted), chips);
}

// ---------------------------------------------------------------- FDMA RX

TEST(Fdma, TwoTagsDecodeInTheSameSlot) {
  sim::Rng rng{4};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  reader::FdmaRxChain::Params fp;
  fp.channels = {{3000.0}, {6000.0}};
  reader::FdmaRxChain fdma{fp};

  int ok0 = 0, ok1 = 0;
  const int rounds = 4;
  for (int i = 0; i < rounds; ++i) {
    std::vector<acoustic::BackscatterSource> srcs;
    int k = 0;
    for (double fsc : {3000.0, 6000.0}) {
      const phy::UlPacket pkt{
          .tid = static_cast<std::uint8_t>(k + 1),
          .payload = static_cast<std::uint16_t>(0x200 + i)};
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
    fdma.clear_packets();
    fdma.process(synth.synthesize(srcs, 0.3, rng));
    for (const auto& p : fdma.packets(0)) {
      if (p.tid == 1 && p.payload == 0x200 + i) ++ok0;
    }
    for (const auto& p : fdma.packets(1)) {
      if (p.tid == 2 && p.payload == 0x200 + i) ++ok1;
    }
  }
  EXPECT_GE(ok0, rounds - 1);
  EXPECT_GE(ok1, rounds - 1);
}

TEST(Fdma, ChannelIsolation) {
  // A tag on 6 kHz must not produce packets on the 3 kHz channel.
  sim::Rng rng{6};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  reader::FdmaRxChain::Params fp;
  fp.channels = {{3000.0}, {6000.0}};
  reader::FdmaRxChain fdma{fp};

  const phy::UlPacket pkt{.tid = 2, .payload = 0x321};
  phy::SubcarrierModulator mod{{375.0, 6000.0}};
  acoustic::BackscatterSource s;
  s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
  s.chip_rate = mod.subchip_rate();
  s.start_s = 0.03;
  s.amplitude = 0.25;
  s.phase_rad = 1.4;
  fdma.process(synth.synthesize({s}, 0.3, rng));
  EXPECT_TRUE(fdma.packets(0).empty());
  ASSERT_FALSE(fdma.packets(1).empty());
  EXPECT_EQ(fdma.packets(1).front(), pkt);
}

TEST(Fdma, ValidatesConfiguration) {
  reader::FdmaRxChain::Params none;
  EXPECT_THROW(reader::FdmaRxChain{none}, std::invalid_argument);
  reader::FdmaRxChain::Params close;
  close.channels = {{3000.0}, {3500.0}};  // < 3x chip rate apart
  EXPECT_THROW(reader::FdmaRxChain{close}, std::invalid_argument);

  // Each rejection class carries its own message, so a misconfigured
  // deployment reads the actual problem, not a generic "bad subcarrier".
  const auto rejects = [](reader::FdmaRxChain::Params p,
                          const char* needle) {
    try {
      reader::FdmaRxChain chain{p};
      ADD_FAILURE() << "expected invalid_argument mentioning '" << needle
                    << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };
  reader::FdmaRxChain::Params bad;
  bad.channels = {{std::numeric_limits<double>::quiet_NaN()}};
  rejects(bad, "finite");
  bad.channels = {{std::numeric_limits<double>::infinity()}};
  rejects(bad, "finite");
  bad.channels = {{-3000.0}};
  rejects(bad, "positive");
  bad.channels = {{0.0}};
  rejects(bad, "positive");
  bad.channels = {{3000.0}, {3000.0}};
  rejects(bad, "duplicate");
  bad.channels = {{3000.0}, {3500.0}};
  rejects(bad, "3x chip rate");
  // A chip rate that is zero, negative or not finite is refused before
  // anything divides by it.
  bad.channels = {{3000.0}};
  for (const double chip : {0.0, -375.0,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    bad.chip_rate = chip;
    rejects(bad, "chip_rate");
  }
}

// Gain, in dB, of `ddc` at each of `tones` baseband frequencies (Hz, on
// the output's FFT bin grid) shifted by `fold` IQ rates: one capture of
// unit-amplitude real tones at carrier + tone + fold * iq_rate, then a
// Blackman-Harris-windowed FFT of the IQ, read at each tone's bin. With
// fold != 0 the input lies outside the output band and the reading is
// what decimation folds onto the tone's frequency.
std::vector<double> ddc_gain_db(const dsp::Ddc::Params& shape,
                                const std::vector<double>& tones, int fold) {
  constexpr std::size_t kN = 4096;
  const std::size_t skip = shape.taps / shape.decimation + 1;  // transient
  const double fs = shape.sample_rate_hz;
  const double iq_rate = fs / static_cast<double>(shape.decimation);
  std::vector<double> raw((kN + skip) * shape.decimation, 0.0);
  for (const double g : tones) {
    const double w = 2.0 * std::numbers::pi *
                     (shape.carrier_hz + g + fold * iq_rate) / fs;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i] += std::cos(w * static_cast<double>(i));
    }
  }
  dsp::Ddc ddc{shape};
  std::vector<std::complex<double>> iq;
  ddc.process(std::span<const double>{raw}, iq);
  std::vector<std::complex<double>> spectrum(iq.begin() + skip, iq.end());
  EXPECT_EQ(spectrum.size(), kN);
  double window_gain = 0.0;
  for (std::size_t n = 0; n < kN; ++n) {
    const double x = 2.0 * std::numbers::pi * static_cast<double>(n) / kN;
    const double w = 0.35875 - 0.48829 * std::cos(x) +
                     0.14128 * std::cos(2.0 * x) - 0.01168 * std::cos(3.0 * x);
    spectrum[n] *= w;
    window_gain += w;
  }
  dsp::FftPlan::get(kN)->forward(spectrum);
  std::vector<double> gains;
  for (const double g : tones) {
    const auto bin = static_cast<std::size_t>(std::lround(g * kN / iq_rate));
    // A real tone of amplitude 1 mixes down to a phasor of amplitude 1/2.
    gains.push_back(20.0 * std::log10(std::abs(spectrum[bin]) /
                                      (0.5 * window_gain)));
  }
  return gains;
}

TEST(Fdma, MainDdcPassesEverySubcarrierFlatAndFoldsNothingOntoIt) {
  // The spectrum every bank shape's main DDC hands its channels: across
  // each subcarrier's +-1.4-chip band (the channel filter's cutoff), the
  // passband droops <= 0.5 dB, also on the top channel, and whatever
  // decimation folds onto the band is >= 50 dB down. Shapes: fleet4x3 (3
  // channels from 3 kHz at D = 8), the fleet default (4 channels) and
  // fdma32_grid (32 channels from 3375 Hz at D = 4).
  struct Shape {
    std::size_t channels;
    double origin_hz;
    std::size_t decimation;
  };
  for (const Shape& shape : {Shape{3, 3000.0, 8}, Shape{4, 3000.0, 8},
                             Shape{32, 3375.0, 4}}) {
    SCOPED_TRACE(testing::Message() << shape.channels << " channels from "
                                    << shape.origin_hz << " Hz, D = "
                                    << shape.decimation);
    reader::FdmaRxChain::Params fp;
    fp.ddc.decimation = shape.decimation;
    for (std::size_t k = 0; k < shape.channels; ++k) {
      fp.channels.push_back({shape.origin_hz + 1500.0 * k});
    }
    const reader::FdmaRxChain chain{fp};
    const dsp::Ddc::Params ddc = chain.params().ddc;
    const double top = fp.channels.back().subcarrier_hz;
    EXPECT_GT(ddc.cutoff_hz, top + 3.0 * fp.chip_rate);
    EXPECT_EQ(ddc.kernels, fp.kernels);
    const double iq_rate =
        ddc.sample_rate_hz / static_cast<double>(ddc.decimation);
    const double bin_hz = iq_rate / 4096.0;
    for (const auto& spec : fp.channels) {
      std::vector<double> tones;
      for (const double chips : {-1.4, -0.7, 0.0, 0.7, 1.4}) {
        const double g = spec.subcarrier_hz + chips * fp.chip_rate;
        tones.push_back(std::round(g / bin_hz) * bin_hz);
      }
      // Every fold whose input lies within the raw stream's +-fs/2. A real
      // tone at carrier + h also mixes down to -2 * carrier - h; a fold
      // whose tones put that image inside the output band is a passband
      // input seen from the other side, not an alias, and is skipped.
      const double fs = ddc.sample_rate_hz;
      const auto in_band_image = [&](double h) {
        const double m = -2.0 * ddc.carrier_hz - h;
        return std::abs(m - fs * std::round(m / fs)) < iq_rate / 2;
      };
      for (int fold = -8; fold <= 8; ++fold) {
        const double lo = tones.front() + fold * iq_rate;
        const double hi = tones.back() + fold * iq_rate;
        if (lo <= -fs / 2 || hi >= fs / 2 ||
            (fold != 0 && (in_band_image(lo) || in_band_image(hi)))) {
          continue;
        }
        const auto gains = ddc_gain_db(ddc, tones, fold);
        for (std::size_t i = 0; i < tones.size(); ++i) {
          if (fold == 0) {
            EXPECT_LE(std::abs(gains[i]), 0.5)
                << tones[i] << " Hz droops " << -gains[i] << " dB";
          } else {
            EXPECT_LE(gains[i], -50.0)
                << tones[i] << " Hz from fold " << fold;
          }
        }
      }
    }
  }
}

// A lone tag on one subcarrier, one packet per 0.3 s window (the payload
// is the window index) at a fixed amplitude and a phase drawn per window:
// fdma32_grid's window shape with one tag left and its level pinned.
std::vector<double> lone_tag_windows(double subcarrier_hz, double amplitude,
                                     std::size_t windows, std::uint64_t seed) {
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{seed};
  std::vector<double> wave;
  for (std::size_t w = 0; w < windows; ++w) {
    const phy::UlPacket pkt{.tid = 1,
                            .payload = static_cast<std::uint16_t>(w)};
    phy::SubcarrierModulator mod{{375.0, subcarrier_hz}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = amplitude;
    s.phase_rad = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const auto part = synth.synthesize({s}, 0.3, rng);
    wave.insert(wave.end(), part.begin(), part.end());
  }
  return wave;
}

TEST(Fdma, WeakLanesAtTheGridEdgesDecodeEveryWindowAfterTheFirst) {
  // The lanes of the 32-lane fdma32_grid plan (125 kS/s IQ) that sit at
  // either edge of the band, each alone and weak. The bottom lane
  // (3375 Hz, near the transducer's resonance) at 0.02, about 3.7 dB above
  // the 0.013 at which it decodes half its windows; the top lane
  // (49 875 Hz, far from resonance) at 0.2, since it decodes nothing below
  // about 0.15. Every window but the first, the warm-up, must decode on
  // the scalar per-channel reference and on the production channelizer
  // bank.
  using Bank = reader::FdmaRxChain::BankPolicy;
  constexpr std::size_t kWindows = 16;
  struct Lane {
    std::size_t channel;
    double amplitude;
  };
  struct Front {
    dsp::KernelPolicy kernels;
    Bank bank;
  };
  for (const Lane lane : {Lane{0, 0.02}, Lane{31, 0.2}}) {
    reader::FdmaRxChain::Params fp;
    fp.ddc.decimation = 4;
    fp.workers = 1;
    for (int k = 0; k < 32; ++k) fp.channels.push_back({3375.0 + 1500.0 * k});
    const double hz = fp.channels[lane.channel].subcarrier_hz;
    const auto wave = lone_tag_windows(hz, lane.amplitude, kWindows, 5);
    for (const Front front :
         {Front{dsp::KernelPolicy::kScalar, Bank::kPerChannel},
          Front{dsp::KernelPolicy::kSimd, Bank::kChannelizer}}) {
      SCOPED_TRACE(testing::Message()
                   << hz << " Hz at " << lane.amplitude << ", "
                   << dsp::to_string(front.kernels)
                   << (front.bank == Bank::kChannelizer ? " channelizer"
                                                        : " per-channel"));
      fp.kernels = front.kernels;
      fp.bank = front.bank;
      reader::FdmaRxChain chain{fp};
      ASSERT_EQ(chain.active_bank(), front.bank);
      constexpr std::size_t kBlock = 10000;
      for (std::size_t off = 0; off < wave.size(); off += kBlock) {
        chain.process(wave.data() + off, std::min(kBlock, wave.size() - off));
      }
      std::vector<bool> decoded(kWindows, false);
      for (const auto& p : chain.drain_packets()) {
        if (p.channel == lane.channel && p.packet.tid == 1 &&
            p.packet.payload < kWindows) {
          decoded[p.packet.payload] = true;
        }
      }
      for (std::size_t w = 1; w < kWindows; ++w) {
        EXPECT_TRUE(decoded[w]) << "window " << w;
      }
    }
  }
}

// ------------------------------------------------------------------- PAM4

TEST(Pam4, GrayCodeBijective) {
  for (int msb = 0; msb < 2; ++msb) {
    for (int lsb = 0; lsb < 2; ++lsb) {
      const int idx = phy::Pam4::gray_index(msb != 0, lsb != 0);
      const auto [m, l] = phy::Pam4::gray_bits(idx);
      EXPECT_EQ(m, msb != 0);
      EXPECT_EQ(l, lsb != 0);
    }
  }
  // Adjacent levels differ in exactly one bit (the point of Gray coding).
  for (int idx = 0; idx < 3; ++idx) {
    const auto [m0, l0] = phy::Pam4::gray_bits(idx);
    const auto [m1, l1] = phy::Pam4::gray_bits(idx + 1);
    EXPECT_EQ((m0 != m1) + (l0 != l1), 1);
  }
}

TEST(Pam4, EncodeDecodeRoundTripNoiseless) {
  phy::Pam4 pam;
  sim::Rng rng{3};
  for (int trial = 0; trial < 50; ++trial) {
    phy::BitVector data;
    const int nbits = 2 * (8 + static_cast<int>(rng.uniform_int(24)));
    for (int i = 0; i < nbits; ++i) data.push_back(rng.bernoulli(0.5));
    const auto levels = pam.encode_frame(data);
    EXPECT_EQ(levels.size(), phy::Pam4::kTrainingSymbols +
                                 phy::Pam4::symbol_count(data) + 1);
    const auto decoded = pam.decode_frame(levels, data.size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  }
}

TEST(Pam4, DecodeSurvivesModerateNoise) {
  phy::Pam4 pam;
  sim::Rng rng{5};
  phy::BitVector data;
  for (int i = 0; i < 48; ++i) data.push_back(rng.bernoulli(0.5));
  auto levels = pam.encode_frame(data);
  // Level spacing ~0.19; sigma 0.02 is comfortable.
  for (auto& l : levels) l += rng.normal(0.0, 0.02);
  const auto decoded = pam.decode_frame(levels, data.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Pam4, RejectsDegenerateTraining) {
  phy::Pam4 pam;
  std::vector<double> flat(phy::Pam4::kTrainingSymbols + 10, 0.5);
  EXPECT_FALSE(pam.decode_frame(flat, 16).has_value());
  EXPECT_FALSE(pam.decode_frame({0.1, 0.2}, 16).has_value());  // too short
}

TEST(Pam4, RejectsNonAscendingLevels) {
  phy::Pam4::Params p;
  p.levels = {0.5, 0.4, 0.6, 0.9};
  EXPECT_THROW(phy::Pam4{p}, std::invalid_argument);
}

TEST(Pam4, WaveformRoundTripThroughChannel) {
  sim::Rng rng{7};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  phy::Pam4 pam;
  phy::BitVector data;
  sim::Rng drng{9};
  for (int i = 0; i < 64; ++i) data.push_back(drng.bernoulli(0.5));
  acoustic::BackscatterSource src;
  src.levels = pam.encode_frame(data);
  src.chip_rate = 375.0;
  src.start_s = 0.05;
  src.amplitude = 0.15;
  src.phase_rad = 1.1;
  const auto wave = synth.synthesize(
      {src}, 0.05 + src.levels.size() / 375.0 + 0.05, rng);

  reader::Pam4Receiver::Params rp;
  rp.symbol_rate = 375.0;
  const reader::Pam4Receiver prx{rp};
  const auto decoded = prx.decode(wave, 0.05, data.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Pam4, DoublesThroughputPerSymbol) {
  // 2 bits per PAM-4 symbol vs 1 bit per 2 FM0 chips at the same symbol
  // rate: 4x bits per line interval.
  phy::BitVector data;
  for (int i = 0; i < 32; ++i) data.push_back(i % 2);
  const auto fm0_chips = phy::Fm0Encoder::encode(data);
  const auto pam_symbols = phy::Pam4{}.encode_frame(data);
  const double fm0_intervals = static_cast<double>(fm0_chips.size());
  const double pam_intervals =
      static_cast<double>(pam_symbols.size());  // incl. training overhead
  EXPECT_LT(pam_intervals, fm0_intervals);
}

// ---------------------------------------------------------------- Ambient

TEST(Ambient, CurrentsOrderedByExcitation) {
  energy::AmbientVibrationSource src;
  EXPECT_DOUBLE_EQ(src.current(energy::DriveState::kParked), 0.0);
  EXPECT_LT(src.current(energy::DriveState::kIdle),
            src.current(energy::DriveState::kCity));
  EXPECT_LT(src.current(energy::DriveState::kCity),
            src.current(energy::DriveState::kHighway));
}

TEST(Ambient, ExcitationIsOutOfBandForTheLink) {
  // Paper Sec. 2.2: driving vibration sits below 0.1 kHz; the 90 kHz
  // resonant link must reject it.
  pzt::Transducer link_pzt;
  for (auto state : {energy::DriveState::kIdle, energy::DriveState::kCity,
                     energy::DriveState::kHighway}) {
    const double f = energy::AmbientVibrationSource::dominant_frequency_hz(state);
    EXPECT_LT(f, 100.0);
    EXPECT_LT(link_pzt.frequency_response(f), 1e-4);
  }
}

TEST(Ambient, HighwayHarvestingShortensChargeTime) {
  energy::Harvester reader_only{energy::Harvester::Params{}};
  reader_only.set_pzt_peak_voltage(0.303);  // tag-11 link
  const double base = reader_only.charge_time(0.0, 2.306);
  ASSERT_GT(base, 0.0);

  energy::Harvester with_ambient{energy::Harvester::Params{}};
  with_ambient.set_pzt_peak_voltage(0.303);
  with_ambient.set_ambient_current(
      energy::AmbientVibrationSource{}.current(energy::DriveState::kHighway));
  const double assisted = with_ambient.charge_time(0.0, 2.306);
  ASSERT_GT(assisted, 0.0);
  EXPECT_LT(assisted, 0.7 * base);
}

TEST(Ambient, CanSustainIdleTagWithoutReader) {
  // Highway harvesting (15 uA) exceeds the IDLE draw (3.8 uA at 2 V):
  // a charged tag stays powered with the reader off.
  energy::Harvester h{energy::Harvester::Params{}};
  h.set_pzt_peak_voltage(0.0);  // reader off
  h.set_ambient_current(
      energy::AmbientVibrationSource{}.current(energy::DriveState::kHighway));
  h.cap().set_voltage(2.4);  // above HTH so the cutoff engages
  h.set_mcu_load(3.8e-6);
  h.step(0.01);
  ASSERT_TRUE(h.mcu_powered());
  for (int i = 0; i < 60000; ++i) h.step(0.01);  // 10 minutes
  EXPECT_TRUE(h.mcu_powered());
  EXPECT_GT(h.cap_voltage(), 1.95);

  // Without ambient harvesting the same tag browns out.
  energy::Harvester dark{energy::Harvester::Params{}};
  dark.set_pzt_peak_voltage(0.0);
  dark.cap().set_voltage(2.4);
  dark.set_mcu_load(3.8e-6);
  dark.step(0.01);
  ASSERT_TRUE(dark.mcu_powered());
  for (int i = 0; i < 60000; ++i) dark.step(0.01);
  EXPECT_FALSE(dark.mcu_powered());
}

}  // namespace
