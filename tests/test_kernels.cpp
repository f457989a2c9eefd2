// Tests for the kernel layer's building blocks (dsp/kernels/): the
// phasor-recurrence NCO's accuracy and renormalization, cached FFT plans
// against a naive DFT, the scalar DDC's phase-wrap symmetry, and the
// polyphase channelizer (planner, known-answer lanes, commutator
// continuity) under both kernel policies. The scalar-vs-simd parity
// contract lives in test_simd.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <iterator>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/channelizer.hpp"
#include "arachnet/dsp/kernels/cpu_dispatch.hpp"
#include "arachnet/dsp/kernels/fft_plan.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/nco.hpp"
#include "arachnet/dsp/kernels/simd/simd_kernels.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/sim/rng.hpp"

namespace {

using namespace arachnet;
using std::complex;
using cplx = std::complex<double>;

constexpr double kPi = std::numbers::pi;

// ------------------------------------------------------------- PhasorNco

TEST(PhasorNco, TracksTrigOverLongRuns) {
  const double phase0 = 0.37;
  const double step = 0.0123456;
  dsp::PhasorNco nco{phase0, step};
  // Irregular chunk sizes straddle the renorm interval in every alignment.
  std::vector<cplx> buf;
  std::size_t i = 0;
  const std::size_t chunks[] = {1, 7, 511, 512, 513, 4096, 100000};
  for (std::size_t c : chunks) {
    buf.resize(c);
    nco.fill(buf.data(), c);
    for (std::size_t k = 0; k < c; ++k, ++i) {
      const double want = phase0 + static_cast<double>(i) * step;
      EXPECT_NEAR(buf[k].real(), std::cos(want), 1e-9) << "sample " << i;
      EXPECT_NEAR(buf[k].imag(), std::sin(want), 1e-9) << "sample " << i;
    }
  }
}

TEST(PhasorNco, AmplitudeStaysUnitForMillionsOfSamples) {
  dsp::PhasorNco nco{0.0, 1.13097335529232556};  // the 90 kHz default step
  std::vector<cplx> buf(4096);
  for (int c = 0; c < 256; ++c) nco.fill(buf.data(), buf.size());  // ~1M
  EXPECT_NEAR(std::abs(nco.phasor()), 1.0, 1e-12);
}

TEST(PhasorNco, BlockPiecesRenderFillBitForBit) {
  // Pieces of a multiple of 4 samples, the last one ragged: the lanes and
  // the sequential tail carry over, so every value and the phasor after
  // the block match one fill().
  for (std::size_t n : {0, 5, 8, 13, 4096, 4099, 10001}) {
    dsp::PhasorNco whole{0.37, 0.0123456};
    dsp::PhasorNco pieces{0.37, 0.0123456};
    std::vector<cplx> want(n), got(n);
    for (int block = 0; block < 2; ++block) {
      whole.fill(want.data(), n);
      dsp::PhasorNco::Block b{pieces, n};
      const std::size_t sizes[] = {4, 8, 4092};
      std::size_t done = 0;
      for (std::size_t i = 0; done < n; ++i) {
        const std::size_t count = std::min(sizes[i % 3], n - done);
        b.next(got.data() + done, count);
        done += count;
      }
      ASSERT_EQ(got, want) << "n=" << n << " block " << block;
      ASSERT_EQ(pieces.phasor(), whole.phasor()) << "n=" << n;
    }
  }
}

TEST(PhasorNco, SetStepRetunesPhaseContinuously) {
  dsp::PhasorNco nco{0.0, 0.2};
  std::vector<cplx> buf(100);
  nco.fill(buf.data(), buf.size());
  const cplx before = nco.phasor();
  nco.set_step(0.05);  // retune mid-stream
  EXPECT_EQ(nco.phasor(), before);
  const cplx next = nco.next();
  EXPECT_EQ(next, before);
}

// -------------------------------------------------------------- FftPlan

std::vector<cplx> naive_dft(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> spec(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * kPi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      acc += x[t] * cplx{std::cos(ang), std::sin(ang)};
    }
    spec[k] = acc;
  }
  return spec;
}

TEST(FftPlan, ForwardMatchesNaiveDft) {
  sim::Rng rng{9};
  std::vector<cplx> x(64);
  for (auto& v : x) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  const auto want = naive_dft(x);
  auto got = x;
  dsp::FftPlan::get(x.size())->forward(got);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 1e-10);
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 1e-10);
  }
}

TEST(FftPlan, BitReversedFloatForwardMatchesNaiveDft) {
  // forward_bitrev_f() leaves bin b, unscaled, at position bitrev(b).
  // Sizes 1..1024 cover the shuffle-only stages (n < 8) and the
  // split-twiddle stages, on the CPUID-chosen table and the portable one.
  const dsp::SimdIsa before = dsp::active_simd_isa();
  for (const dsp::SimdIsa isa : {before, dsp::SimdIsa::kGeneric}) {
    dsp::force_simd_isa(isa);
    SCOPED_TRACE(dsp::simd::kernels().isa);
    sim::Rng rng{31};
    for (std::size_t n = 1; n <= 1024; n *= 2) {
      SCOPED_TRACE(testing::Message() << "n=" << n);
      std::vector<complex<float>> got(n);
      std::vector<cplx> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        got[i] = {static_cast<float>(rng.normal(0.0, 1.0)),
                  static_cast<float>(rng.normal(0.0, 1.0))};
        x[i] = {got[i].real(), got[i].imag()};
      }
      const auto want = naive_dft(x);
      const auto plan = dsp::FftPlan::get(n);
      plan->forward_bitrev_f(got.data());
      // float32 rounding through log2(n) stages on bins of RMS sqrt(2n).
      const double tol =
          2e-7 * std::sqrt(static_cast<double>(n)) * (std::log2(n) + 1.0);
      for (std::size_t b = 0; b < n; ++b) {
        const complex<float> g = got[plan->bitrev(b)];
        EXPECT_NEAR(g.real(), want[b].real(), tol) << "bin " << b;
        EXPECT_NEAR(g.imag(), want[b].imag(), tol) << "bin " << b;
      }
    }
  }
  dsp::force_simd_isa(before);
}

TEST(FftPlan, ForwardRealMatchesComplexTransform) {
  sim::Rng rng{10};
  // 100 real samples zero-padded to the 128-point plan.
  std::vector<double> x(100);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  std::vector<cplx> full(128, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) full[i] = {x[i], 0.0};
  const auto want = naive_dft(full);
  std::vector<cplx> got;
  dsp::FftPlan::get(128)->forward_real(x.data(), x.size(), got);
  ASSERT_EQ(got.size(), 128u);
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 1e-10) << "bin " << k;
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 1e-10) << "bin " << k;
  }
}

TEST(FftPlan, ForwardInverseRoundTrips) {
  sim::Rng rng{12};
  std::vector<cplx> x(256);
  for (auto& v : x) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  auto y = x;
  const auto plan = dsp::FftPlan::get(x.size());
  plan->forward(y);
  plan->inverse(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-12);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-12);
  }
}

TEST(FftPlan, CacheSharesOnePlanPerSize) {
  const auto a = dsp::FftPlan::get(1024);
  const auto b = dsp::FftPlan::get(1024);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), dsp::FftPlan::get(2048).get());
}

TEST(FftPlan, RejectsNonPowerOfTwo) {
  EXPECT_THROW(dsp::FftPlan{12}, std::invalid_argument);
}

// ------------------------------------------------------------ Ddc

TEST(Ddc, NegativeCarrierIsConjugateOfPositive) {
  // Regression for the one-sided scalar phase wrap: a negative carrier
  // walks the mixer phase downward, and without the symmetric wrap the
  // phase grows without bound while the positive twin wraps — their
  // outputs drift apart. With the fix the two runs are exact mirrors:
  // same real input, conjugate IQ, bit for bit.
  dsp::Ddc::Params pos;
  pos.kernels = dsp::KernelPolicy::kScalar;
  auto neg = pos;
  neg.carrier_hz = -pos.carrier_hz;
  dsp::Ddc ddc_pos{pos};
  dsp::Ddc ddc_neg{neg};
  sim::Rng rng{15};
  std::vector<double> in(100000);
  const double w = 2.0 * kPi * pos.carrier_hz / pos.sample_rate_hz;
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::cos(w * static_cast<double>(i)) + rng.normal(0.0, 0.01);
  }
  const auto iq_pos = ddc_pos.process(in);
  const auto iq_neg = ddc_neg.process(in);
  ASSERT_EQ(iq_pos.size(), iq_neg.size());
  ASSERT_GT(iq_pos.size(), 6000u);
  for (std::size_t i = 0; i < iq_pos.size(); ++i) {
    EXPECT_NEAR(iq_neg[i].real(), iq_pos[i].real(), 1e-14) << "iq " << i;
    EXPECT_NEAR(iq_neg[i].imag(), -iq_pos[i].imag(), 1e-14) << "iq " << i;
  }
}

reader::FdmaRxChain::Params fdma_params(
    dsp::KernelPolicy policy, std::size_t workers,
    reader::FdmaRxChain::BankPolicy bank) {
  reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = 8;
  fp.workers = workers;
  fp.kernels = policy;
  fp.bank = bank;  // pinned so each test exercises the bank it names
  for (int k = 0; k < 4; ++k) fp.channels.push_back({3000.0 + 1500.0 * k});
  return fp;
}

// ----------------------------------------------------------- Channelizer

// A channelizer sized like the FDMA bank sizes one: 62.5 kS/s IQ (the
// decimation-8 bank), 375 chip/s, four subcarriers one 1.5 kHz grid step
// apart.
constexpr double kChzrFs = 62500.0;
constexpr double kChzrChip = 375.0;

std::vector<double> chzr_centers() { return {3000.0, 4500.0, 6000.0, 7500.0}; }

// One lane per chzr_centers() entry.
dsp::PolyphaseChannelizer make_channelizer(dsp::KernelPolicy policy) {
  const auto plan =
      dsp::PolyphaseChannelizer::plan(kChzrFs, kChzrChip, chzr_centers());
  EXPECT_TRUE(plan.viable) << plan.reason;
  return dsp::PolyphaseChannelizer{{
      .sample_rate_hz = kChzrFs,
      .fft_size = plan.fft_size,
      .decimation = plan.decimation,
      .prototype = dsp::design_lowpass(plan.cutoff_hz, kChzrFs, plan.taps),
      .center_hz = chzr_centers(),
      .kernels = policy,
  }};
}

// Both kernel policies: the scalar float64 fold and the kSimd float32
// fast path must each honor the channelizer's own contracts.
constexpr dsp::KernelPolicy kPolicies[] = {dsp::KernelPolicy::kScalar,
                                           dsp::KernelPolicy::kSimd};

TEST(Channelizer, PlannerSizesTheBank) {
  const auto plan = dsp::PolyphaseChannelizer::plan(kChzrFs, kChzrChip,
                                                    chzr_centers());
  ASSERT_TRUE(plan.viable) << plan.reason;
  // C = next power of two >= fs/chip (166.7), D keeps >= 8 samples/chip.
  EXPECT_EQ(plan.fft_size, 256u);
  EXPECT_EQ(plan.decimation, 16u);
  EXPECT_GE(kChzrFs / static_cast<double>(plan.decimation),
            8.0 * kChzrChip);
  // The lane decimation both banks share: the largest power of two that
  // keeps >= 8 samples per chip, 1 when none does, bounded for any rate.
  using dsp::PolyphaseChannelizer;
  EXPECT_EQ(PolyphaseChannelizer::lane_decimation(kChzrFs, kChzrChip),
            plan.decimation);
  EXPECT_EQ(PolyphaseChannelizer::lane_decimation(125000.0, kChzrChip), 32u);
  EXPECT_EQ(PolyphaseChannelizer::lane_decimation(31250.0, kChzrChip), 8u);
  EXPECT_EQ(PolyphaseChannelizer::lane_decimation(16.0 * kChzrChip, kChzrChip),
            2u);
  EXPECT_EQ(PolyphaseChannelizer::lane_decimation(8.0 * kChzrChip, kChzrChip),
            1u);
  EXPECT_EQ(PolyphaseChannelizer::lane_decimation(
                kChzrFs, std::numeric_limits<double>::quiet_NaN()),
            1u);
  EXPECT_EQ(PolyphaseChannelizer::lane_decimation(kChzrFs, 0.0),
            std::size_t{1} << 20);
  // Every lane has its own bin and residual phasor, so a set off any
  // uniform grid is viable too.
  const auto uneven = dsp::PolyphaseChannelizer::plan(
      kChzrFs, kChzrChip, {3000.0, 4500.0, 6100.0});
  EXPECT_TRUE(uneven.viable) << uneven.reason;
  // Degenerate configurations are refused with a reason.
  EXPECT_FALSE(
      dsp::PolyphaseChannelizer::plan(8.0 * kChzrChip, kChzrChip, {3000.0})
          .viable);
  EXPECT_FALSE(dsp::PolyphaseChannelizer::plan(kChzrFs, kChzrChip, {}).viable);
  // Rates the sizing loops cannot double past are refused, not looped on.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> bad_rates[] = {
      {125000.0, 0.0}, {125000.0, -375.0}, {125000.0, kNan},
      {kInf, kChzrChip}, {kNan, kChzrChip}, {1e30, 1.0}};
  for (const auto& [fs, chip] : bad_rates) {
    const auto bad =
        dsp::PolyphaseChannelizer::plan(fs, chip, chzr_centers());
    EXPECT_FALSE(bad.viable) << "fs " << fs << " chip " << chip;
    EXPECT_FALSE(bad.reason.empty()) << "fs " << fs << " chip " << chip;
  }
}

TEST(Channelizer, ToneLandsOnlyInItsLane) {
  // Known-answer test: a pure complex tone at one lane's center must come
  // out of that lane at (nearly) full amplitude rotated to DC, and leak
  // into the adjacent lanes by no more than the prototype's stopband
  // (Hamming windowed-sinc: < -50 dB; assert -40 dB for margin).
  const auto centers = chzr_centers();
  for (const auto policy : kPolicies) {
    SCOPED_TRACE(dsp::to_string(policy));
    for (std::size_t tone = 0; tone < centers.size(); ++tone) {
      auto chzr = make_channelizer(policy);
      const double w = 2.0 * kPi * centers[tone] / kChzrFs;
      const double amp = 0.7;
      std::vector<cplx> in(16384);
      for (std::size_t t = 0; t < in.size(); ++t) {
        const double ph = w * static_cast<double>(t);
        in[t] = amp * cplx{std::cos(ph), std::sin(ph)};
      }
      const std::size_t frames = chzr.process(in.data(), in.size());
      ASSERT_EQ(frames, in.size() / chzr.decimation());
      // Skip the prototype warmup (taps/decimation frames).
      const std::size_t warm = chzr.taps() / chzr.decimation() + 4;
      ASSERT_GT(frames, warm + 100);
      for (std::size_t k = 0; k < centers.size(); ++k) {
        double peak = 0.0;
        for (std::size_t f = warm; f < frames; ++f) {
          peak = std::max(peak, std::abs(chzr.lane(k)[f]));
        }
        if (k == tone) {
          EXPECT_NEAR(peak, amp, 0.05 * amp) << "lane " << k;
          // The residual-shift correction must park the tone at exact DC:
          // successive lane samples agree in phase.
          for (std::size_t f = warm; f + 1 < frames; ++f) {
            const cplx ratio = chzr.lane(k)[f + 1] / chzr.lane(k)[f];
            ASSERT_NEAR(std::arg(ratio), 0.0, 1e-6) << "frame " << f;
          }
        } else {
          EXPECT_LT(peak, amp * 0.01)
              << "tone " << tone << " leaked into lane " << k;
        }
      }
    }
  }
}

TEST(Channelizer, CommutatorCarriesAcrossSplitCalls) {
  // One big process() call vs the same stream in awkward little pieces:
  // history and frame phase carry across calls, so the lanes are
  // bit-identical (same windows, same arithmetic, same frame grid).
  for (const auto policy : kPolicies) {
    SCOPED_TRACE(dsp::to_string(policy));
    auto whole = make_channelizer(policy);
    auto split = make_channelizer(policy);
    sim::Rng rng{23};
    std::vector<cplx> in(12000);
    for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    const std::size_t total = whole.process(in.data(), in.size());

    std::vector<std::vector<cplx>> lanes(split.lane_count());
    const std::size_t chunks[] = {1, 3, 7, 8, 64, 129, 1000, 2048};
    std::size_t off = 0, ci = 0;
    while (off < in.size()) {
      const std::size_t n =
          std::min(chunks[ci++ % std::size(chunks)], in.size() - off);
      const std::size_t got = split.process(in.data() + off, n);
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        lanes[k].insert(lanes[k].end(), split.lane(k),
                        split.lane(k) + got);
      }
      off += n;
    }
    ASSERT_EQ(whole.phase(), split.phase());
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      ASSERT_EQ(lanes[k].size(), total);
      for (std::size_t f = 0; f < total; ++f) {
        ASSERT_EQ(lanes[k][f], whole.lane(k)[f])
            << "lane " << k << " frame " << f;
      }
    }
  }
}

// FDMA capture shared by the bank-policy tests: one tag per subcarrier.
std::vector<double> fdma_capture(const std::vector<double>& subcarriers,
                                 double seconds = 0.3) {
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{101};
  std::vector<acoustic::BackscatterSource> srcs;
  for (std::size_t k = 0; k < subcarriers.size(); ++k) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload =
                                static_cast<std::uint16_t>(0x500 + k)};
    phy::SubcarrierModulator mod{{375.0, subcarriers[k]}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    s.amplitude = 0.12 + 0.01 * static_cast<double>(k);
    s.phase_rad = 0.5 + 0.4 * static_cast<double>(k);
    srcs.push_back(s);
  }
  return synth.synthesize(srcs, seconds, rng);
}

using Bank = reader::FdmaRxChain::BankPolicy;

TEST(Channelizer, FdmaBankPacketsIdenticalAcrossSplitCalls) {
  // Packet-level continuity on both banks: a bank fed one big block
  // decodes the same packets at the same instants as the same bank fed
  // many small blocks. The channelizer carries its commutator; each
  // per-channel front end carries its filter history, mixer phase and
  // decimation phase.
  const auto wave = fdma_capture(chzr_centers());
  for (const Bank bank : {Bank::kChannelizer, Bank::kPerChannel}) {
    for (const auto policy : kPolicies) {
      SCOPED_TRACE(testing::Message()
                   << dsp::to_string(policy)
                   << (bank == Bank::kChannelizer ? " channelizer"
                                                  : " per-channel"));
      auto params = fdma_params(policy, 1, bank);
      reader::FdmaRxChain whole{params};
      reader::FdmaRxChain split{params};
      ASSERT_EQ(whole.active_bank(), bank);
      whole.process(wave.data(), wave.size());
      const std::size_t chunks[] = {501, 3, 12800, 7, 999, 20000};
      std::size_t off = 0, ci = 0;
      while (off < wave.size()) {
        const std::size_t n =
            std::min(chunks[ci++ % std::size(chunks)], wave.size() - off);
        split.process(wave.data() + off, n);
        off += n;
      }
      const auto a = whole.drain_packets();
      const auto b = split.drain_packets();
      ASSERT_GE(a.size(), 3u);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].packet, b[i].packet);
        EXPECT_EQ(a[i].channel, b[i].channel);
        EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
      }
    }
  }
}

TEST(Channelizer, BothBanksDecideOneLaneSamplePerMIqSamples) {
  // The lane rule: both banks filter each channel down to the planner's
  // lane decimation M before it decides, so every channel's decision
  // chain consumes one sample per M IQ samples (M = 16 at 62.5 kS/s and
  // 375 chip/s: 10.4 samples per chip), whichever bank and policy, and
  // however the stream is split.
  const std::size_t m =
      dsp::PolyphaseChannelizer::lane_decimation(kChzrFs, kChzrChip);
  EXPECT_EQ(m, 16u);
  const auto wave = fdma_capture(chzr_centers());
  const std::size_t iq = wave.size() / 8;  // the bank's main DDC: D = 8
  for (const auto policy : kPolicies) {
    SCOPED_TRACE(dsp::to_string(policy));
    reader::FdmaRxChain per_channel{fdma_params(policy, 1, Bank::kPerChannel)};
    reader::FdmaRxChain channelized{fdma_params(policy, 1, Bank::kChannelizer)};
    ASSERT_EQ(channelized.active_bank(), Bank::kChannelizer);
    for (std::size_t off = 0; off < wave.size(); off += 7777) {
      const std::size_t n = std::min<std::size_t>(7777, wave.size() - off);
      per_channel.process(wave.data() + off, n);
      channelized.process(wave.data() + off, n);
    }
    for (std::size_t c = 0; c < per_channel.channel_count(); ++c) {
      EXPECT_EQ(per_channel.channel_stats(c).iq_samples, iq / m)
          << "channel " << c;
      EXPECT_EQ(channelized.channel_stats(c).iq_samples,
                per_channel.channel_stats(c).iq_samples)
          << "channel " << c;
    }
  }
}

}  // namespace
