// Tests for the kSimd tier (dsp/kernels/simd/ + cpu_dispatch) against the
// kScalar reference. First the building blocks: CPUID dispatch and its
// clamp, the float32 SimdNco against a long-double phase reference over
// 10^8 samples and at near-Nyquist steps, and the float32 FIR stages
// against the scalar FirFilter (including denormal and NaN blocks). Then
// the parity contract, KernelParity.*: Ddc (every shape a front half runs,
// split calls, non-finite bursts), synthesizer and channelizer outputs
// agree to float32 tolerance, the block AWGN tracks Rng::normal() and
// leaves the generator in normal()'s state, and — the load-bearing
// guarantee — RxChain and the FDMA bank (both bank modes, 4 to 32
// channels) decode the identical packets under both policies, on the
// hardware tier and on the forced portable tier, as does a waveform
// fleet across synthesizer policies. Last, DecisionPin.* holds the scalar
// reference's decodes to recorded values, which catches a change to the
// decision chain that both policies share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arachnet/acoustic/deployment.hpp"
#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/channelizer.hpp"
#include "arachnet/dsp/kernels/cpu_dispatch.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/simd/simd_kernels.hpp"
#include "arachnet/dsp/kernels/simd/stages.hpp"
#include "arachnet/fleet/fleet_engine.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/sim/rng.hpp"

namespace {

using namespace arachnet;
using cplx = std::complex<double>;

constexpr double kPi = std::numbers::pi;

// ----------------------------------------------------------- cpu_dispatch

TEST(CpuDispatch, ActiveTierIsSupportedAndTableMatches) {
  const dsp::CpuFeatures& f = dsp::detect_cpu_features();
  const dsp::SimdIsa isa = dsp::active_simd_isa();
  if (isa == dsp::SimdIsa::kAvx2) {
    EXPECT_TRUE(f.avx2 && f.fma);
  } else {
    // CPUID picks the AVX2 table whenever the CPU has it.
    EXPECT_FALSE(f.avx2 && f.fma);
  }
  if (isa == dsp::SimdIsa::kNeon) {
    EXPECT_TRUE(f.neon);
  }
  EXPECT_STREQ(dsp::simd::kernels().isa, dsp::to_string(isa));
  EXPECT_FALSE(dsp::cpu_feature_string().empty());
}

TEST(CpuDispatch, ForceClampsToHardware) {
  const dsp::SimdIsa before = dsp::active_simd_isa();
  const dsp::CpuFeatures& f = dsp::detect_cpu_features();

  dsp::force_simd_isa(dsp::SimdIsa::kGeneric);
  // On aarch64 the portable tier *is* the NEON tier; everywhere else the
  // request must be honored exactly.
  const dsp::SimdIsa portable = dsp::active_simd_isa();
  EXPECT_EQ(portable, f.neon ? dsp::SimdIsa::kNeon : dsp::SimdIsa::kGeneric);
  EXPECT_STREQ(dsp::simd::kernels().isa, dsp::to_string(portable));

  dsp::force_simd_isa(dsp::SimdIsa::kAvx2);
  if (f.avx2 && f.fma) {
    EXPECT_EQ(dsp::active_simd_isa(), dsp::SimdIsa::kAvx2);
  } else {
    EXPECT_EQ(dsp::active_simd_isa(), portable);
  }
  EXPECT_STREQ(dsp::simd::kernels().isa,
               dsp::to_string(dsp::active_simd_isa()));

  dsp::force_simd_isa(before);
  EXPECT_EQ(dsp::active_simd_isa(), before);
}

// --------------------------------------------------------------- SimdNco

// Long-double phase reference: exact enough (ulp ~1e-11 at 10^8 steps)
// to measure the simd oscillator's drift rather than its own.
cplx reference_phasor(double phase0, double step, std::size_t index) {
  const long double p =
      static_cast<long double>(phase0) +
      static_cast<long double>(index) * static_cast<long double>(step);
  const long double wrapped =
      std::remainder(p, 2.0L * std::numbers::pi_v<long double>);
  return {static_cast<double>(std::cos(wrapped)),
          static_cast<double>(std::sin(wrapped))};
}

TEST(SimdNco, PhaseStaysLockedOverHundredMillionSamples) {
  // The drift requirement behind the per-chunk reseed: after >= 10^8
  // samples the oscillator must still be phase-locked — float32 lane
  // error must not accumulate across chunks. Unit complex input makes the
  // output the bare phasor.
  const double phase0 = 0.25;
  const double step = -2.0 * kPi * 90e3 / 500e3;  // the 90 kHz carrier step
  dsp::simd::SimdNco nco{phase0, step};
  constexpr std::size_t kBlockLen = 1u << 16;
  constexpr std::size_t kTarget = 100'000'000;
  const std::vector<cplx> in(kBlockLen, cplx{1.0, 0.0});
  std::vector<float> out(2 * kBlockLen);
  std::size_t done = 0;
  while (done < kTarget) {
    nco.mix(in.data(), out.data(), kBlockLen);
    done += kBlockLen;
  }
  ASSERT_GE(done, kTarget);
  // Every 997th sample of the final block (plus the very last) against
  // the reference: in-chunk float32 drift ~1e-4 rad plus ~1e-5 rad of
  // accumulated double master-phase rounding stays far under 2e-3.
  const std::size_t base = done - kBlockLen;
  for (std::size_t k = 0; k < kBlockLen; k += 997) {
    const cplx want = reference_phasor(phase0, step, base + k);
    EXPECT_NEAR(out[2 * k], want.real(), 2e-3) << "sample " << base + k;
    EXPECT_NEAR(out[2 * k + 1], want.imag(), 2e-3) << "sample " << base + k;
  }
  const cplx last = reference_phasor(phase0, step, done - 1);
  EXPECT_NEAR(out[2 * (kBlockLen - 1)], last.real(), 2e-3);
  EXPECT_NEAR(out[2 * (kBlockLen - 1) + 1], last.imag(), 2e-3);
  // The lanes stay on the unit circle (no amplitude decay either way).
  for (std::size_t k = 0; k < kBlockLen; k += 131) {
    const double mag = std::hypot(static_cast<double>(out[2 * k]),
                                  static_cast<double>(out[2 * k + 1]));
    ASSERT_NEAR(mag, 1.0, 1e-3) << "sample " << base + k;
  }
}

TEST(SimdNco, NearNyquistStepStaysAccurate) {
  // A subcarrier just under Nyquist: the per-sample step is almost pi,
  // the worst case for the lane rotator (the 8-step advance wraps nearly
  // four full turns between reseeds).
  const double phase0 = -1.1;
  const double step = 2.0 * kPi * 0.49;
  dsp::simd::SimdNco nco{phase0, step};
  constexpr std::size_t kBlockLen = 1u << 15;
  const std::vector<cplx> in(kBlockLen, cplx{1.0, 0.0});
  std::vector<float> out(2 * kBlockLen);
  std::size_t base = 0;
  for (int block = 0; block < 64; ++block) {  // ~2.1M samples
    nco.mix(in.data(), out.data(), kBlockLen);
    for (std::size_t k = 0; k < kBlockLen; k += 509) {
      const cplx want = reference_phasor(phase0, step, base + k);
      ASSERT_NEAR(out[2 * k], want.real(), 2e-3) << "sample " << base + k;
      ASSERT_NEAR(out[2 * k + 1], want.imag(), 2e-3)
          << "sample " << base + k;
    }
    base += kBlockLen;
  }
}

TEST(SimdNco, ComplexMixMatchesScalarRotation) {
  sim::Rng rng{31};
  const double phase0 = 0.5;
  const double step = -0.71;
  std::vector<cplx> in(5000);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  std::vector<float> out(2 * in.size());
  dsp::simd::SimdNco nco{phase0, step};
  nco.mix(in.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double ph = phase0 + static_cast<double>(i) * step;
    const cplx want = in[i] * cplx{std::cos(ph), std::sin(ph)};
    EXPECT_NEAR(out[2 * i], want.real(), 1e-4) << "sample " << i;
    EXPECT_NEAR(out[2 * i + 1], want.imag(), 1e-4) << "sample " << i;
  }
}

// ------------------------------------------------------------ FIR stages

std::vector<float> to_interleaved(const std::vector<cplx>& in) {
  std::vector<float> out(2 * in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[2 * i] = static_cast<float>(in[i].real());
    out[2 * i + 1] = static_cast<float>(in[i].imag());
  }
  return out;
}

TEST(FirSimd, FilterMatchesScalarFilterWithinFloatTolerance) {
  const auto coeffs = dsp::design_lowpass(4e3, 31.25e3, 127);
  dsp::FirFilter<cplx> ref{coeffs};
  dsp::simd::FirSimdFilter simd{coeffs};
  sim::Rng rng{32};
  std::vector<cplx> in, want;
  // Chunk sizes smaller and larger than the tap count: history carry
  // must line up with the streaming scalar filter at every split.
  for (std::size_t n : {1u, 3u, 126u, 127u, 128u, 1000u}) {
    in.resize(n);
    want.resize(n);
    for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    ref.process(in.data(), want.data(), n);
    const auto in_f = to_interleaved(in);
    std::vector<float> got(2 * n);
    simd.process(in_f.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[2 * i], want[i].real(), 1e-4) << "chunk " << n;
      EXPECT_NEAR(got[2 * i + 1], want[i].imag(), 1e-4) << "chunk " << n;
    }
  }
}

TEST(FirSimd, FilterInPlaceMatchesOutOfPlace) {
  const auto coeffs = dsp::design_lowpass(4e3, 31.25e3, 63);
  dsp::simd::FirSimdFilter a{coeffs};
  dsp::simd::FirSimdFilter b{coeffs};
  sim::Rng rng{33};
  std::vector<cplx> in(500);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  auto x = to_interleaved(in);
  std::vector<float> out(x.size());
  a.process(x.data(), out.data(), in.size());
  b.process(x.data(), x.data(), in.size());  // in-place
  EXPECT_EQ(x, out);
}

TEST(FirSimd, DenormalBlocksStayFiniteAndTiny) {
  // A block of float32 denormals must neither trap nor produce garbage:
  // outputs are finite and essentially zero (flush-to-zero is fine).
  const auto coeffs = dsp::design_lowpass(4e3, 31.25e3, 63);
  dsp::simd::FirSimdFilter lpf{coeffs};
  std::vector<float> in(2 * 256);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = (i % 2 ? 1.0f : -1.0f) * 1e-42f;  // subnormal float32
  }
  std::vector<float> out(in.size());
  lpf.process(in.data(), out.data(), 256);
  for (float v : out) {
    ASSERT_TRUE(std::isfinite(v));
    ASSERT_LE(std::abs(v), 1e-30f);
  }
  // Same through the oscillator on subnormal complex doubles...
  dsp::simd::SimdNco nco{0.3, 1.1};
  const std::vector<cplx> tiny(256, cplx{1e-310, -1e-310});
  std::vector<float> mixed(2 * tiny.size());
  nco.mix(tiny.data(), mixed.data(), tiny.size());
  for (float v : mixed) {
    ASSERT_TRUE(std::isfinite(v));
    ASSERT_LE(std::abs(v), 1e-30f);
  }
  // ...and through the simd Ddc, which narrows raw doubles to float32.
  dsp::Ddc::Params p;
  p.kernels = dsp::KernelPolicy::kSimd;
  dsp::Ddc ddc{p};
  std::vector<double> raw(4096);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = (i % 3 ? 1e-310 : -1e-42);
  }
  for (const cplx& v : ddc.process(raw)) {
    ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
    ASSERT_LE(std::abs(v), 1e-30);
  }
}

TEST(FirSimd, NanBlockFlushesInsteadOfPoisoningState) {
  // NaNs must stay confined to the outputs whose window overlaps them:
  // once taps-1 clean samples have passed, the filter matches the scalar
  // reference fed the same stream sample for sample.
  const auto coeffs = dsp::design_lowpass(4e3, 31.25e3, 63);
  const std::size_t taps = coeffs.size();
  dsp::FirFilter<cplx> ref{coeffs};
  dsp::simd::FirSimdFilter simd{coeffs};
  sim::Rng rng{35};
  const std::size_t nan_len = 32;
  const std::size_t clean_len = 512;
  std::vector<cplx> in(nan_len + clean_len);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < nan_len; ++i) in[i] = {nan, nan};
  for (std::size_t i = nan_len; i < in.size(); ++i) {
    in[i] = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  }
  std::vector<cplx> want(in.size());
  ref.process(in.data(), want.data(), in.size());
  const auto in_f = to_interleaved(in);
  std::vector<float> got(2 * in.size());
  simd.process(in_f.data(), got.data(), in.size());
  const std::size_t flushed = nan_len + taps - 1;
  for (std::size_t i = flushed; i < in.size(); ++i) {
    ASSERT_TRUE(std::isfinite(got[2 * i])) << "sample " << i;
    ASSERT_TRUE(std::isfinite(got[2 * i + 1])) << "sample " << i;
    EXPECT_NEAR(got[2 * i], want[i].real(), 1e-4) << "sample " << i;
    EXPECT_NEAR(got[2 * i + 1], want[i].imag(), 1e-4) << "sample " << i;
  }
}

// ------------------------------------------------------- parity: Ddc

// Packet timestamp tolerance for kSimd decodes: float32 can move a slicer
// crossing by a decimated sample or two. 256 us is four of the single
// chain's IQ samples at 375 chip/s and one FDMA lane sample (3906.25 lane
// samples per second on every bank shape here).
constexpr double kSimdTimeTol = 256e-6;

// The DDC shapes the front halves run: RxChain's at the paper chip rates
// up to 750 chip/s (D = 128, 64, 32 and 16, with 1025, 513, 257 and 129
// taps; faster links differ from 750 only in cutoff), the FDMA banks'
// main DDC on fleet4x3 (3 channels from 3 kHz, D = 8) and fdma32_grid (32
// channels from 3375 Hz, D = 4), and the default shape mixed down from a
// negative carrier. The chains' shapes are read from the chains, so they
// follow their rules.
std::vector<dsp::Ddc::Params> ddc_shapes() {
  std::vector<dsp::Ddc::Params> shapes;
  for (const double chip_rate : {93.75, 187.5, 375.0, 750.0}) {
    reader::RxChain::Params rx;
    rx.chip_rate = chip_rate;
    shapes.push_back(reader::RxChain{rx}.params().ddc);
  }
  for (const auto& [n, origin, decimation] :
       {std::tuple{3, 3000.0, 8}, std::tuple{32, 3375.0, 4}}) {
    reader::FdmaRxChain::Params fp;
    fp.ddc.decimation = static_cast<std::size_t>(decimation);
    for (int k = 0; k < n; ++k) fp.channels.push_back({origin + 1500.0 * k});
    shapes.push_back(reader::FdmaRxChain{fp}.params().ddc);
  }
  dsp::Ddc::Params p;
  p.cutoff_hz = 6e3;
  p.carrier_hz = -90e3;
  shapes.push_back(p);
  return shapes;
}

dsp::Ddc::Params ddc_params(dsp::KernelPolicy policy,
                            dsp::Ddc::Params shape) {
  shape.kernels = policy;
  return shape;
}

// A 90 kHz carrier with a little noise (output RMS about 0.5).
std::vector<double> ddc_input(std::size_t n, sim::Rng& rng) {
  std::vector<double> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = std::cos(1.13 * static_cast<double>(i)) + rng.normal(0.0, 0.01);
  }
  return in;
}

std::string shape_name(const dsp::Ddc::Params& shape) {
  return "D=" + std::to_string(shape.decimation) + " taps " +
         std::to_string(shape.taps) + " cutoff " +
         std::to_string(shape.cutoff_hz) + " carrier " +
         std::to_string(shape.carrier_hz);
}

// Feeds a scalar and a simd Ddc of one shape the same chunks and checks
// the decimation grid, decimation_phase() and the IQ after every chunk.
void expect_ddc_parity(const dsp::Ddc::Params& shape) {
  dsp::Ddc scalar{ddc_params(dsp::KernelPolicy::kScalar, shape)};
  dsp::Ddc simd{ddc_params(dsp::KernelPolicy::kSimd, shape)};
  sim::Rng rng{13};
  std::vector<cplx> iq_s, iq_v;
  // An empty chunk, then chunks below, at, and coprime with the
  // decimation, and a chunk longer than the kernel's.
  const std::size_t d = shape.decimation;
  for (std::size_t n : {std::size_t{0}, std::size_t{3}, d, d + 1,
                        std::size_t{999}, std::size_t{20000}}) {
    const auto in = ddc_input(n, rng);
    iq_s.clear();
    iq_v.clear();
    const std::size_t got_s = scalar.process(std::span<const double>{in}, iq_s);
    const std::size_t got_v = simd.process(std::span<const double>{in}, iq_v);
    ASSERT_EQ(got_v, got_s) << "chunk " << n;
    ASSERT_EQ(iq_v.size(), got_v) << "chunk " << n;
    ASSERT_EQ(simd.decimation_phase(), scalar.decimation_phase())
        << "chunk " << n;
    for (std::size_t i = 0; i < got_s; ++i) {
      ASSERT_NEAR(iq_v[i].real(), iq_s[i].real(), 1e-6) << "chunk " << n;
      ASSERT_NEAR(iq_v[i].imag(), iq_s[i].imag(), 1e-6) << "chunk " << n;
    }
  }
}

TEST(KernelParity, DdcSimdMatchesScalarIq) {
  // On the hardware tier, then forced onto the portable tier.
  struct RestoreIsa {
    dsp::SimdIsa isa = dsp::active_simd_isa();
    ~RestoreIsa() { dsp::force_simd_isa(isa); }
  } restore;
  for (const dsp::SimdIsa isa : {restore.isa, dsp::SimdIsa::kGeneric}) {
    dsp::force_simd_isa(isa);
    for (const dsp::Ddc::Params& shape : ddc_shapes()) {
      SCOPED_TRACE(shape_name(shape) + " on " + dsp::simd::kernels().isa);
      expect_ddc_parity(shape);
    }
  }
}

TEST(KernelParity, DdcSplitCallsMatchOneWholeCall) {
  // The simd Ddc carries its real history, decimation phase and rotation
  // phase across calls, so a stream cut into 7777-sample calls gives the
  // outputs of one whole call, up to the double rotation's rounding.
  for (const dsp::Ddc::Params& shape : ddc_shapes()) {
    SCOPED_TRACE(shape_name(shape));
    sim::Rng rng{14};
    const auto in = ddc_input(200000, rng);
    dsp::Ddc whole{ddc_params(dsp::KernelPolicy::kSimd, shape)};
    dsp::Ddc split{ddc_params(dsp::KernelPolicy::kSimd, shape)};
    const auto want = whole.process(in);
    std::vector<cplx> got;
    constexpr std::size_t kCall = 7777;
    for (std::size_t off = 0; off < in.size(); off += kCall) {
      const std::size_t len = std::min(kCall, in.size() - off);
      split.process(std::span<const double>{in.data() + off, len}, got);
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got[i].real(), want[i].real(), 1e-8) << "output " << i;
      ASSERT_NEAR(got[i].imag(), want[i].imag(), 1e-8) << "output " << i;
    }
  }
}

TEST(KernelParity, DdcRecoversFromNonFiniteBurst) {
  // A NaN or Inf burst reaches only the outputs whose window covers it:
  // outputs before the burst are untouched, and once the simd window (the
  // taps zero-padded to a multiple of 8) has passed it, the outputs are
  // finite again and track the scalar reference.
  constexpr std::size_t kBurstBegin = 10001;
  constexpr std::size_t kBurstEnd = 10041;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const dsp::Ddc::Params& shape : ddc_shapes()) {
      SCOPED_TRACE(shape_name(shape) + (std::isnan(bad) ? " NaN" : " Inf"));
      sim::Rng rng{15};
      // Long enough for over 1000 outputs past the burst at any decimation.
      auto in = ddc_input(
          std::max<std::size_t>(30000, kBurstEnd + 1200 * shape.decimation),
          rng);
      std::fill(in.begin() + kBurstBegin, in.begin() + kBurstEnd, bad);
      dsp::Ddc scalar{ddc_params(dsp::KernelPolicy::kScalar, shape)};
      dsp::Ddc simd{ddc_params(dsp::KernelPolicy::kSimd, shape)};
      std::vector<cplx> iq_s, iq_v;
      constexpr std::size_t kCall = 7777;
      for (std::size_t off = 0; off < in.size(); off += kCall) {
        const std::span<const double> call{
            in.data() + off, std::min(kCall, in.size() - off)};
        scalar.process(call, iq_s);
        simd.process(call, iq_v);
      }
      ASSERT_EQ(iq_v.size(), iq_s.size());
      const std::size_t window = (simd.params().taps + 7) / 8 * 8;
      std::size_t clean_after = 0;
      for (std::size_t i = 0; i < iq_v.size(); ++i) {
        const std::size_t newest = (i + 1) * shape.decimation - 1;
        if (newest >= kBurstBegin && newest < kBurstEnd - 1 + window) {
          continue;
        }
        ASSERT_TRUE(std::isfinite(iq_v[i].real()) &&
                    std::isfinite(iq_v[i].imag()))
            << "output " << i;
        ASSERT_NEAR(iq_v[i].real(), iq_s[i].real(), 1e-6) << "output " << i;
        ASSERT_NEAR(iq_v[i].imag(), iq_s[i].imag(), 1e-6) << "output " << i;
        if (newest >= kBurstEnd) ++clean_after;
      }
      EXPECT_GT(clean_after, 1000u);
    }
  }
}

// ------------------------------------------------- parity: block AWGN

// Runs `check` against the hardware table, then the portable one.
template <class Check>
void on_both_tables(Check check) {
  struct RestoreIsa {
    dsp::SimdIsa isa = dsp::active_simd_isa();
    ~RestoreIsa() { dsp::force_simd_isa(isa); }
  } restore;
  for (const dsp::SimdIsa isa : {restore.isa, dsp::SimdIsa::kGeneric}) {
    dsp::force_simd_isa(isa);
    SCOPED_TRACE(dsp::simd::kernels().isa);
    check(dsp::simd::kernels());
  }
}

TEST(KernelParity, BlockNormalsMatchScalarDraws) {
  // Rng::normal_block through the table's Box-Muller against one
  // normal() per deviate, entered with and without a cached partner:
  // every deviate within 1e-13 (standard units), and afterwards the twin
  // generators agree bit for bit, cached partner and state words alike.
  on_both_tables([](const dsp::simd::KernelTable& table) {
    for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 257u, 125000u}) {
      for (const bool cached : {false, true}) {
        SCOPED_TRACE("n " + std::to_string(n) +
                     (cached ? " cached" : " clean"));
        sim::Rng block{n + 17};
        sim::Rng scalar{n + 17};
        if (cached) {  // one draw of a pair leaves its partner cached
          block.normal();
          scalar.normal();
        }
        std::vector<double> z(n);
        block.normal_block(z.data(), n, table.box_muller_f64);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_NEAR(z[i], scalar.normal(), 1e-13) << "deviate " << i;
        }
        EXPECT_EQ(block.normal(), scalar.normal());
        EXPECT_EQ(block.next_u64(), scalar.next_u64());
      }
    }
  });
}

TEST(KernelParity, BoxMullerEdgeUniformsMatchLibm) {
  // The extreme uniforms the generator can draw (u1 = 2^-53 gives the
  // largest radius, 8.57) against the grid u2 = k/8, where the reduction
  // to an octant lands on its ties, and u2 = 1 - 2^-53. Twenty-one pairs,
  // so the last one runs in the padded pass; each pair must also come
  // out bit-identical when converted on its own.
  std::vector<double> u;
  for (const double u1 : {0x1p-53, 1.0 - 0x1p-53}) {
    for (int k = 0; k < 8; ++k) {
      u.push_back(u1);
      u.push_back(k / 8.0);
    }
    u.push_back(u1);
    u.push_back(1.0 - 0x1p-53);
  }
  u.push_back(0.5);
  u.push_back(0.25);
  const std::size_t pairs = u.size() / 2;
  on_both_tables([&](const dsp::simd::KernelTable& table) {
    std::vector<double> z = u;
    table.box_muller_f64(z.data(), pairs);
    for (std::size_t j = 0; j < pairs; ++j) {
      const double u1 = u[2 * j];
      const double u2 = u[2 * j + 1];
      SCOPED_TRACE("u1 " + std::to_string(u1) + " u2 " + std::to_string(u2));
      // Rng::normal()'s expressions.
      const double r = std::sqrt(-2.0 * std::log(u1));
      const double theta = 2.0 * kPi * u2;
      EXPECT_NEAR(z[2 * j], r * std::cos(theta), 1e-13);
      EXPECT_NEAR(z[2 * j + 1], r * std::sin(theta), 1e-13);
      double alone[2] = {u1, u2};
      table.box_muller_f64(alone, 1);
      EXPECT_EQ(alone[0], z[2 * j]);
      EXPECT_EQ(alone[1], z[2 * j + 1]);
    }
  });
}

// ------------------------------------------------------ parity: synth

acoustic::UplinkWaveformSynth::Params synth_params(dsp::KernelPolicy policy) {
  acoustic::UplinkWaveformSynth::Params p;
  p.ambient_amplitude = 0.02;
  p.kernels = policy;
  return p;
}

std::vector<acoustic::BackscatterSource> parity_sources() {
  std::vector<acoustic::BackscatterSource> srcs;
  // A chip-stream source at a rate that does not divide the sample rate,
  // starting off the sample grid.
  acoustic::BackscatterSource a;
  a.chips = phy::Fm0Encoder::encode_frame(
      phy::UlPacket{.tid = 3, .payload = 0x2A5}.serialize());
  a.chip_rate = 374.6;
  a.start_s = 0.0301237;
  a.amplitude = 0.2;
  a.phase_rad = 1.2;
  srcs.push_back(a);
  // A multi-level source with a different start and phase.
  acoustic::BackscatterSource b;
  b.levels = {0.4, 0.9, 0.35, 0.7, 0.5, 0.92, 0.38, 0.8};
  b.chip_rate = 1500.0;
  b.start_s = 0.011;
  b.amplitude = 0.15;
  b.phase_rad = -0.7;
  srcs.push_back(b);
  return srcs;
}

TEST(KernelParity, SynthesizerSimdMatchesScalar) {
  acoustic::UplinkWaveformSynth scalar{
      synth_params(dsp::KernelPolicy::kScalar)};
  acoustic::UplinkWaveformSynth simd{synth_params(dsp::KernelPolicy::kSimd)};
  sim::Rng rng_s{42}, rng_v{42};
  const auto srcs = parity_sources();
  // Odd and even windows alternate (40 001 and 40 000 samples), so the
  // block noise path enters windows with and without a cached deviate
  // and leaves one cached for the next.
  for (int round = 0; round < 4; ++round) {
    const double seconds = round % 2 == 0 ? 0.080002 : 0.08;
    const auto w_s = scalar.synthesize(srcs, seconds, rng_s);
    const auto w_v = simd.synthesize(srcs, seconds, rng_v);
    ASSERT_EQ(w_s.size(), w_v.size());
    for (std::size_t i = 0; i < w_s.size(); ++i) {
      ASSERT_NEAR(w_s[i], w_v[i], 1e-9) << "round " << round << " i " << i;
    }
  }
  EXPECT_DOUBLE_EQ(scalar.now(), simd.now());
  // Both paths must consume the RNG stream identically (one normal draw
  // per sample, in sample order) — the next draw from each twin agrees.
  EXPECT_DOUBLE_EQ(rng_s.normal(0.0, 1.0), rng_v.normal(0.0, 1.0));
}

TEST(KernelParity, WaveformFleetLogMatchesAcrossSynthPolicies) {
  // The kSimd synthesizer draws each shard's AWGN a block at a time; the
  // kScalar reference draws one normal() per sample. Both consume the
  // shard's noise stream identically and agree to rounding, so a
  // fleet4x3-shaped fleet logs the same packets either way. (Here, not in
  // test_fleet: the scalar reference runs for over a minute under TSan.)
  fleet::FleetEngine::Params p;
  p.mode = fleet::FleetEngine::Mode::kWaveform;
  p.readers = 4;
  p.shards = 2;
  p.seed = 5;
  p.channels_per_reader = 3;
  p.epoch_duration_s = 0.25;
  const auto run = [&](dsp::KernelPolicy synth) {
    auto q = p;
    q.synth.kernels = synth;
    fleet::FleetEngine eng{q};
    eng.run_epochs(40);
    eng.flush();
    return std::pair{eng.digest(), eng.stats().packets};
  };
  const auto [d_simd, n_simd] = run(dsp::KernelPolicy::kSimd);
  const auto [d_scalar, n_scalar] = run(dsp::KernelPolicy::kScalar);
  EXPECT_GT(n_simd, 0u) << "waveform shards decoded nothing";
  EXPECT_EQ(n_simd, n_scalar);
  EXPECT_EQ(d_simd, d_scalar) << "synth policies logged different packets";
}

// ---------------------------------------------------- parity: RxChain

// The Fig. 12 operating points: Tags 8/4/11 at 375/750/1500 bps.
constexpr int kFig12Tags[] = {8, 4, 11};
constexpr double kFig12Rates[] = {375.0, 750.0, 1500.0};

// One Fig. 12 link (deployed amplitude and phase) as bench_fig12_uplink
// renders it: a 50 ms leak warm-up, then six bursts of one packet each.
std::vector<double> fig12_link(int tid, double rate) {
  const auto deployment = acoustic::Deployment::onvo_l60();
  acoustic::UplinkWaveformSynth link{acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{static_cast<std::uint64_t>(tid) * 1000 +
               static_cast<std::uint64_t>(rate)};
  auto wave = link.synthesize({}, 0.05, rng);
  for (int i = 0; i < 6; ++i) {
    acoustic::BackscatterSource src;
    src.chips = phy::Fm0Encoder::encode_frame(
        phy::UlPacket{.tid = static_cast<std::uint8_t>(tid & 0xF),
                      .payload = static_cast<std::uint16_t>(0x100 + i)}
            .serialize());
    src.chip_rate = rate;
    src.start_s = 0.01;
    src.amplitude = deployment.backscatter_rx_amplitude(tid);
    src.phase_rad = deployment.backscatter_phase(tid);
    const auto burst = link.synthesize({src}, 0.02 + 84.0 / rate, rng);
    wave.insert(wave.end(), burst.begin(), burst.end());
  }
  return wave;
}

// Feeds `wave` to a scalar and a simd RxChain in awkward chunks (coprime
// with the decimation, so the block path crosses many phase alignments)
// and checks the contract: the same packets, bit count and CRC failures,
// with packet timestamps inside kSimdTimeTol. A third, scalar chain fed
// one sample per call is the per-sample reference for the timestamps: a
// packet completing during a call is dated by the sample that call
// consumed, and the chunked scalar chain must date every packet bit for
// bit alike. Returns the packet count.
std::size_t expect_rx_parity(reader::RxChain::Params params,
                             const std::vector<double>& wave) {
  params.ddc.kernels = dsp::KernelPolicy::kScalar;
  reader::RxChain scalar{params};
  reader::RxChain per_sample{params};
  params.ddc.kernels = dsp::KernelPolicy::kSimd;
  reader::RxChain simd{params};
  constexpr std::size_t kChunk = 7777;
  for (std::size_t off = 0; off < wave.size(); off += kChunk) {
    const std::size_t len = std::min(kChunk, wave.size() - off);
    scalar.process(wave.data() + off, len);
    simd.process(wave.data() + off, len);
  }
  for (const double& sample : wave) {
    const std::size_t before = per_sample.packets().size();
    per_sample.process(&sample, 1);
    if (per_sample.packets().size() > before) {
      EXPECT_EQ(per_sample.packets().back().time_s,
                static_cast<double>(per_sample.samples_consumed()) /
                    params.ddc.sample_rate_hz);
    }
  }
  const auto& a = scalar.packets();
  const auto& r = per_sample.packets();
  EXPECT_EQ(a.size(), r.size());
  for (std::size_t i = 0; i < std::min(a.size(), r.size()); ++i) {
    EXPECT_EQ(a[i].packet, r[i].packet) << "packet " << i;
    EXPECT_EQ(a[i].time_s, r[i].time_s) << "packet " << i;
  }
  EXPECT_EQ(scalar.samples_consumed(), simd.samples_consumed());
  EXPECT_EQ(scalar.bits_decoded(), simd.bits_decoded());
  EXPECT_EQ(scalar.crc_failures(), simd.crc_failures());
  const auto& b = simd.packets();
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_EQ(a[i].packet, b[i].packet) << "packet " << i;
    EXPECT_NEAR(a[i].time_s, b[i].time_s, kSimdTimeTol) << "packet " << i;
  }
  return a.size();
}

TEST(KernelParity, RxChainDecodesIdenticalPacketsAcrossPolicies) {
  // The hard guarantee behind the policy switch: not "similar" decodes but
  // the same packets, same bit and CRC-failure counts.
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{77};
  std::vector<double> wave;
  for (int i = 0; i < 4; ++i) {
    acoustic::BackscatterSource src;
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(i + 1),
                            .payload =
                                static_cast<std::uint16_t>(0x300 + i)};
    src.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
    src.chip_rate = 375.0;
    src.start_s = 0.03;
    src.amplitude = 0.2;
    src.phase_rad = 1.2;
    const auto burst = synth.synthesize({src}, 0.32, rng);
    wave.insert(wave.end(), burst.begin(), burst.end());
  }
  EXPECT_GE(expect_rx_parity(reader::RxChain::Params{}, wave), 3u);

  // The paper's Fig. 12 links at 375/750/1500 bps, and at 93.75 and
  // 187.5 bps, where the chain decimates by 128 and 64 through 1025 and
  // 513 taps. Tag 11 at 1500 bps sits on the loss knee, so a float32
  // slicer flip would show here first — as a lost, gained or CRC-failed
  // frame on one side only.
  for (const int tid : kFig12Tags) {
    for (const double rate : {93.75, 187.5, 375.0, 750.0, 1500.0}) {
      SCOPED_TRACE(testing::Message() << "tag " << tid << " at " << rate
                                      << " bps");
      reader::RxChain::Params params;
      params.chip_rate = rate;
      expect_rx_parity(params, fig12_link(tid, rate));
    }
  }
}

// ------------------------------------------- decisions pinned to a record

// The parity suite runs the same decision chain (axis step, slicer, FM0,
// framer) on both sides, so it cannot see a change to that chain's math.
// These tests can: they hold the scalar reference's decodes to values
// recorded with the original trig-based axis step (cos and sin of half
// the std::arg angle). The scalar tier is pure double arithmetic, so the
// record does not depend on the host's SIMD table.

// Bit and CRC-failure counts, then each packet as
// [channel/]tid:payload@index, where index is the packet timestamp in
// samples at `rate` (every timestamp is a whole sample, so it is pinned
// exactly).
std::string decode_digest(std::uint64_t bits, std::uint64_t crc_failures,
                          const std::vector<reader::RxPacket>& packets,
                          double rate, bool with_channel) {
  std::string out = "bits=" + std::to_string(bits) +
                    " crc=" + std::to_string(crc_failures);
  char buf[64];
  for (const auto& p : packets) {
    const auto index = std::llround(p.time_s * rate);
    EXPECT_EQ(p.time_s, static_cast<double>(index) / rate);
    if (with_channel) {
      std::snprintf(buf, sizeof(buf), " %zu/", p.channel);
      out += buf;
    } else {
      out += ' ';
    }
    std::snprintf(buf, sizeof(buf), "%d:%03x@%lld", p.packet.tid,
                  p.packet.payload, static_cast<long long>(index));
    out += buf;
  }
  return out;
}

TEST(DecisionPin, Fig12LinksDecodeTheRecordedPackets) {
  // Tag 11 at 1500 bps is past the loss knee: bits, no frame. The 375 bps
  // column was re-recorded when the chain's decimation there went from 16
  // to 32 (DecisionChain::decimation): the 257-tap filter's longer group
  // delay dates each packet 16-64 raw samples later, and the bits,
  // payloads and CRC verdicts did not move. Tag 11 at 1500 bps read 41
  // bits until the axis stopped training during the leak warm-up (it now
  // starts at the first decided sample), then 39 until the slicer's fast
  // capture joined the per-chip rule: 1500 bps decides at 20.8 samples per
  // chip, where capture is 0.75 per sample instead of 0.5. Every other
  // cell decides at 125/3 samples per chip, where capture stayed exactly
  // 0.5, and kept its bits, packets and stamps.
  const char* const kRecorded[3][3] = {
      {"bits=245 crc=0 8:100@136960 8:101@258976 8:102@380960 8:103@502976 "
       "8:104@624960 8:105@746976",
       "bits=245 crc=0 8:100@83488 8:101@149488 8:102@215488 8:103@281488 "
       "8:104@347488 8:105@413488",
       "bits=245 crc=0 8:100@56784 8:101@94800 8:102@132784 8:103@170800 "
       "8:104@208784 8:105@246800"},
      {"bits=245 crc=0 4:100@136960 4:101@258944 4:102@380960 4:103@502944 "
       "4:104@624960 4:105@746944",
       "bits=245 crc=0 4:100@83488 4:101@149488 4:102@215504 4:103@281488 "
       "4:104@347504 4:105@413488",
       "bits=245 crc=0 4:100@56800 4:101@94784 4:102@132800 4:103@170784 "
       "4:104@208800 4:105@246784"},
      {"bits=245 crc=0 11:100@136960 11:101@258944 11:102@380960 "
       "11:103@502944 11:104@624960 11:105@746944",
       "bits=245 crc=0 11:100@83504 11:101@149504 11:102@215504 "
       "11:103@281488 11:104@347520 11:105@413504",
       "bits=77 crc=0"},
  };
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t r = 0; r < 3; ++r) {
      const int tid = kFig12Tags[t];
      const double rate = kFig12Rates[r];
      SCOPED_TRACE(testing::Message() << "tag " << tid << " at " << rate
                                      << " bps");
      reader::RxChain::Params params;
      params.chip_rate = rate;
      params.ddc.kernels = dsp::KernelPolicy::kScalar;
      reader::RxChain rx{params};
      const auto wave = fig12_link(tid, rate);
      constexpr std::size_t kChunk = 7777;
      for (std::size_t off = 0; off < wave.size(); off += kChunk) {
        rx.process(wave.data() + off, std::min(kChunk, wave.size() - off));
      }
      EXPECT_EQ(decode_digest(rx.bits_decoded(), rx.crc_failures(),
                              rx.packets(), params.ddc.sample_rate_hz,
                              false),
                kRecorded[t][r]);
    }
  }
}

// --------------------------------------------- parity: channelizer lanes

struct ChzrFixture {
  dsp::PolyphaseChannelizer::Plan plan;
  std::vector<double> proto;
  std::vector<double> centers;
  double fs = 62500.0;

  explicit ChzrFixture(std::vector<double> c = {3000.0, 4500.0, 6000.0,
                                                7500.0}) {
    centers = std::move(c);
    plan = dsp::PolyphaseChannelizer::plan(fs, 375.0, centers);
    proto = plan.viable
                ? dsp::design_lowpass(plan.cutoff_hz, fs, plan.taps)
                : std::vector<double>{};
  }

  dsp::PolyphaseChannelizer make(
      dsp::KernelPolicy policy,
      dsp::PolyphaseChannelizer::Params::Fold fold =
          dsp::PolyphaseChannelizer::Params::Fold::kAuto) const {
    return dsp::PolyphaseChannelizer{{
        .sample_rate_hz = fs,
        .fft_size = plan.fft_size,
        .decimation = plan.decimation,
        .prototype = proto,
        .center_hz = centers,
        .kernels = policy,
        .fold = fold,
    }};
  }
};

TEST(KernelParity, ChannelizerSimdF64FoldMatchesScalarFold) {
  // With the fold pinned to float64, the simd path changes only loop
  // structure and summation order, so lanes agree to summation-reordering
  // tolerance — not just float32 tolerance.
  const ChzrFixture fx;
  ASSERT_TRUE(fx.plan.viable) << fx.plan.reason;
  auto scalar = fx.make(dsp::KernelPolicy::kScalar);
  auto simd = fx.make(dsp::KernelPolicy::kSimd,
                      dsp::PolyphaseChannelizer::Params::Fold::kFloat64);
  EXPECT_FALSE(simd.float32_path());
  sim::Rng rng{39};
  std::vector<cplx> in(12000);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  const std::size_t frames_a = scalar.process(in.data(), in.size());
  const std::size_t frames_b = simd.process(in.data(), in.size());
  ASSERT_EQ(frames_a, frames_b);
  ASSERT_GT(frames_a, 100u);
  for (std::size_t k = 0; k < fx.centers.size(); ++k) {
    for (std::size_t f = 0; f < frames_a; ++f) {
      ASSERT_NEAR(simd.lane(k)[f].real(), scalar.lane(k)[f].real(), 1e-9)
          << "lane " << k << " frame " << f;
      ASSERT_NEAR(simd.lane(k)[f].imag(), scalar.lane(k)[f].imag(), 1e-9)
          << "lane " << k << " frame " << f;
    }
  }
}

TEST(KernelParity, ChannelizerFloat32LaneTracksScalarToFloatTolerance) {
  // The default kSimd channelizer runs the float32 frame: bucket fold,
  // bit-reversed forward FFT and lane rotation all single-precision.
  // Lane IQ tracks the scalar float64 reference to float32-scale error —
  // orders of magnitude inside the decision chain's margin — past the
  // 4096-frame phasor reseed, with the plan's prototype and with one
  // shorter than C (the fold then leaves the top buckets zero).
  ChzrFixture fx;
  ASSERT_TRUE(fx.plan.viable) << fx.plan.reason;
  ASSERT_GT(fx.plan.fft_size, 127u);
  for (const std::size_t taps : {fx.plan.taps, std::size_t{127}}) {
    SCOPED_TRACE(testing::Message() << taps << " taps");
    fx.proto = dsp::design_lowpass(fx.plan.cutoff_hz, fx.fs, taps);
    auto scalar = fx.make(dsp::KernelPolicy::kScalar);
    auto simd = fx.make(dsp::KernelPolicy::kSimd);
    EXPECT_TRUE(simd.float32_path());
    sim::Rng rng{39};
    // 5 000 frames at the plan's D = 16: past the reseed with room.
    std::vector<cplx> in(80000);
    for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    const std::size_t frames_a = scalar.process(in.data(), in.size());
    const std::size_t frames_b = simd.process(in.data(), in.size());
    ASSERT_EQ(frames_a, frames_b);
    ASSERT_GT(frames_a, 4096u);
    for (std::size_t k = 0; k < fx.centers.size(); ++k) {
      double ref_pow = 0.0;
      for (std::size_t f = 0; f < frames_a; ++f) {
        ref_pow += std::norm(scalar.lane(k)[f]);
      }
      const double scale =
          std::max(1.0, std::sqrt(ref_pow / static_cast<double>(frames_a)));
      for (std::size_t f = 0; f < frames_a; ++f) {
        ASSERT_NEAR(simd.lane(k)[f].real(), scalar.lane(k)[f].real(),
                    1e-3 * scale)
            << "lane " << k << " frame " << f;
        ASSERT_NEAR(simd.lane(k)[f].imag(), scalar.lane(k)[f].imag(),
                    1e-3 * scale)
            << "lane " << k << " frame " << f;
      }
    }
  }
}

TEST(KernelParity, ChannelizerFloat32SurvivesDenormalAndNanBlocks) {
  // Denormal-flooded input must not slow down or corrupt the float32
  // path (narrowing flushes the tiny values harmlessly), and NaN blocks
  // must propagate without crashing — then wash out of the FIR window.
  const ChzrFixture fx;
  ASSERT_TRUE(fx.plan.viable) << fx.plan.reason;
  auto simd = fx.make(dsp::KernelPolicy::kSimd);
  ASSERT_TRUE(simd.float32_path());
  std::vector<cplx> denorm(4096, cplx{1e-310, -1e-312});
  const std::size_t frames_d = simd.process(denorm.data(), denorm.size());
  ASSERT_GT(frames_d, 0u);
  for (std::size_t f = 0; f < frames_d; ++f) {
    ASSERT_TRUE(std::isfinite(simd.lane(0)[f].real()));
    ASSERT_TRUE(std::isfinite(simd.lane(0)[f].imag()));
  }
  std::vector<cplx> nan_block(
      2048, cplx{std::numeric_limits<double>::quiet_NaN(), 0.0});
  EXPECT_NO_THROW(simd.process(nan_block.data(), nan_block.size()));
  // Once the NaNs age out of the prototype window, output is clean again.
  std::vector<cplx> clean(fx.proto.size() + 8192, cplx{0.1, -0.1});
  const std::size_t frames_c = simd.process(clean.data(), clean.size());
  ASSERT_GT(frames_c, 0u);
  const std::size_t settled = fx.proto.size() / fx.plan.decimation + 2;
  ASSERT_GT(frames_c, settled);
  for (std::size_t f = settled; f < frames_c; ++f) {
    ASSERT_TRUE(std::isfinite(simd.lane(0)[f].real())) << "frame " << f;
    ASSERT_TRUE(std::isfinite(simd.lane(0)[f].imag())) << "frame " << f;
  }
}

TEST(KernelParity, ChannelizerFloat32NearNyquistLanesTrackScalar) {
  // Subcarriers landing in the top bins of the bank (~bin 121 and 127 of
  // 128 usable): the residual rotator steps nearly pi per lane sample,
  // the worst case for the float32 phasor. Lanes must still track the
  // scalar float64 reference to float32 tolerance.
  const ChzrFixture fx({29500.0, 31000.0});
  ASSERT_TRUE(fx.plan.viable) << fx.plan.reason;
  auto scalar = fx.make(dsp::KernelPolicy::kScalar);
  auto simd = fx.make(dsp::KernelPolicy::kSimd);
  ASSERT_TRUE(simd.float32_path());
  sim::Rng rng{77};
  std::vector<cplx> in(16384);
  for (auto& v : in) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  const std::size_t frames_a = scalar.process(in.data(), in.size());
  const std::size_t frames_b = simd.process(in.data(), in.size());
  ASSERT_EQ(frames_a, frames_b);
  ASSERT_GT(frames_a, 100u);
  for (std::size_t k = 0; k < fx.centers.size(); ++k) {
    double ref_pow = 0.0;
    for (std::size_t f = 0; f < frames_a; ++f) {
      ref_pow += std::norm(scalar.lane(k)[f]);
    }
    const double scale =
        std::max(1.0, std::sqrt(ref_pow / static_cast<double>(frames_a)));
    for (std::size_t f = 0; f < frames_a; ++f) {
      ASSERT_NEAR(simd.lane(k)[f].real(), scalar.lane(k)[f].real(),
                  1e-3 * scale)
          << "lane " << k << " frame " << f;
      ASSERT_NEAR(simd.lane(k)[f].imag(), scalar.lane(k)[f].imag(),
                  1e-3 * scale)
          << "lane " << k << " frame " << f;
    }
  }
}

// ------------------------------------------------ parity: FDMA banks

using Bank = reader::FdmaRxChain::BankPolicy;
using ChzrFold = dsp::PolyphaseChannelizer::Params::Fold;

// One tag per subcarrier on the grid `origin + 1500*k`. The 4-channel
// bank runs from 3000 Hz; the wide banks run from 3375 Hz, where odd
// subcarrier harmonics land 750 Hz off-channel (the bench §1c recipe).
std::vector<double> bank_subcarriers(int n, double origin) {
  std::vector<double> freqs;
  for (int k = 0; k < n; ++k) freqs.push_back(origin + 1500.0 * k);
  return freqs;
}

std::vector<double> fdma_capture(const std::vector<double>& subcarriers,
                                 double amplitude0,
                                 std::size_t amplitude_cycle,
                                 double noise_sigma = 0.004) {
  acoustic::UplinkWaveformSynth::Params sp;
  sp.noise_sigma = noise_sigma;
  acoustic::UplinkWaveformSynth synth{sp};
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
    s.amplitude = amplitude0 + 0.01 * static_cast<double>(k % amplitude_cycle);
    s.phase_rad = 0.5 + 0.4 * static_cast<double>(k);
    srcs.push_back(s);
  }
  return synth.synthesize(srcs, 0.3, rng);
}

// The four-channel capture most bank tests share.
std::vector<double> fdma4_capture() {
  return fdma_capture(bank_subcarriers(4, 3000.0), 0.12, 4);
}

reader::FdmaRxChain::Params fdma_params(
    dsp::KernelPolicy policy, std::size_t workers, Bank bank,
    const std::vector<double>& subcarriers, ChzrFold fold = ChzrFold::kAuto) {
  reader::FdmaRxChain::Params fp;
  // 32 channels top out near 50 kHz and need the 125 kS/s
  // (decimation-4) IQ rate; up to 16 fit the usual 62.5 kS/s bank.
  fp.ddc.decimation = subcarriers.size() > 16 ? 4 : 8;
  fp.workers = workers;
  fp.kernels = policy;
  fp.bank = bank;  // pinned so each test exercises the bank it names
  fp.chzr_fold = fold;
  for (double hz : subcarriers) fp.channels.push_back({hz});
  return fp;
}

std::vector<reader::RxPacket> decode(const reader::FdmaRxChain::Params& p,
                                     const std::vector<double>& wave) {
  reader::FdmaRxChain chain{p};
  EXPECT_EQ(chain.active_bank(), p.bank);
  // Awkward chunking so the simd stages cross many lane/chunk alignments.
  constexpr std::size_t kChunk = 7777;
  for (std::size_t off = 0; off < wave.size(); off += kChunk) {
    chain.process(wave.data(), 0);  // empty call: must be a no-op
    chain.process(wave.data() + off, std::min(kChunk, wave.size() - off));
  }
  return chain.drain_packets();
}

// Per-channel packet comparison: payloads, channels and CRC verdicts must
// agree exactly, timestamps within `time_tol`. A timestamp shift inside
// the tolerance can legally reorder the cross-channel merge, so the merged
// order is not part of the contract — the per-channel sequences are.
void expect_packet_parity(const std::vector<reader::RxPacket>& ref,
                          const std::vector<reader::RxPacket>& got,
                          double time_tol) {
  ASSERT_EQ(got.size(), ref.size());
  std::size_t channels = 0;
  for (const auto& p : ref) channels = std::max(channels, p.channel + 1);
  for (std::size_t c = 0; c < channels; ++c) {
    std::vector<const reader::RxPacket*> a, b;
    for (const auto& p : ref) {
      if (p.channel == c) a.push_back(&p);
    }
    for (const auto& p : got) {
      if (p.channel == c) b.push_back(&p);
    }
    ASSERT_EQ(b.size(), a.size()) << "channel " << c;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i]->packet, a[i]->packet) << "channel " << c;
      EXPECT_NEAR(b[i]->time_s, a[i]->time_s, time_tol) << "channel " << c;
    }
  }
}

TEST(KernelParity, FdmaBankDecodesIdenticalPacketsAcrossPolicies) {
  // Scalar sequential bank vs simd parallel bank: policies and threading
  // composed, still the same packets with the same per-channel counters.
  const auto freqs = bank_subcarriers(4, 3000.0);
  reader::FdmaRxChain scalar{
      fdma_params(dsp::KernelPolicy::kScalar, 1, Bank::kPerChannel, freqs)};
  reader::FdmaRxChain simd{
      fdma_params(dsp::KernelPolicy::kSimd, 4, Bank::kPerChannel, freqs)};
  const auto wave = fdma4_capture();
  constexpr std::size_t kChunk = 7777;
  for (std::size_t off = 0; off < wave.size(); off += kChunk) {
    const std::size_t len = std::min(kChunk, wave.size() - off);
    scalar.process(wave.data() + off, len);
    simd.process(wave.data() + off, len);
  }
  std::size_t total = 0;
  for (std::size_t c = 0; c < scalar.channel_count(); ++c) {
    ASSERT_EQ(scalar.packets(c), simd.packets(c)) << "channel " << c;
    total += scalar.packets(c).size();
    const auto ss = scalar.channel_stats(c);
    const auto vs = simd.channel_stats(c);
    EXPECT_EQ(ss.iq_samples, vs.iq_samples);
    EXPECT_EQ(ss.bits, vs.bits);
    EXPECT_EQ(ss.frames_ok, vs.frames_ok);
    EXPECT_EQ(ss.crc_failures, vs.crc_failures);
  }
  EXPECT_GE(total, 4u);  // every channel decodes its tag
  expect_packet_parity(scalar.drain_packets(), simd.drain_packets(),
                       kSimdTimeTol);
}

TEST(KernelParity, BankPolicyMatrixDecodesIdenticalPacketStreams) {
  // The matrix the parity contract covers: {scalar, simd} kernels x
  // {per-channel, channelizer} banks (threading varied for good measure),
  // all against the scalar per-channel reference. Payloads, channels and
  // CRC verdicts must agree exactly; timestamps within one channelizer
  // lane sample — that bounds both the banks' differing prototype filters
  // and the simd tier's float32 slicer jitter. Run on the 4-channel grid
  // and on two subcarrier sets off any uniform grid: every lane has its
  // own bin and residual phasor, so the channelizer takes them too.
  struct Cell {
    dsp::KernelPolicy kernels;
    std::size_t workers;
    Bank bank;
  };
  const Cell cells[] = {
      {dsp::KernelPolicy::kSimd, 1, Bank::kPerChannel},
      {dsp::KernelPolicy::kScalar, 1, Bank::kChannelizer},
      {dsp::KernelPolicy::kSimd, 4, Bank::kChannelizer},
  };
  const std::vector<double> sets[] = {
      bank_subcarriers(4, 3000.0),
      {9000.0, 11437.5, 17812.5, 20625.0},
      {6187.5, 8625.0, 9750.0, 11812.5, 15375.0, 21000.0, 22312.5, 23625.0},
  };
  for (const auto& freqs : sets) {
    SCOPED_TRACE(testing::Message() << freqs.size() << " subcarriers from "
                                    << freqs.front() << " Hz");
    const auto wave = fdma_capture(freqs, 0.12, 4);
    const auto plan = dsp::PolyphaseChannelizer::plan(62500.0, 375.0, freqs);
    ASSERT_TRUE(plan.viable) << plan.reason;
    const double lane_dt = static_cast<double>(plan.decimation) / 62500.0;
    const auto ref = decode(
        fdma_params(dsp::KernelPolicy::kScalar, 1, Bank::kPerChannel, freqs),
        wave);
    ASSERT_GE(ref.size(), freqs.size());  // every channel decodes its tag
    for (const auto& cell : cells) {
      SCOPED_TRACE(testing::Message()
                   << dsp::to_string(cell.kernels) << " workers="
                   << cell.workers << " bank=" << static_cast<int>(cell.bank));
      expect_packet_parity(
          ref,
          decode(fdma_params(cell.kernels, cell.workers, cell.bank, freqs),
                 wave),
          lane_dt);
    }
  }
}

// A random subcarrier set: `n` <= 16 subcarriers on the 187.5 Hz lattice
// (half the chip rate), at least 1125 Hz (3 chip rates) apart. `uniform`
// draws an evenly spaced grid; otherwise the gaps are drawn independently.
// The band, 9 to 25.875 kHz, keeps the odd harmonics of every square
// subcarrier (3f and up) at least 1125 Hz above the highest one: a
// harmonic at a channel's passband edge is an interferer that the two
// banks' different filters pass differently.
std::vector<double> random_subcarriers(sim::Rng& rng, std::int64_t n,
                                       bool uniform) {
  constexpr double kStep = 187.5;
  constexpr std::int64_t kLo = 48, kHi = 138, kMinGap = 6;
  const std::int64_t slack = (kHi - kLo) - (n - 1) * kMinGap;
  std::vector<std::int64_t> offsets;
  if (uniform) {
    const std::int64_t gap = kMinGap + rng.uniform_int(0, slack / (n - 1));
    const std::int64_t first =
        rng.uniform_int(0, (kHi - kLo) - (n - 1) * gap);
    for (std::int64_t i = 0; i < n; ++i) offsets.push_back(first + i * gap);
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      offsets.push_back(rng.uniform_int(0, slack));
    }
    std::sort(offsets.begin(), offsets.end());
    for (std::int64_t i = 0; i < n; ++i) offsets[i] += i * kMinGap;
  }
  std::vector<double> freqs;
  for (const std::int64_t k : offsets) {
    freqs.push_back(kStep * static_cast<double>(kLo + k));
  }
  return freqs;
}

TEST(KernelParity, RandomSubcarrierSetsDecodeAlikeOnBothBanks) {
  // The bank contract beyond the curated grids: seeded random subcarrier
  // sets, half uniform grids and half not, through the scalar per-channel
  // reference and the production channelizer bank (kSimd), pinned since
  // kAuto keeps sets below 8 channels on the per-channel bank. Payloads,
  // channels, packet counts and CRC failures must match exactly.
  // Timestamps, compared in whole IQ samples (a double compare failed an
  // offset of exactly one lane sample by 1.7e-17 s of rounding), stay
  // within two lane samples (DESIGN.md, parity contract).
  sim::Rng rng{2024};
  for (int trial = 0; trial < 10; ++trial) {
    const bool uniform = trial % 2 == 0;
    const auto freqs =
        random_subcarriers(rng, rng.uniform_int(4, 16), uniform);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << (uniform ? " uniform " : " uneven ")
                 << freqs.size() << " subcarriers from " << freqs.front()
                 << " Hz");
    const auto wave = fdma_capture(freqs, 0.12, 4);
    reader::FdmaRxChain ref{
        fdma_params(dsp::KernelPolicy::kScalar, 1, Bank::kPerChannel, freqs)};
    reader::FdmaRxChain bank{
        fdma_params(dsp::KernelPolicy::kSimd, 1, Bank::kChannelizer, freqs)};
    ASSERT_EQ(bank.active_bank(), Bank::kChannelizer);
    constexpr std::size_t kChunk = 7777;
    for (std::size_t off = 0; off < wave.size(); off += kChunk) {
      const std::size_t len = std::min(kChunk, wave.size() - off);
      ref.process(wave.data() + off, len);
      bank.process(wave.data() + off, len);
    }
    const double iq_rate = 62500.0;
    const auto lane = static_cast<std::int64_t>(
        dsp::PolyphaseChannelizer::plan(iq_rate, 375.0, freqs).decimation);
    const auto a = ref.drain_packets();
    const auto b = bank.drain_packets();
    for (std::size_t c = 0; c < freqs.size(); ++c) {
      const auto sa = ref.channel_stats(c);
      const auto sb = bank.channel_stats(c);
      EXPECT_EQ(sb.frames_ok, sa.frames_ok) << "channel " << c;
      EXPECT_EQ(sb.crc_failures, sa.crc_failures) << "channel " << c;
      std::vector<const reader::RxPacket*> pa, pb;
      for (const auto& p : a) {
        if (p.channel == c) pa.push_back(&p);
      }
      for (const auto& p : b) {
        if (p.channel == c) pb.push_back(&p);
      }
      ASSERT_EQ(pb.size(), pa.size()) << "channel " << c;
      for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pb[i]->packet, pa[i]->packet) << "channel " << c;
        const std::int64_t offset =
            std::llround(pb[i]->time_s * iq_rate) -
            std::llround(pa[i]->time_s * iq_rate);
        EXPECT_LE(std::abs(offset), 2 * lane) << "channel " << c;
      }
    }
    EXPECT_GE(a.size() + 1, freqs.size());  // at most one tag lost
  }
}

TEST(KernelParity, BankWidthsDecodeIdenticalPacketsOnBothBanks) {
  // The contract at every bank width the benches exercise, on each bank
  // against its own scalar reference: the per-channel mixer bank, and the
  // channelizer with its float32 fast path (the kSimd default) and with
  // the fold pinned to float64.
  for (const int n : {4, 8, 16, 32}) {
    SCOPED_TRACE(testing::Message() << n << " channels");
    const auto freqs = bank_subcarriers(n, 3375.0);
    const auto wave = fdma_capture(freqs, 0.18, 5);
    const auto scalar_pc = decode(
        fdma_params(dsp::KernelPolicy::kScalar, 1, Bank::kPerChannel, freqs),
        wave);
    const auto scalar_cz = decode(
        fdma_params(dsp::KernelPolicy::kScalar, 1, Bank::kChannelizer, freqs),
        wave);
    // The 32-wide grid stacks enough co-channel harmonic energy that one
    // marginal tag can miss on both policies; parity, not yield, is the
    // contract under test.
    EXPECT_GE(scalar_pc.size(), static_cast<std::size_t>(n) - 1);
    EXPECT_GE(scalar_cz.size(), static_cast<std::size_t>(n) - 1);
    expect_packet_parity(
        scalar_pc,
        decode(fdma_params(dsp::KernelPolicy::kSimd, 1, Bank::kPerChannel,
                           freqs),
               wave),
        kSimdTimeTol);
    for (const ChzrFold fold : {ChzrFold::kAuto, ChzrFold::kFloat64}) {
      SCOPED_TRACE(fold == ChzrFold::kAuto ? "f32 fold" : "f64 fold");
      expect_packet_parity(
          scalar_cz,
          decode(fdma_params(dsp::KernelPolicy::kSimd, 1, Bank::kChannelizer,
                             freqs, fold),
                 wave),
          kSimdTimeTol);
    }
  }
}

TEST(KernelParity, LowSnrCrcOutcomesMatchScalar) {
  // Near the noise floor the CRC decision is the sharpest lens on the
  // float32 path: a single flipped slicer decision would surface as a
  // frames_ok / crc_failures mismatch. The simd channelizer bank must
  // reach the scalar bank's per-channel outcomes (and drain the same
  // packets) on a capture noisy enough that decode is genuinely marginal.
  const int n = 8;
  const auto freqs = bank_subcarriers(n, 3375.0);
  const auto wave = fdma_capture(freqs, 0.18, 5, 0.06);
  reader::FdmaRxChain scalar{
      fdma_params(dsp::KernelPolicy::kScalar, 1, Bank::kChannelizer, freqs)};
  reader::FdmaRxChain simd{
      fdma_params(dsp::KernelPolicy::kSimd, 1, Bank::kChannelizer, freqs)};
  constexpr std::size_t kChunk = 7777;
  for (std::size_t off = 0; off < wave.size(); off += kChunk) {
    const std::size_t len = std::min(kChunk, wave.size() - off);
    scalar.process(wave.data() + off, len);
    simd.process(wave.data() + off, len);
  }
  std::uint64_t total_ok = 0;
  for (std::size_t c = 0; c < freqs.size(); ++c) {
    const auto a = scalar.channel_stats(c);
    const auto b = simd.channel_stats(c);
    EXPECT_EQ(b.frames_ok, a.frames_ok) << "channel " << c;
    EXPECT_EQ(b.crc_failures, a.crc_failures) << "channel " << c;
    total_ok += a.frames_ok;
  }
  EXPECT_GE(total_ok, 1u) << "capture must not be pure noise";
  expect_packet_parity(scalar.drain_packets(), simd.drain_packets(),
                       kSimdTimeTol);
}

TEST(KernelParity, ForcedPortableTierDecodesIdenticalPackets) {
  // The portable vector tier is the only kSimd path on hardware without
  // AVX2: forced onto it, kSimd must still decode the scalar reference's
  // packets — an ISA downgrade changes speed, never results.
  const dsp::SimdIsa before = dsp::active_simd_isa();
  const auto freqs = bank_subcarriers(4, 3000.0);
  const auto wave = fdma4_capture();
  const auto scalar = decode(
      fdma_params(dsp::KernelPolicy::kScalar, 1, Bank::kPerChannel, freqs),
      wave);
  dsp::force_simd_isa(dsp::SimdIsa::kGeneric);
  EXPECT_STREQ(dsp::simd::kernels().isa,
               dsp::to_string(dsp::active_simd_isa()));
  const auto portable = decode(
      fdma_params(dsp::KernelPolicy::kSimd, 1, Bank::kPerChannel, freqs),
      wave);
  const auto portable_cz = decode(
      fdma_params(dsp::KernelPolicy::kSimd, 1, Bank::kChannelizer, freqs),
      wave);
  dsp::force_simd_isa(before);
  ASSERT_GE(scalar.size(), 4u);
  expect_packet_parity(scalar, portable, kSimdTimeTol);
  const auto plan = dsp::PolyphaseChannelizer::plan(62500.0, 375.0, freqs);
  expect_packet_parity(scalar, portable_cz,
                       static_cast<double>(plan.decimation) / 62500.0);
}

TEST(DecisionPin, FdmaBanksDecodeTheRecordedPackets) {
  // One capture per bank mode, on the scalar reference: the four-channel
  // per-channel bank, and the eight-channel channelizer bank at the low
  // SNR where three of its eight tags decode (marginal decisions). Both
  // were re-recorded when the banks began deciding at the lane rate, one
  // sample per 8 IQ samples (the per-channel bank decided on every IQ
  // sample), with the main DDC's passband flat up to the top channel:
  // each packet is dated 6-10 IQ samples earlier, by the shorter debouncer
  // hold, and 1-2 more bits decode; packets and CRC verdicts did not move.
  // They were re-recorded again when the lane rate halved to one sample
  // per 16 IQ samples (10.4 samples per chip) and the slicer's capture
  // rate joined the per-chip rule: the same packets, bits and CRC
  // verdicts, with stamps 0-8 IQ samples earlier; packets whose stamps
  // now tie drain in channel order.
  struct Case {
    Bank bank;
    std::vector<double> freqs;
    std::vector<double> wave;
    const char* recorded;
  };
  const auto wide = bank_subcarriers(8, 3375.0);
  const Case cases[] = {
      {Bank::kPerChannel, bank_subcarriers(4, 3000.0), fdma4_capture(),
       "bits=155 crc=0 1/2:501@15359 2/3:502@15359 3/4:503@15359 "
       "0/1:500@15375"},
      {Bank::kChannelizer, wide, fdma_capture(wide, 0.18, 5, 0.06),
       "bits=321 crc=0 0/1:500@15362 2/3:502@15362 1/2:501@15378"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "bank " << static_cast<int>(c.bank));
    const auto params =
        fdma_params(dsp::KernelPolicy::kScalar, 1, c.bank, c.freqs);
    reader::FdmaRxChain chain{params};
    ASSERT_EQ(chain.active_bank(), c.bank);
    constexpr std::size_t kChunk = 7777;
    for (std::size_t off = 0; off < c.wave.size(); off += kChunk) {
      chain.process(c.wave.data() + off,
                    std::min(kChunk, c.wave.size() - off));
    }
    std::uint64_t bits = 0;
    std::uint64_t crc = 0;
    for (const auto& s : chain.all_channel_stats()) {
      bits += s.bits;
      crc += s.crc_failures;
    }
    const double iq_rate = params.ddc.sample_rate_hz /
                           static_cast<double>(params.ddc.decimation);
    EXPECT_EQ(decode_digest(bits, crc, chain.drain_packets(), iq_rate, true),
              c.recorded);
  }
}

}  // namespace
