// Micro-benchmarks for the reader's hot DSP path: FFT plans, Welch PSD, FIR
// filtering, the full DDC, FM0 chip decoding, IQ k-means, and the SPSC
// ring buffer — the blocks that must sustain 500 kS/s in real time.
//
// The BM_*Scalar / BM_*Simd pairs measure the two kernel policies on the
// same workload; CI compares their real_time from the BENCH_micro_dsp.json
// sidecar and fails if the simd path ever regresses below the scalar one.
#include <benchmark/benchmark.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/cluster.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/fft_plan.hpp"
#include "arachnet/dsp/kernels/kernel_policy.hpp"
#include "arachnet/dsp/kernels/nco.hpp"
#include "arachnet/dsp/psd.hpp"
#include "arachnet/dsp/ring_buffer.hpp"
#include "arachnet/dsp/slicer.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/packet.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/sim/rng.hpp"

using namespace arachnet;

static void BM_WelchPsd(benchmark::State& state) {
  sim::Rng rng{2};
  std::vector<double> signal(100000);
  for (auto& s : signal) s = rng.normal();
  dsp::WelchPsd psd{{.segment_size = 4096, .sample_rate_hz = 500e3}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(psd.estimate(signal));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(signal.size()));
}
BENCHMARK(BM_WelchPsd);

static void BM_FirFilter(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  dsp::FirFilter<double> lpf{dsp::design_lowpass(5e3, 500e3, taps)};
  sim::Rng rng{3};
  std::vector<double> block(8192);
  for (auto& s : block) s = rng.normal();
  for (auto _ : state) {
    double acc = 0.0;
    for (double s : block) acc += lpf.push(s);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_FirFilter)->Arg(65)->Arg(129)->Arg(257);

// ----------------------------------------------------- policy pairs

namespace {

// The DDC shapes the front halves run, keyed by decimation: RxChain's at
// 375 chip/s (D = 32) and at 750 chip/s and up (D = 16), read from the
// chain, and the FDMA main DDC of fleet4x3 (D = 8) and of fdma32_grid
// (D = 4, cutoff above the 32nd subcarrier).
void ddc_policy_bench(benchmark::State& state, dsp::KernelPolicy policy) {
  const auto decimation = static_cast<std::size_t>(state.range(0));
  dsp::Ddc::Params p;
  if (decimation >= 16) {
    reader::RxChain::Params rx;
    rx.chip_rate = decimation == 32 ? 375.0 : 750.0;
    p = reader::RxChain{rx}.params().ddc;
    if (p.decimation != decimation) {
      state.SkipWithError("RxChain no longer runs this decimation");
      return;
    }
  } else {
    p.decimation = decimation;
    p.cutoff_hz = decimation == 8 ? 7125.0 : 51000.0;
  }
  p.kernels = policy;
  dsp::Ddc ddc{p};
  sim::Rng rng{4};
  std::vector<double> block(16384);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = std::cos(2.0 * 3.14159 * 90e3 * i / 500e3) + rng.normal() * 0.01;
  }
  std::vector<std::complex<double>> iq;
  for (auto _ : state) {
    iq.clear();
    ddc.process(std::span<const double>{block}, iq);
    benchmark::DoNotOptimize(iq.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(block.size()));
}

// One 0.3 s four-subcarrier capture (decodes on every channel), reused by
// both FDMA policy benches so they chew identical samples.
const std::vector<double>& fdma_capture() {
  static const std::vector<double> wave = [] {
    acoustic::UplinkWaveformSynth synth{
        acoustic::UplinkWaveformSynth::Params{}};
    sim::Rng rng{101};
    std::vector<acoustic::BackscatterSource> srcs;
    for (int k = 0; k < 4; ++k) {
      const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                              .payload =
                                  static_cast<std::uint16_t>(0x500 + k)};
      phy::SubcarrierModulator mod{{375.0, 3000.0 + 1500.0 * k}};
      acoustic::BackscatterSource s;
      s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
      s.chip_rate = mod.subchip_rate();
      s.start_s = 0.03;
      s.amplitude = 0.12 + 0.01 * k;
      s.phase_rad = 0.5 + 0.4 * k;
      srcs.push_back(s);
    }
    return synth.synthesize(srcs, 0.3, rng);
  }();
  return wave;
}

reader::FdmaRxChain::Params fdma_bench_params(dsp::KernelPolicy policy) {
  reader::FdmaRxChain::Params fp;
  fp.ddc.decimation = 8;
  fp.workers = 1;  // sequential: measure the kernels, not the threading
  fp.kernels = policy;
  // Pinned to the mixer bank: these benches compare the scalar vs simd
  // per-channel mixer/LPF kernels, which only that bank runs.
  fp.bank = reader::FdmaRxChain::BankPolicy::kPerChannel;
  for (int k = 0; k < 4; ++k) fp.channels.push_back({3000.0 + 1500.0 * k});
  return fp;
}

void fdma_policy_bench(benchmark::State& state, dsp::KernelPolicy policy) {
  const auto& wave = fdma_capture();
  reader::FdmaRxChain bank{fdma_bench_params(policy)};
  std::uint64_t packets = 0;
  for (auto _ : state) {
    bank.process(wave);
    packets += bank.drain_packets().size();
  }
  benchmark::DoNotOptimize(packets);
  state.counters["packets"] = static_cast<double>(packets);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(wave.size()));
}

}  // namespace

static void BM_DdcScalar(benchmark::State& state) {
  ddc_policy_bench(state, dsp::KernelPolicy::kScalar);
}
BENCHMARK(BM_DdcScalar)->Arg(32)->Arg(16)->Arg(8)->Arg(4);

static void BM_DdcSimd(benchmark::State& state) {
  ddc_policy_bench(state, dsp::KernelPolicy::kSimd);
}
BENCHMARK(BM_DdcSimd)->Arg(32)->Arg(16)->Arg(8)->Arg(4);

namespace {

// fleet4x3's shard epoch: three subcarrier tags at 3 000, 4 500 and
// 6 000 Hz in 0.25 s of 500 kS/s waveform, rendered into a reused buffer
// as the fleet's shards do.
void synth_policy_bench(benchmark::State& state, dsp::KernelPolicy policy) {
  std::vector<acoustic::BackscatterSource> srcs;
  for (int k = 0; k < 3; ++k) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload = static_cast<std::uint16_t>(0x100 + k)};
    phy::SubcarrierModulator mod{{375.0, 3000.0 + 1500.0 * k}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.02;
    s.amplitude = 0.12 + 0.01 * k;
    s.phase_rad = 0.5 + 0.4 * k;
    srcs.push_back(std::move(s));
  }
  acoustic::UplinkWaveformSynth::Params p;
  p.kernels = policy;
  acoustic::UplinkWaveformSynth synth{p};
  sim::Rng rng{5};
  std::vector<double> wave;
  for (auto _ : state) {
    synth.synthesize(srcs, 0.25, rng, wave);
    benchmark::DoNotOptimize(wave.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(wave.size()));
}

}  // namespace

static void BM_SynthScalar(benchmark::State& state) {
  synth_policy_bench(state, dsp::KernelPolicy::kScalar);
}
BENCHMARK(BM_SynthScalar);

static void BM_SynthSimd(benchmark::State& state) {
  synth_policy_bench(state, dsp::KernelPolicy::kSimd);
}
BENCHMARK(BM_SynthSimd);

// ----------------------------------------------- bank-policy scaling

namespace {

std::vector<double> bank_subcarriers(int n) {
  // Origin 3375 Hz (a legal modulator frequency: 18 chip half-periods)
  // instead of 3000: odd harmonics of a 3000+1500k grid land exactly on
  // higher channels, and at 16+ channels that co-channel interference
  // makes decode success filter-shape-dependent — useless for a parity
  // row. From 3375 the 3rd/7th harmonics fall 750 Hz off-channel, outside
  // both banks' channel filters.
  std::vector<double> freqs;
  for (int k = 0; k < n; ++k) freqs.push_back(3375.0 + 1500.0 * k);
  return freqs;
}

// One 0.3 s capture with a tag on every subcarrier, cached per channel
// count (rendering 32 tags is far more expensive than decoding them).
const std::vector<double>& bank_capture(int n) {
  static std::map<int, std::vector<double>> cache;
  if (const auto it = cache.find(n); it != cache.end()) return it->second;
  acoustic::UplinkWaveformSynth synth{
      acoustic::UplinkWaveformSynth::Params{}};
  sim::Rng rng{101};
  std::vector<acoustic::BackscatterSource> srcs;
  const auto freqs = bank_subcarriers(n);
  for (int k = 0; k < n; ++k) {
    const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                            .payload =
                                static_cast<std::uint16_t>(0x500 + k)};
    phy::SubcarrierModulator mod{{375.0, freqs[static_cast<std::size_t>(k)]}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.03;
    // Stronger than the 4-channel capture above: near the top of the DDC
    // passband (32 channels reach 49.9 kHz) the filter edges shave the
    // weakest links, and a tag that only one bank's filter shape can
    // recover would make the parity row meaningless.
    s.amplitude = 0.18 + 0.01 * (k % 5);
    s.phase_rad = 0.5 + 0.4 * k;
    srcs.push_back(s);
  }
  return cache.emplace(n, synth.synthesize(srcs, 0.3, rng)).first->second;
}

reader::FdmaRxChain::Params bank_policy_params(
    int n, reader::FdmaRxChain::BankPolicy bank) {
  reader::FdmaRxChain::Params fp;
  // The IQ passband must hold the top subcarrier plus sidebands: 32
  // channels top out at 49.5 kHz, needing the 125 kS/s (decimation-4) IQ
  // rate; up to 16 channels fit the usual 62.5 kS/s bank.
  fp.ddc.decimation = n > 16 ? 4 : 8;
  fp.workers = 1;  // sequential: measure the bank DSP, not the threading
  fp.bank = bank;
  for (double hz : bank_subcarriers(n)) fp.channels.push_back({hz});
  return fp;
}

void bank_policy_bench(benchmark::State& state,
                       reader::FdmaRxChain::BankPolicy bank) {
  const int n = static_cast<int>(state.range(0));
  const auto& wave = bank_capture(n);
  reader::FdmaRxChain chain{bank_policy_params(n, bank)};
  std::uint64_t packets = 0;
  for (auto _ : state) {
    chain.process(wave);
    packets += chain.drain_packets().size();
  }
  benchmark::DoNotOptimize(packets);
  state.counters["packets"] = static_cast<double>(packets);
  // CI asserts the requested bank actually engaged: a silent fallback
  // would turn the speedup comparison into per-channel vs per-channel.
  state.counters["channelized"] =
      chain.active_bank() == reader::FdmaRxChain::BankPolicy::kChannelizer
          ? 1.0
          : 0.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(wave.size()));
}

}  // namespace

static void BM_FdmaBankPerChannel(benchmark::State& state) {
  bank_policy_bench(state, reader::FdmaRxChain::BankPolicy::kPerChannel);
}
BENCHMARK(BM_FdmaBankPerChannel)->DenseRange(4, 9)->Arg(16)->Arg(32);

static void BM_FdmaBankChannelizer(benchmark::State& state) {
  bank_policy_bench(state, reader::FdmaRxChain::BankPolicy::kChannelizer);
}
BENCHMARK(BM_FdmaBankChannelizer)->DenseRange(4, 9)->Arg(16)->Arg(32);

static void BM_BankPacketParity(benchmark::State& state) {
  // Not a timing bench: records per-channel packet parity between the two
  // bank policies at 16 channels into the sidecar. Payloads, channels and
  // CRC verdicts must match exactly; timestamps within one channelizer
  // lane sample (the banks run different prototype filters).
  const int n = 16;
  const auto& wave = bank_capture(n);
  std::uint64_t pc_packets = 0, chzr_packets = 0;
  bool equal = true;
  {
    reader::FdmaRxChain pc{bank_policy_params(
        n, reader::FdmaRxChain::BankPolicy::kPerChannel)};
    reader::FdmaRxChain chzr{bank_policy_params(
        n, reader::FdmaRxChain::BankPolicy::kChannelizer)};
    pc.process(wave);
    chzr.process(wave);
    // One lane sample at the bench's 62.5 kS/s IQ rate.
    const double iq_rate = 500e3 / 8.0;
    const double lane_dt =
        static_cast<double>(
            dsp::PolyphaseChannelizer::lane_decimation(iq_rate, 375.0)) /
        iq_rate;
    equal = chzr.active_bank() ==
            reader::FdmaRxChain::BankPolicy::kChannelizer;
    for (std::size_t c = 0; c < pc.channel_count(); ++c) {
      const auto& a = pc.packets(c);
      const auto& b = chzr.packets(c);
      pc_packets += a.size();
      chzr_packets += b.size();
      equal = equal && a == b;
    }
    const auto ta = pc.drain_packets();
    const auto tb = chzr.drain_packets();
    for (std::size_t c = 0; equal && c < pc.channel_count(); ++c) {
      std::vector<double> times_a, times_b;
      for (const auto& p : ta) {
        if (p.channel == c) times_a.push_back(p.time_s);
      }
      for (const auto& p : tb) {
        if (p.channel == c) times_b.push_back(p.time_s);
      }
      equal = times_a.size() == times_b.size();
      for (std::size_t i = 0; equal && i < times_a.size(); ++i) {
        equal = std::abs(times_a[i] - times_b[i]) <= lane_dt;
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(equal);
  }
  state.counters["parity"] = equal ? 1.0 : 0.0;
  state.counters["per_channel_packets"] = static_cast<double>(pc_packets);
  state.counters["channelizer_packets"] =
      static_cast<double>(chzr_packets);
}
BENCHMARK(BM_BankPacketParity);

static void BM_FdmaBankScalar(benchmark::State& state) {
  fdma_policy_bench(state, dsp::KernelPolicy::kScalar);
}
BENCHMARK(BM_FdmaBankScalar);

static void BM_FdmaBankSimd(benchmark::State& state) {
  fdma_policy_bench(state, dsp::KernelPolicy::kSimd);
}
BENCHMARK(BM_FdmaBankSimd);

// ------------------------------------------------- policy parity

namespace {

// Timestamp tolerance for the kSimd tier: the float32 lane path can move
// a slicer crossing by a sample or two. 256 us is one channelizer lane
// sample at every bench channel count (3906.25 lane samples per second).
constexpr double kSimdTimeTol = 256e-6;

// Per-channel packet comparison between two drained captures. Payloads,
// channels and CRC verdicts must match exactly; timestamps within
// `time_tol` seconds.
template <typename P>
bool tiers_match(const std::vector<P>& ref, const std::vector<P>& got,
                 std::size_t channels, double time_tol) {
  for (std::size_t c = 0; c < channels; ++c) {
    std::vector<std::size_t> ia, ib;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (ref[i].channel == c) ia.push_back(i);
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].channel == c) ib.push_back(i);
    }
    if (ia.size() != ib.size()) return false;
    for (std::size_t i = 0; i < ia.size(); ++i) {
      const auto& pa = ref[ia[i]];
      const auto& pb = got[ib[i]];
      if (!(pa.packet == pb.packet)) return false;
      if (std::abs(pa.time_s - pb.time_s) > time_tol) return false;
    }
  }
  return true;
}

}  // namespace

static void BM_TierPacketParity(benchmark::State& state) {
  // Not a timing bench: records packet parity between the scalar
  // reference and the simd tier, on the per-channel bank and on the simd
  // channelizer bank, at the arg's channel count. The simd decodes must
  // be the identical packet set with timestamps inside kSimdTimeTol. CI
  // fails the run if any parity counter is not 1.
  const int n = static_cast<int>(state.range(0));
  const auto& wave = bank_capture(n);
  bool channelized = false;
  const auto run = [&](dsp::KernelPolicy k,
                       reader::FdmaRxChain::BankPolicy bank,
                       bool* engaged = nullptr) {
    auto p = bank_policy_params(n, bank);
    p.kernels = k;
    reader::FdmaRxChain chain{p};
    chain.process(wave);
    if (engaged != nullptr) {
      *engaged = chain.active_bank() ==
                 reader::FdmaRxChain::BankPolicy::kChannelizer;
    }
    return chain.drain_packets();
  };
  using Bank = reader::FdmaRxChain::BankPolicy;
  const auto scalar = run(dsp::KernelPolicy::kScalar, Bank::kPerChannel);
  const auto simd = run(dsp::KernelPolicy::kSimd, Bank::kPerChannel);
  const auto simd_chzr =
      run(dsp::KernelPolicy::kSimd, Bank::kChannelizer, &channelized);
  const auto channels = static_cast<std::size_t>(n);
  const bool equal = !scalar.empty() && channelized &&
                     tiers_match(scalar, simd, channels, kSimdTimeTol) &&
                     tiers_match(scalar, simd_chzr, channels, kSimdTimeTol);
  for (auto _ : state) {
    benchmark::DoNotOptimize(equal);
  }
  state.counters["parity"] = equal ? 1.0 : 0.0;
  state.counters["channelized"] = channelized ? 1.0 : 0.0;
  state.counters["scalar_packets"] = static_cast<double>(scalar.size());
  state.counters["simd_packets"] = static_cast<double>(simd.size());
  state.counters["simd_channelizer_packets"] =
      static_cast<double>(simd_chzr.size());
}
BENCHMARK(BM_TierPacketParity)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

static void BM_NcoFill(benchmark::State& state) {
  dsp::PhasorNco nco{0.0, 1.131};
  std::vector<std::complex<double>> buf(8192);
  for (auto _ : state) {
    nco.fill(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_NcoFill);

static void BM_TrigOscillator(benchmark::State& state) {
  // The per-sample cos/sin pair the NCO replaces, on the same workload.
  std::vector<std::complex<double>> buf(8192);
  double phase = 0.0;
  for (auto _ : state) {
    for (auto& v : buf) {
      v = {std::cos(phase), std::sin(phase)};
      phase += 1.131;
      if (phase > 2.0 * 3.14159265358979323846) {
        phase -= 2.0 * 3.14159265358979323846;
      }
    }
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_TrigOscillator);

static void BM_FftRealPlan(benchmark::State& state) {
  // Cached-plan real-input transform (the Welch PSD inner loop).
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{1};
  std::vector<double> data(n);
  for (auto& x : data) x = rng.normal();
  const auto plan = dsp::FftPlan::get(n);
  std::vector<std::complex<double>> out;
  for (auto _ : state) {
    plan->forward_real(data.data(), data.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FftRealPlan)->Arg(1024)->Arg(4096);

static void BM_PolicyPacketParity(benchmark::State& state) {
  // Not a timing bench: records packet-level parity between the two
  // kernel policies on the BM_FdmaBank* workload, so CI can assert the
  // speedup comparison is between paths that decode the same packets.
  // simd must match scalar payload-for-payload with timestamps inside
  // kSimdTimeTol; parity == 1 means both decode identical packet sets.
  const auto& wave = fdma_capture();
  reader::FdmaRxChain scalar{fdma_bench_params(dsp::KernelPolicy::kScalar)};
  reader::FdmaRxChain simd{fdma_bench_params(dsp::KernelPolicy::kSimd)};
  scalar.process(wave);
  simd.process(wave);
  const auto a = scalar.drain_packets();
  const auto b = simd.drain_packets();
  const bool equal = !a.empty() && tiers_match(a, b, 4, kSimdTimeTol);
  for (auto _ : state) {
    benchmark::DoNotOptimize(equal);
  }
  state.counters["parity"] = equal ? 1.0 : 0.0;
  state.counters["scalar_packets"] = static_cast<double>(a.size());
  state.counters["simd_packets"] = static_cast<double>(b.size());
}
BENCHMARK(BM_PolicyPacketParity);

// A phase-continuous 375 bps capture: kRxWindows windows of 0.28 s, one
// packet per window (a whole number of 90 kHz carrier periods each, so the
// capture also loops without a phase jump).
constexpr std::size_t kRxWindows = 8;
constexpr std::size_t kRxWindowSamples = 140000;

struct RxCapture {
  std::vector<double> samples;
  std::vector<phy::UlPacket> truth;  ///< one per window
};

const RxCapture& rx_capture() {
  static const RxCapture cap = [] {
    RxCapture c;
    acoustic::UplinkWaveformSynth synth{
        acoustic::UplinkWaveformSynth::Params{}};
    sim::Rng rng{5};
    for (std::size_t w = 0; w < kRxWindows; ++w) {
      const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(1 + w),
                              .payload = static_cast<std::uint16_t>(0x700 + w)};
      acoustic::BackscatterSource src;
      src.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
      src.chip_rate = 375.0;
      src.start_s = 0.03;
      src.amplitude = 0.05 + 0.02 * static_cast<double>(w);
      src.phase_rad = 0.8 * static_cast<double>(w);
      const auto wave = synth.synthesize(
          {src}, static_cast<double>(kRxWindowSamples) / 500e3, rng);
      c.samples.insert(c.samples.end(), wave.begin(), wave.end());
      c.truth.push_back(pkt);
    }
    return c;
  }();
  return cap;
}

static void BM_RxChainEndToEnd(benchmark::State& state) {
  // Raw-sample throughput of the whole receive chain (must beat 500 kS/s
  // for real-time operation) on the modulated path: DDC, leak and axis
  // projection, slicer, FM0 and the framer, configured as the streaming
  // front halves run it. Each iteration feeds the next window; `packets`
  // counts the decoded packets that match their window's, `packets_fed`
  // the windows fed (ci/perf_gate.rules requires them equal).
  const auto& cap = rx_capture();
  reader::RxChain::Params params;
  params.leak_ema_alpha = 0.2;
  params.retain_iq_points = false;
  reader::RxChain rx{params};
  std::size_t fed = 0;
  std::size_t decoded = 0;
  for (auto _ : state) {
    const std::size_t w = fed % kRxWindows;
    rx.process(cap.samples.data() + w * kRxWindowSamples, kRxWindowSamples);
    for (const auto& p : rx.packets()) decoded += p.packet == cap.truth[w];
    benchmark::DoNotOptimize(decoded);
    rx.clear_packets();
    ++fed;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRxWindowSamples));
  state.counters["packets"] = static_cast<double>(decoded);
  state.counters["packets_fed"] = static_cast<double>(fed);
}
BENCHMARK(BM_RxChainEndToEnd);

static void BM_KMeansIq(benchmark::State& state) {
  sim::Rng rng{7};
  std::vector<std::complex<double>> points;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 500; ++i) {
      points.emplace_back(c * 0.5 + rng.normal() * 0.02,
                          (c % 2) * 0.4 + rng.normal() * 0.02);
    }
  }
  for (auto _ : state) {
    sim::Rng krng{11};
    benchmark::DoNotOptimize(dsp::kmeans(points, 4, krng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_KMeansIq);

static void BM_CollisionDetector(benchmark::State& state) {
  sim::Rng rng{8};
  std::vector<std::complex<double>> points;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 1000; ++i) {
      points.emplace_back(1.0 + c * 0.3 + rng.normal() * 0.02,
                          rng.normal() * 0.02);
    }
  }
  for (auto _ : state) {
    sim::Rng crng{13};
    benchmark::DoNotOptimize(dsp::detect_collision_iq(points, crng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_CollisionDetector);

static void BM_RingBufferThroughput(benchmark::State& state) {
  dsp::RingBuffer<int> buf{1024};
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) buf.try_push(i);
    while (buf.try_pop()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_RingBufferThroughput);

static void BM_AdaptiveSlicer(benchmark::State& state) {
  dsp::AdaptiveSlicer slicer;
  sim::Rng rng{9};
  std::vector<double> env(8192);
  for (std::size_t i = 0; i < env.size(); ++i) {
    env[i] = ((i / 80) % 2 ? 0.1 : 0.0) + rng.normal() * 0.001;
  }
  for (auto _ : state) {
    bool acc = false;
    for (double e : env) acc ^= slicer.push(e);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.size()));
}
BENCHMARK(BM_AdaptiveSlicer);

#include "bench_gbench_main.hpp"
ARACHNET_GBENCH_MAIN("micro_dsp")
