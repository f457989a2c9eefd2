// Extension experiments (paper Sec. 6.3 / Sec. 2.2 future work):
//  1. FDMA subcarriers — two tags decoded in the same slot, doubling
//     aggregate throughput.
//  2. 4-PAM higher-order modulation — 2 bits/symbol vs FM0's 0.5
//     bits/chip, with the SNR cost quantified as BER vs noise.
//  3. Ambient-vibration harvesting — charging-time improvement across
//     drive states for the weakest tag.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>
#include <thread>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/energy/ambient.hpp"
#include "arachnet/energy/harvester.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/pam4.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/reader/fdma_rx.hpp"
#include "arachnet/reader/pam4_rx.hpp"
#include "arachnet/reader/rx_chain.hpp"
#include "arachnet/sim/stats.hpp"
#include "arachnet/telemetry/counting_alloc.hpp"

#include "bench_report.hpp"

using namespace arachnet;

namespace {

// Runs one FDMA bank over pre-rendered DAQ blocks; returns wall seconds
// and fills `latency_ms` with per-block processing latencies.
double run_bank(reader::FdmaRxChain& bank,
                const std::vector<std::vector<double>>& blocks,
                sim::Histogram* latency_ms) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  for (const auto& block : blocks) {
    const auto b0 = clock::now();
    bank.process(block);
    if (latency_ms) {
      latency_ms->add(
          std::chrono::duration<double, std::milli>(clock::now() - b0)
              .count());
    }
  }
  return std::chrono::duration<double>(clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  // --channels=4,8,16 selects the bank sizes for the channelizer-scaling
  // section below (default 4,8,16,32).
  std::vector<int> channel_counts{4, 8, 16, 32};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--channels=", 0) == 0) {
      channel_counts.clear();
      std::size_t pos = std::string{"--channels="}.size();
      while (pos < arg.size()) {
        const std::size_t comma = arg.find(',', pos);
        const std::size_t end = comma == std::string::npos ? arg.size()
                                                           : comma;
        channel_counts.push_back(std::stoi(arg.substr(pos, end - pos)));
        pos = end + 1;
      }
    }
  }
  arachnet::bench::Report report{"ext_throughput"};
  // ---------------------------------------------------------------- FDMA
  std::printf("=== Extension 1: FDMA Subcarrier Backscatter ===\n\n");
  {
    sim::Rng rng{21};
    acoustic::UplinkWaveformSynth synth{
        acoustic::UplinkWaveformSynth::Params{}};
    reader::FdmaRxChain::Params fp;
    fp.channels = {{3000.0}, {6000.0}};
    reader::FdmaRxChain fdma{fp};
    const int rounds = 20;
    int delivered = 0;
    for (int i = 0; i < rounds; ++i) {
      std::vector<acoustic::BackscatterSource> srcs;
      int k = 0;
      for (double fsc : {3000.0, 6000.0}) {
        const phy::UlPacket pkt{
            .tid = static_cast<std::uint8_t>(k + 1),
            .payload = static_cast<std::uint16_t>(0x300 + i)};
        phy::SubcarrierModulator mod{{375.0, fsc}};
        acoustic::BackscatterSource s;
        s.chips =
            mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
        s.chip_rate = mod.subchip_rate();
        s.start_s = 0.03;
        s.amplitude = k == 0 ? 0.2 : 0.15;
        s.phase_rad = 0.8 + k;
        srcs.push_back(s);
        ++k;
      }
      fdma.clear_packets();
      fdma.process(synth.synthesize(srcs, 0.3, rng));
      for (std::size_t c = 0; c < 2; ++c) {
        for (const auto& p : fdma.packets(c)) {
          if (p.payload == 0x300 + i) ++delivered;
        }
      }
    }
    std::printf("two tags per slot, %d slots: %d/%d packets delivered\n",
                rounds, delivered, 2 * rounds);
    std::printf("aggregate throughput: %.1fx the single-tag TDMA slot\n",
                delivered / static_cast<double>(rounds));
    report.counter("fdma.delivered", static_cast<std::uint64_t>(delivered));
    report.metric("fdma.throughput_x",
                  delivered / static_cast<double>(rounds));
    std::printf("(baseline ARACHNET decodes at most 1 packet per slot)\n\n");
  }

  // ------------------------------------------- FDMA bank parallel scaling
  std::printf("=== Extension 1b: FDMA Bank Parallel Scaling ===\n\n");
  {
    // 8 tags on 8 subcarriers, decoded by the sequential bank (workers=1)
    // and the worker-pool bank (one task per channel per block).
    constexpr int kChannels = 8;
    const auto make_params = [&](std::size_t workers) {
      reader::FdmaRxChain::Params fp;
      fp.ddc.decimation = 8;  // 62.5 kS/s IQ rate fits 8 subcarriers
      fp.workers = workers;
      for (int k = 0; k < kChannels; ++k) {
        fp.channels.push_back({3000.0 + 1500.0 * k});
      }
      return fp;
    };

    // Render ~1.8 s of 500 kS/s DAQ input (6 windows of 0.3 s, all 8 tags
    // replying in every window), split into 25 ms blocks.
    sim::Rng rng{77};
    acoustic::UplinkWaveformSynth synth{
        acoustic::UplinkWaveformSynth::Params{}};
    std::vector<std::vector<double>> blocks;
    std::size_t total_samples = 0;
    for (int round = 0; round < 6; ++round) {
      std::vector<acoustic::BackscatterSource> srcs;
      for (int k = 0; k < kChannels; ++k) {
        const phy::UlPacket pkt{
            .tid = static_cast<std::uint8_t>(k + 1),
            .payload = static_cast<std::uint16_t>(0x800 + 16 * round + k)};
        phy::SubcarrierModulator mod{{375.0, 3000.0 + 1500.0 * k}};
        acoustic::BackscatterSource s;
        s.chips =
            mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
        s.chip_rate = mod.subchip_rate();
        s.start_s = 0.03;
        s.amplitude = 0.12 + 0.01 * (k % 5);
        s.phase_rad = 0.5 + 0.4 * k;
        srcs.push_back(s);
      }
      const auto wave = synth.synthesize(srcs, 0.3, rng);
      constexpr std::size_t kBlock = 12500;  // 25 ms of DAQ
      for (std::size_t off = 0; off < wave.size(); off += kBlock) {
        const std::size_t len = std::min(kBlock, wave.size() - off);
        blocks.emplace_back(wave.begin() + off, wave.begin() + off + len);
        total_samples += len;
      }
    }

    reader::FdmaRxChain seq_bank{make_params(1)};
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    reader::FdmaRxChain par_bank{make_params(0)};  // auto: one per core

    const double seq_s = run_bank(seq_bank, blocks, nullptr);
    sim::Histogram latency{0.0, 50.0, 10};
    const double par_s = run_bank(par_bank, blocks, &latency);

    std::size_t seq_pkts = 0, par_pkts = 0;
    for (int c = 0; c < kChannels; ++c) {
      seq_pkts += seq_bank.packets(static_cast<std::size_t>(c)).size();
      par_pkts += par_bank.packets(static_cast<std::size_t>(c)).size();
    }
    const double rate = 500e3;
    std::printf("%d channels, %.1f s of DAQ input (%zu samples), %zu-core "
                "host\n",
                kChannels, static_cast<double>(total_samples) / rate,
                total_samples, hw);
    std::printf("%-22s %12s %14s %10s\n", "bank", "wall (s)", "samples/s",
                "packets");
    std::printf("%-22s %12.3f %14.0f %10zu\n", "sequential (1 worker)",
                seq_s, total_samples / seq_s, seq_pkts);
    char par_label[32];
    std::snprintf(par_label, sizeof(par_label), "parallel (%zu workers)",
                  par_bank.worker_count());
    std::printf("%-22s %12.3f %14.0f %10zu\n", par_label, par_s,
                total_samples / par_s, par_pkts);
    std::printf("parallel speedup: %.2fx (parity: packets %s)\n\n",
                seq_s / par_s, seq_pkts == par_pkts ? "equal" : "DIFFER");
    report.metric("bank.sequential_s", seq_s, "s");
    report.metric("bank.parallel_s", par_s, "s");
    report.metric("bank.speedup_x", seq_s / par_s);
    report.counter("bank.sequential_packets", seq_pkts);
    report.counter("bank.parallel_packets", par_pkts);
    report.histogram("bank.parallel_block_latency_ms", latency, "ms");

    arachnet::bench::print_histogram(latency, "parallel per-block latency");

    std::printf("\nper-channel decode counters (parallel bank):\n");
    std::printf("%8s %12s %10s %10s %8s\n", "f_sc", "iq samples", "bits",
                "frames", "crc-err");
    char name[48];
    for (const auto& ch : par_bank.all_channel_stats()) {
      std::printf("%7.0f%s %12llu %10llu %10llu %8llu\n",
                  ch.subcarrier_hz, "",
                  static_cast<unsigned long long>(ch.iq_samples),
                  static_cast<unsigned long long>(ch.bits),
                  static_cast<unsigned long long>(ch.frames_ok),
                  static_cast<unsigned long long>(ch.crc_failures));
      std::snprintf(name, sizeof(name), "bank.f%.0f.frames_ok",
                    ch.subcarrier_hz);
      report.counter(name, static_cast<std::uint64_t>(ch.frames_ok));
      std::snprintf(name, sizeof(name), "bank.f%.0f.crc_failures",
                    ch.subcarrier_hz);
      report.counter(name, static_cast<std::uint64_t>(ch.crc_failures));
    }
    std::printf("\n");
  }

  // ------------------------------- FDMA bank policy scaling (channelizer)
  std::printf("=== Extension 1c: FDMA Channelizer Bank Scaling ===\n\n");
  {
    using Bank = reader::FdmaRxChain::BankPolicy;
    using Fold = dsp::PolyphaseChannelizer::Params::Fold;
    std::printf("%9s %17s %19s %9s %7s %12s %12s %9s\n", "channels",
                "per-chan (MS/s)", "channelizer (MS/s)", "speedup", "parity",
                "f64 (MS/s)", "f32 (MS/s)", "f32 gain");
    for (int n : channel_counts) {
      // Uniform grid from 3375 Hz: odd subcarrier harmonics land 750 Hz
      // off-channel, so decode success does not depend on which bank's
      // filter shape swallows a co-channel harmonic.
      std::vector<double> freqs;
      for (int k = 0; k < n; ++k) freqs.push_back(3375.0 + 1500.0 * k);
      sim::Rng rng{101};
      acoustic::UplinkWaveformSynth synth{
          acoustic::UplinkWaveformSynth::Params{}};
      std::vector<acoustic::BackscatterSource> srcs;
      for (int k = 0; k < n; ++k) {
        const phy::UlPacket pkt{
            .tid = static_cast<std::uint8_t>(k + 1),
            .payload = static_cast<std::uint16_t>(0x500 + k)};
        phy::SubcarrierModulator mod{{375.0, freqs[static_cast<std::size_t>(k)]}};
        acoustic::BackscatterSource s;
        s.chips =
            mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
        s.chip_rate = mod.subchip_rate();
        s.start_s = 0.03;
        s.amplitude = 0.18 + 0.01 * (k % 5);
        s.phase_rad = 0.5 + 0.4 * k;
        srcs.push_back(s);
      }
      const auto wave = synth.synthesize(srcs, 0.3, rng);
      const auto make = [&](Bank bank, Fold fold) {
        reader::FdmaRxChain::Params fp;
        // 32 channels top out near 50 kHz and need the 125 kS/s
        // (decimation-4) IQ rate; up to 16 fit the usual 62.5 kS/s bank.
        fp.ddc.decimation = n > 16 ? 4 : 8;
        fp.workers = 1;  // the bank DSP itself, not the thread pool
        fp.bank = bank;
        fp.chzr_fold = fold;
        for (double hz : freqs) fp.channels.push_back({hz});
        return fp;
      };
      reader::FdmaRxChain pc_bank{make(Bank::kPerChannel, Fold::kAuto)};
      // The default channelizer rides the float32 fast path; pinning the
      // fold to float64 keeps the same bank structure, so the delta is
      // purely the single-precision frontend (gated >= 1.3x at 16/32
      // channels by ci/perf_gate.rules).
      reader::FdmaRxChain cz_bank{make(Bank::kChannelizer, Fold::kAuto)};
      reader::FdmaRxChain f64_bank{make(Bank::kChannelizer, Fold::kFloat64)};
      const int reps = n >= 32 ? 1 : 3;
      const std::vector<std::vector<double>> blocks(
          static_cast<std::size_t>(reps), wave);
      const double pc_s = run_bank(pc_bank, blocks, nullptr);
      const double cz_s = run_bank(cz_bank, blocks, nullptr);
      const double f64_s = run_bank(f64_bank, blocks, nullptr);
      bool parity = cz_bank.active_bank() == Bank::kChannelizer;
      for (std::size_t c = 0; c < pc_bank.channel_count(); ++c) {
        parity = parity && pc_bank.packets(c) == cz_bank.packets(c);
      }
      // The float32 fold must keep the kSimd packet contract: identical
      // packet sets against the float64 fold on every channel.
      bool f32_parity = f64_bank.active_bank() == Bank::kChannelizer;
      for (std::size_t c = 0; c < f64_bank.channel_count(); ++c) {
        f32_parity = f32_parity && f64_bank.packets(c) == cz_bank.packets(c);
      }
      const double total =
          static_cast<double>(wave.size()) * static_cast<double>(reps);
      std::printf("%9d %17.2f %19.2f %8.2fx %7s %12.2f %12.2f %8.2fx\n", n,
                  total / pc_s / 1e6, total / cz_s / 1e6, pc_s / cz_s,
                  parity && f32_parity ? "ok" : "DIFFER",
                  total / f64_s / 1e6, total / cz_s / 1e6, f64_s / cz_s);
      char name[64];
      std::snprintf(name, sizeof(name),
                    "fdma.bank.%d.per_channel_samples_per_s", n);
      report.metric(name, total / pc_s, "S/s");
      std::snprintf(name, sizeof(name),
                    "fdma.bank.%d.channelizer_samples_per_s", n);
      report.metric(name, total / cz_s, "S/s");
      std::snprintf(name, sizeof(name), "fdma.bank.%d.speedup_x", n);
      report.metric(name, pc_s / cz_s);
      std::snprintf(name, sizeof(name), "fdma.bank.%d.parity", n);
      report.counter(name, parity ? 1u : 0u);
      std::snprintf(name, sizeof(name), "fdma.bank.%d.channelized", n);
      report.counter(name,
                     cz_bank.active_bank() == Bank::kChannelizer ? 1u : 0u);
      std::snprintf(name, sizeof(name),
                    "fdma.bank.%d.chzr_f64_samples_per_s", n);
      report.metric(name, total / f64_s, "S/s");
      std::snprintf(name, sizeof(name),
                    "fdma.bank.%d.chzr_f32_samples_per_s", n);
      report.metric(name, total / cz_s, "S/s");
      std::snprintf(name, sizeof(name), "fdma.bank.%d.chzr_f32_speedup_x",
                    n);
      report.metric(name, f64_s / cz_s);
      std::snprintf(name, sizeof(name), "fdma.bank.%d.chzr_f32_parity", n);
      report.counter(name, f32_parity ? 1u : 0u);
    }
    std::printf("\n");
  }

  // --------------------------------------------- steady-state allocation
  std::printf("=== Extension 1d: Steady-State Allocation Audit ===\n\n");
  {
    // The allocation-free contract on the hot decode loop (DESIGN.md
    // Sec. 11): after one warm-up pass over the capture, re-processing
    // the identical block schedule must not touch the heap at all.
    // Gated == 0 by ci/perf_gate.rules.
    reader::FdmaRxChain::Params fp;
    fp.ddc.decimation = 8;
    fp.workers = 1;
    fp.bank = reader::FdmaRxChain::BankPolicy::kChannelizer;
    for (int k = 0; k < 4; ++k) fp.channels.push_back({3375.0 + 1500.0 * k});
    reader::FdmaRxChain chain{fp};
    sim::Rng rng{101};
    acoustic::UplinkWaveformSynth synth{
        acoustic::UplinkWaveformSynth::Params{}};
    std::vector<acoustic::BackscatterSource> srcs;
    for (int k = 0; k < 4; ++k) {
      const phy::UlPacket pkt{.tid = static_cast<std::uint8_t>(k + 1),
                              .payload =
                                  static_cast<std::uint16_t>(0x500 + k)};
      phy::SubcarrierModulator mod{{375.0, 3375.0 + 1500.0 * k}};
      acoustic::BackscatterSource s;
      s.chips =
          mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
      s.chip_rate = mod.subchip_rate();
      s.start_s = 0.03;
      s.amplitude = 0.18 + 0.01 * k;
      s.phase_rad = 0.5 + 0.4 * k;
      srcs.push_back(s);
    }
    const auto wave = synth.synthesize(srcs, 0.3, rng);
    constexpr std::size_t kBlock = 10000;  // 20 ms DAQ blocks
    std::vector<reader::RxPacket> drained;
    const auto pass = [&]() {
      std::size_t packets = 0;
      for (std::size_t off = 0; off < wave.size(); off += kBlock) {
        chain.process(wave.data() + off,
                      std::min(kBlock, wave.size() - off));
        packets += chain.drain_packets(drained);
      }
      return packets;
    };
    telemetry::CountingAllocatorGuard warm_guard;
    const std::size_t warm_packets = pass();
    const std::uint64_t warmup_count = warm_guard.allocations();
    telemetry::CountingAllocatorGuard steady_guard;
    const std::size_t steady_packets = pass();
    const std::uint64_t steady_count = steady_guard.allocations();
    std::printf("4-channel channelizer bank, %zu-sample blocks:\n", kBlock);
    std::printf("  warm-up pass       %6llu allocations (%zu packets)\n",
                static_cast<unsigned long long>(warmup_count),
                warm_packets);
    std::printf("  steady-state pass  %6llu allocations (%zu packets)\n\n",
                static_cast<unsigned long long>(steady_count),
                steady_packets);
    report.counter("alloc.warmup_count", warmup_count);
    report.counter("alloc.steady_state_count", steady_count);
    report.counter("alloc.steady_state_packets",
                   static_cast<std::uint64_t>(steady_packets));
  }

  // ---------------------------------------------------------------- PAM4
  std::printf("=== Extension 2: 4-PAM Higher-Order Modulation ===\n\n");
  {
    const phy::Pam4 pam;
    // Line efficiency.
    phy::BitVector sample;
    for (int i = 0; i < 32; ++i) sample.push_back(i % 3 == 0);
    const double fm0_intervals =
        static_cast<double>(phy::Fm0Encoder::encode(sample).size());
    const double pam_intervals =
        static_cast<double>(pam.encode_frame(sample).size());
    std::printf("32 payload bits: FM0 %.0f line intervals, PAM-4 %.0f "
                "(incl. %d training)\n",
                fm0_intervals, pam_intervals, phy::Pam4::kTrainingSymbols);
    std::printf("net speedup at equal symbol rate: %.2fx\n\n",
                fm0_intervals / pam_intervals);

    // BER vs channel noise for both schemes, same link amplitude.
    std::printf("%-14s %14s %14s %18s\n", "noise sigma", "FM0 pkt loss",
                "PAM-4 BER", "PAM-4 pkt est.");
    for (double sigma : {0.004, 0.008, 0.012, 0.016, 0.024}) {
      sim::Rng rng{31};
      acoustic::UplinkWaveformSynth::Params wp;
      wp.noise_sigma = sigma;
      // FM0 packet loss.
      acoustic::UplinkWaveformSynth synth_fm0{wp};
      reader::RxChain rx{reader::RxChain::Params{}};
      rx.process(synth_fm0.synthesize({}, 0.05, rng));
      int fm0_lost = 0;
      const int fm0_rounds = 25;
      for (int i = 0; i < fm0_rounds; ++i) {
        const phy::UlPacket pkt{.tid = 1,
                                .payload = static_cast<std::uint16_t>(i)};
        acoustic::BackscatterSource s;
        s.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
        s.chip_rate = 375.0;
        s.start_s = 0.02;
        s.amplitude = 0.013;  // tag-11-class link
        s.phase_rad = 1.0;
        rx.clear_packets();
        rx.process(synth_fm0.synthesize({s}, 0.28, rng));
        bool got = false;
        for (const auto& p : rx.packets()) got |= (p.packet == pkt);
        fm0_lost += got ? 0 : 1;
      }
      // PAM-4 bit errors.
      acoustic::UplinkWaveformSynth synth_pam{wp};
      reader::Pam4Receiver::Params rp;
      rp.symbol_rate = 375.0;
      const reader::Pam4Receiver prx{rp};
      int bit_errors = 0, bits_total = 0;
      sim::Rng drng{7};
      for (int i = 0; i < 25; ++i) {
        phy::BitVector data;
        for (int b = 0; b < 64; ++b) data.push_back(drng.bernoulli(0.5));
        acoustic::BackscatterSource s;
        s.levels = pam.encode_frame(data);
        s.chip_rate = 375.0;
        s.start_s = 0.05;
        s.amplitude = 0.013;  // tag-11-class link
        s.phase_rad = 1.0;
        const auto wave = synth_pam.synthesize(
            {s}, 0.05 + s.levels.size() / 375.0 + 0.05, rng);
        const auto decoded = prx.decode(wave, 0.05, data.size());
        bits_total += static_cast<int>(data.size());
        if (!decoded) {
          bit_errors += static_cast<int>(data.size());
          continue;
        }
        for (std::size_t b = 0; b < data.size(); ++b) {
          bit_errors += (*decoded)[b] != data[b];
        }
      }
      const double ber = static_cast<double>(bit_errors) / bits_total;
      std::printf("%-14.3f %11d/%d %14.4f %17.2f%%\n", sigma, fm0_lost,
                  fm0_rounds, ber,
                  100.0 * (1.0 - std::pow(1.0 - ber, 32.0)));
    }
    std::printf("\nnote: the PAM-4 receiver here is measurement-grade (known\n"
                "symbol timing, coherent per-symbol averaging), so its\n"
                "absolute numbers flatter it; the structural cost is the 3x\n"
                "smaller decision distance, visible as nonzero BER while the\n"
                "equally-loud OOK link is still clean. PAM-4 buys ~2x line\n"
                "rate on strong links; weak BiW links keep conservative\n"
                "rates, matching the paper's design choice.\n\n");
  }

  // -------------------------------------------------------------- Ambient
  std::printf("=== Extension 3: Ambient-Vibration Harvesting ===\n\n");
  {
    const energy::AmbientVibrationSource ambient;
    std::printf("%-10s %14s %18s %18s\n", "state", "harvest (uA)",
                "tag-11 charge (s)", "tag-4 charge (s)");
    for (auto state :
         {energy::DriveState::kParked, energy::DriveState::kIdle,
          energy::DriveState::kCity, energy::DriveState::kHighway}) {
      std::printf("%-10s %14.1f", std::string(to_string(state)).c_str(),
                  ambient.current(state) * 1e6);
      for (double vp : {0.303, 0.513}) {  // tag 11, tag 4 links
        energy::Harvester h{energy::Harvester::Params{}};
        h.set_pzt_peak_voltage(vp);
        h.set_ambient_current(ambient.current(state));
        std::printf(" %18.1f", h.charge_time(0.0, 2.306));
      }
      std::printf("\n");
    }
    std::printf("\ndriving vibration (< 0.1 kHz) is out of band for the\n"
                "90 kHz link (paper Sec. 2.2), so it can only help: at\n"
                "highway speeds the weakest tag charges ~1.5x faster, and\n"
                "an already-charged tag stays powered through IDLE with\n"
                "the reader off entirely (15 uA harvest vs 3.8 uA draw).\n");
  }
  return 0;
}
