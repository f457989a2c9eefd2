// fleet4x3: FleetEngine in waveform mode, 4 readers x 3 channels over 3
// shards. With fewer than 4 channels kAuto keeps the per-channel mixer
// bank, the other side of the bank-selection rule from fdma32_grid, and
// the BSP serial phases (bus commit, dedup, collect) run every epoch.
// Synthesis runs inside each shard, so the layer replay times it apart.
// Threads: coordinator (this thread, which paces the epochs) + 2 pool
// threads, all three DSP threads.

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <span>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/dsp/ddc.hpp"
#include "arachnet/fleet/fleet_engine.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/phy/subcarrier.hpp"
#include "arachnet/sim/rng.hpp"
#include "arachnet/telemetry/counting_alloc.hpp"
#include "ledger.hpp"

namespace ledger {
namespace {

namespace acoustic = arachnet::acoustic;
namespace dsp = arachnet::dsp;
namespace phy = arachnet::phy;
namespace telemetry = arachnet::telemetry;
using arachnet::fleet::FleetEngine;
using arachnet::reader::FdmaRxChain;
using arachnet::reader::RxPacket;

constexpr std::size_t kReaders = 4;
constexpr std::size_t kChannels = 3;
constexpr std::size_t kShards = 3;
constexpr std::size_t kTags = kReaders * kChannels;
constexpr double kEpochS = 0.25;  ///< DAQ per reader per epoch
constexpr double kRateX = 4.0;    ///< epochs due every 62.5 ms
constexpr double kPeriodNs = kEpochS / kRateX * 1e9;
/// The paced phase: two segments of 80 epochs, 1 920 packets in all.
constexpr int kSegments = 2;
constexpr double kSegmentS = 80 * kEpochS / kRateX;
/// Shard rounds per epoch: 4 shard tasks on a 3-wide pool.
constexpr double kRounds = (kReaders + kShards - 1) / kShards;

FleetEngine::Params fleet_params(std::uint64_t seed,
                                 telemetry::MetricsRegistry* metrics) {
  FleetEngine::Params p;
  p.mode = FleetEngine::Mode::kWaveform;
  p.readers = kReaders;
  p.shards = kShards;
  p.channels_per_reader = kChannels;
  p.epoch_duration_s = kEpochS;
  p.seed = seed;
  p.metrics = metrics;
  return p;
}

/// The bank each shard builds (FleetEngine's constructor, waveform mode).
FdmaRxChain::Params bank_params(const FleetEngine::Params& f) {
  FdmaRxChain::Params p;
  p.ddc.decimation = 8;
  p.workers = 1;
  for (std::size_t k = 0; k < f.channels_per_reader; ++k) {
    p.channels.push_back({f.subcarrier_origin_hz +
                          f.subcarrier_spacing_hz * static_cast<double>(k)});
  }
  return p;
}

/// The sources a shard synthesizes for one epoch (FleetEngine's waveform
/// step): channel k's tag sends payload (epoch & 0xFF) << 4 | k.
std::vector<acoustic::BackscatterSource> shard_sources(
    const FleetEngine::Params& f, int reader, std::uint64_t epoch) {
  std::vector<acoustic::BackscatterSource> srcs;
  for (std::size_t k = 0; k < f.channels_per_reader; ++k) {
    const phy::UlPacket pkt{
        .tid = static_cast<std::uint8_t>(k + 1),
        .payload = static_cast<std::uint16_t>(((epoch & 0xFF) << 4) |
                                              (k & 0xF))};
    phy::SubcarrierModulator mod{
        {phy::kDefaultUlRawBitRate,
         f.subcarrier_origin_hz +
             f.subcarrier_spacing_hz * static_cast<double>(k)}};
    acoustic::BackscatterSource s;
    s.chips = mod.modulate(phy::Fm0Encoder::encode_frame(pkt.serialize()));
    s.chip_rate = mod.subchip_rate();
    s.start_s = 0.02;
    s.amplitude = 0.12 + 0.01 * static_cast<double>(k % 5);
    s.phase_rad = 0.5 + 0.4 * static_cast<double>(k) +
                  0.3 * static_cast<double>(reader);
    srcs.push_back(std::move(s));
  }
  return srcs;
}

/// Constructs the engine and runs one warm-up epoch; `seconds` receives
/// the wall time (setup_s).
std::unique_ptr<FleetEngine> set_up(const FleetEngine::Params& params,
                                    double* seconds) {
  const std::uint64_t t0 = now_ns();
  auto fleet = std::make_unique<FleetEngine>(params);
  fleet->run_epochs(1);
  *seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return fleet;
}

/// Closed loop: epochs back to back for `seconds`. Returns DAQ-seconds /
/// wall-seconds / DSP threads over the fastest kRateWindowS stretch.
double burst(FleetEngine& fleet, double seconds, SpanLog* spans,
             Progress& progress) {
  constexpr auto kEpochSamples =
      static_cast<std::uint64_t>(kReaders * kEpochS * kSampleRate);
  progress.clear();
  progress.mark(0);
  const auto until = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t epochs = 1; now_ns() < until; ++epochs) {
    const std::uint32_t id =
        spans ? spans->begin("fleet.epoch", fleet.epoch()) : 0;
    fleet.run_epochs(1);
    if (spans) spans->end(id);
    progress.mark(epochs * kEpochSamples);
  }
  return progress.best_rate(kRateWindowS) / static_cast<double>(kShards);
}

struct PacedRun {
  std::uint64_t t0_ns = 0;
  std::uint64_t first_epoch = 0;
  std::uint64_t epochs = 0;
  std::size_t first_entry = 0;      ///< log size when the phase began
  std::vector<std::uint64_t> emit;  ///< emit time of log entries from there
  double serial_ms = 0.0;           ///< the first flush epoch's wall time
};

/// Open loop: epoch j is due (its last sample arrives) at t0 + (j + 1)
/// periods and runs then; packets land in the log one epoch later, and a
/// final flush() lands the last epoch's. `after_epoch(j)` runs after each.
template <typename AfterEpoch>
PacedRun pace(FleetEngine& fleet, double seconds, Paced& paced,
              SpanLog* spans, AfterEpoch&& after_epoch) {
  PacedRun run;
  run.epochs = static_cast<std::uint64_t>(
      std::max(1.0, std::round(seconds * 1e9 / kPeriodNs)));
  run.first_epoch = fleet.epoch();
  run.first_entry = fleet.packet_log().size();
  run.emit.reserve(kTags * (run.epochs + 2));
  paced.late_ms.reserve(paced.late_ms.size() + run.epochs);
  const auto stamp = [&] {
    const std::uint64_t t = now_ns();
    while (run.first_entry + run.emit.size() < fleet.packet_log().size()) {
      run.emit.push_back(t);
    }
  };
  run.t0_ns = now_ns() + 1000000;
  telemetry::CountingAllocatorGuard guard;
  for (std::uint64_t j = 0; j < run.epochs; ++j) {
    const std::uint64_t due =
        run.t0_ns + static_cast<std::uint64_t>((j + 1) * kPeriodNs);
    spin_until_ns(due);
    paced.late_ms.push_back(
        static_cast<double>(static_cast<std::int64_t>(now_ns() - due)) * 1e-6);
    const std::uint32_t id =
        spans ? spans->begin("fleet.epoch", fleet.epoch()) : 0;
    fleet.run_epochs(1);
    if (spans) spans->end(id);
    stamp();
    after_epoch(j);
  }
  // The engine synthesizes and collects with per-epoch vectors, so this
  // count is the fleet's own (the bench allocates nothing above).
  paced.steady_allocs = static_cast<std::int64_t>(guard.allocations());
  const std::uint64_t t_flush = now_ns();
  const std::uint32_t id =
      spans ? spans->begin("fleet.flush", fleet.epoch()) : 0;
  fleet.flush(1);
  if (spans) spans->end(id);
  run.serial_ms = static_cast<double>(now_ns() - t_flush) * 1e-6;
  stamp();
  fleet.flush(1);
  stamp();
  return run;
}

/// Checks every log entry against the tags' schedule and records the
/// latency of each delivery in the paced epochs: emit time minus the due
/// time of its epoch's last sample.
void score(const FleetEngine& fleet, const PacedRun& run, Paced& paced) {
  const auto& log = fleet.packet_log();
  std::vector<bool> seen((fleet.epoch() + 1) * kTags, false);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& p = log[i];
    const std::uint64_t tx = p.epoch - 1;  // logged one epoch after decode
    const std::uint32_t k = p.tag % kChannels;
    const bool ok =
        p.epoch >= 1 && p.tag < kTags && !p.overheard &&
        p.reader == static_cast<int>(p.tag / kChannels) &&
        p.slot == static_cast<std::int64_t>(((tx & 0xFF) << 4) | k);
    const std::uint64_t key = tx * kTags + p.tag;
    if (!ok || key >= seen.size() || seen[key]) {
      ++paced.spurious;
      continue;
    }
    seen[key] = true;
    if (tx < run.first_epoch || tx >= run.first_epoch + run.epochs ||
        i < run.first_entry) {
      continue;
    }
    ++paced.delivered;
    const std::uint64_t due =
        run.t0_ns + static_cast<std::uint64_t>(
                        static_cast<double>(tx - run.first_epoch + 1) *
                        kPeriodNs);
    paced.latency_ms.push_back(
        static_cast<double>(
            static_cast<std::int64_t>(run.emit[i - run.first_entry] - due)) *
        1e-6);
  }
  paced.transmitted += run.epochs * kTags;
}

/// Bus messages published in the phase; failures are bus drops
/// (displacement and TTL expiry).
void count_ops(const FleetEngine::Stats& before,
               const FleetEngine::Stats& after, Paced& paced) {
  paced.attempted += after.bus.published - before.bus.published;
  paced.failed += (after.bus.displaced - before.bus.displaced) +
                  (after.bus.expired - before.bus.expired);
}

void check_bank(std::uint64_t seed, Outcome& out) {
  const FdmaRxChain probe{bank_params(fleet_params(seed, nullptr))};
  out.expect(probe.active_bank() == FdmaRxChain::BankPolicy::kPerChannel,
             "fleet4x3: kAuto left the per-channel bank");
}

Outcome run_untraced(const Options& opt) {
  const Plan plan = make_plan(opt, kSegments, kSegmentS);
  Outcome out;
  const auto params = fleet_params(opt.seed, nullptr);
  const auto build = [&](double* seconds) { return set_up(params, seconds); };
  Progress progress;
  Paced paced;
  const Untraced u = run_untraced_plan(
      plan, build,
      [&](FleetEngine& fleet) {
        return burst(fleet, plan.burst_s, nullptr, progress);
      },
      [&](std::unique_ptr<FleetEngine> fleet) {
        const auto before = fleet->stats();
        const PacedRun run =
            pace(*fleet, plan.segment_s, paced, nullptr, [](std::uint64_t) {});
        const auto after = fleet->stats();
        score(*fleet, run, paced);
        count_ops(before, after, paced);
      },
      out);
  u.report(out);
  paced.report(out, opt);
  check_bank(opt.seed, out);
  return out;
}

/// A shard's layers as standalone public objects, one set per reader: the
/// synthesizer, the bank's main DDC (documented passband) and the whole
/// per-channel bank. feed(r) runs reader r's next epoch through them.
class ShardReplay {
 public:
  ShardReplay(const FleetEngine::Params& f, SpanLog& spans)
      : f_(f), spans_(spans) {
    const auto bp = bank_params(f);
    dsp::Ddc::Params dp = bp.ddc;
    dp.cutoff_hz = bp.channels.back().subcarrier_hz + 3.0 * bp.chip_rate;
    dp.kernels = bp.kernels;
    const arachnet::sim::Rng master{f.seed};
    for (std::size_t r = 0; r < kReaders; ++r) {
      // Shard holds a pinned FdmaRxChain: construct it in place.
      shards_.emplace_back(new Shard{acoustic::UplinkWaveformSynth{f.synth},
                                     master.split(r), dsp::Ddc{dp},
                                     FdmaRxChain{bp}});
    }
  }

  bool per_channel() const {
    return std::all_of(shards_.begin(), shards_.end(), [](const auto& s) {
      return s->bank.active_bank() == FdmaRxChain::BankPolicy::kPerChannel;
    });
  }

  /// The bank runs right after the synthesizer, as in the engine's shard
  /// step. The standalone DDC runs after it, on every kFrontEndEvery-th
  /// timed epoch only: its 2 MB of scratch evicts the next shard's state.
  void feed(std::size_t r, bool timed) {
    Shard& s = *shards_[r];
    if (timed && timed_epochs_++ == 0) at_first_ = counters();
    const bool front = timed && (timed_epochs_ - 1) % kFrontEndEvery == 0;
    const std::uint64_t id = s.epoch * kReaders + r;
    const std::uint32_t parent = timed ? spans_.begin("replay.shard", id) : 0;
    std::uint32_t span = timed ? spans_.begin("acoustic.synth", id, parent) : 0;
    const auto wave =
        s.synth.synthesize(shard_sources(f_, static_cast<int>(r), s.epoch++),
                           f_.epoch_duration_s, s.rng);
    spans_.end(span);
    const std::uint32_t bank =
        timed ? spans_.begin("reader.fdma", id, parent) : 0;
    s.bank.process(wave);
    s.bank.drain_packets(drained_);
    spans_.end(bank);
    if (timed) {
      shard_ms_.push_back(
          (spans_.duration_ns(span) + spans_.duration_ns(bank)) * 1e-6);
    }
    if (front) {
      front_bank_ns_ += spans_.duration_ns(bank);
      span = spans_.begin("dsp.ddc", id, parent);
      iq_.clear();
      s.ddc.process(std::span<const double>{wave}, iq_);
      spans_.end(span);
    }
    spans_.end(parent);
    if (timed) samples_ += static_cast<double>(wave.size());
  }

  /// Wall time of one replayed shard epoch (synthesis + bank), the fastest
  /// tenth. The engine hands its 4 shard tasks to whichever of its 3
  /// threads is free, so its epoch follows the threads that run fastest at
  /// the time; the replay runs on the coordinator alone, and on a shared
  /// host its core is at times the slowest, in some runs for most epochs.
  double shard_ms() const { return quantile(shard_ms_, 0.1); }

  ReplayCost cost() const {
    ReplayCost c = counters();
    c.bits -= at_first_.bits;
    c.frames_ok -= at_first_.frames_ok;
    c.crc_failures -= at_first_.crc_failures;
    c.samples = samples_;
    c.synth_ns = spans_.total_ns("acoustic.synth");
    c.chain_ns = spans_.total_ns("reader.fdma");
    const double front = static_cast<double>(
        spans_.durations_us("dsp.ddc").size());
    if (front > 0.0) {
      // Scale the DDC's subset to every timed epoch.
      const double scale = static_cast<double>(timed_epochs_) / front;
      c.ddc_ns = spans_.total_ns("dsp.ddc") * scale;
      c.lane_ns = (front_bank_ns_ - spans_.total_ns("dsp.ddc")) * scale;
    }
    return c;
  }

 private:
  struct Shard {
    acoustic::UplinkWaveformSynth synth;
    arachnet::sim::Rng rng;
    dsp::Ddc ddc;
    FdmaRxChain bank;
    std::uint64_t epoch = 0;
  };

  ReplayCost counters() const {
    ReplayCost c;
    for (const auto& s : shards_) {
      for (const auto& ch : s->bank.all_channel_stats()) {
        c.bits += ch.bits;
        c.frames_ok += ch.frames_ok;
        c.crc_failures += ch.crc_failures;
      }
    }
    return c;
  }

  FleetEngine::Params f_;
  SpanLog& spans_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::complex<double>> iq_;
  std::vector<RxPacket> drained_;
  std::uint64_t timed_epochs_ = 0;
  std::vector<double> shard_ms_;
  double front_bank_ns_ = 0.0;  ///< bank time of the DDC-timed epochs
  double samples_ = 0.0;
  ReplayCost at_first_;
};

Outcome run_traced(const Options& opt) {
  pin_to_fastest_cores(kShards);  // the coordinator is one of the shards
  const Plan plan = make_plan(opt, kSegments, kSegmentS);
  Outcome out;
  telemetry::MetricsRegistry registry;
  const auto params = fleet_params(opt.seed, &registry);
  SpanLog gen_spans{
      static_cast<std::size_t>(plan.paced_s() * 1e9 / kPeriodNs) + 16, 0};
  SpanLog replay_spans{gen_spans.spans().capacity() * 4, 1};
  ShardReplay replay{params, replay_spans};
  for (std::size_t r = 0; r < kReaders; ++r) replay.feed(r, false);
  double setup_s = 0.0;
  auto fleet = set_up(params, &setup_s);
  const auto before = fleet->stats();
  Paced paced;
  // After each epoch one reader's shard epoch is replayed (the readers in
  // turn), right beside the engine's own epochs, never concurrently, and
  // its allocations are not the engine's.
  std::int64_t replay_allocs = 0;
  const PacedRun run =
      pace(*fleet, plan.paced_s(), paced, &gen_spans, [&](std::uint64_t j) {
        replay_allocs +=
            allocations_of([&] { replay.feed(j % kReaders, true); });
      });
  paced.steady_allocs -= replay_allocs;
  const auto after = fleet->stats();
  score(*fleet, run, paced);
  count_ops(before, after, paced);
  fleet.reset();
  paced.report(out, opt);
  check_bank(opt.seed, out);

  auto epoch_ms = gen_spans.durations_us("fleet.epoch");
  for (auto& v : epoch_ms) v *= 1e-3;
  out.add("fleet.epoch_ms.p50", quantile(epoch_ms, 0.50), "ms");
  out.add("fleet.epoch_ms.p99", quantile(epoch_ms, 0.99), "ms");
  out.add("fleet.bus.delivered",
          static_cast<double>(after.bus.delivered - before.bus.delivered),
          "count");
  out.add("fleet.bus.dropped", static_cast<double>(paced.failed), "count");
  out.add("fleet.dup_suppressed",
          static_cast<double>(after.dup_suppressed - before.dup_suppressed),
          "count");

  out.expect(replay.per_channel(),
             "fleet4x3: the replay bank left the per-channel path");
  const ReplayCost cost = replay.cost();
  const double shard_ms = replay.shard_ms();
  const double ddc = cost.per_sample(cost.ddc_ns);
  const double bank = cost.per_sample(cost.chain_ns);
  out.add("acoustic.synth.ns_per_sample", cost.per_sample(cost.synth_ns),
          "ns");
  out.add("dsp.ddc.ns_per_sample", ddc, "ns");
  const double lane = cost.per_sample(cost.lane_ns);
  out.add("reader.fdma.ns_per_sample", bank, "ns");
  out.add("reader.fdma.lane_decode.ns_per_sample", lane, "ns");
  out.add("reader.fdma.frontend_share",
          ddc + lane > 0.0 ? ddc / (ddc + lane) : 0.0, "fraction");
  out.add("fleet.shard_ms", shard_ms, "ms");
  out.add("fleet.serial_ms", run.serial_ms, "ms");
  cost.report_counters(out);
  // Layers: the shard rounds of the parallel phase plus the serial phases
  // (timed on their own as the first flush epoch) against the epoch, both
  // as their fastest tenth (see shard_ms()).
  const double epoch_p10 = quantile(epoch_ms, 0.10);
  out.add("bench.layer_sum_ratio",
          epoch_p10 > 0 ? (kRounds * shard_ms + run.serial_ms) / epoch_p10
                        : 0.0,
          "fraction");
  SpanLog burst_spans{1 << 14, 9};
  Progress progress;
  out.add("bench.trace_overhead_pct",
          trace_overhead_pct(plan,
                             [&](telemetry::MetricsRegistry* registry) {
                               double s = 0.0;
                               auto fleet =
                                   set_up(fleet_params(opt.seed, registry), &s);
                               return burst(*fleet, plan.overhead_burst_s,
                                            registry ? &burst_spans : nullptr,
                                            progress);
                             }),
          "%");
  save_trace(opt, {&gen_spans, &replay_spans}, out);
  return out;
}

}  // namespace

Outcome run_fleet4x3(const Options& opt) {
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}

}  // namespace ledger
