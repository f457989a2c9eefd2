// RealtimeReader workloads. single_375 is the paper's Sec. 6.1 path: one
// 375 bps tag through the single chain. fdma32_grid runs the 32-lane
// channelizer bank with two DSP threads (reader worker + one pool thread).
//
// Threads, untraced: generator (this thread), reader worker, wait_packet
// consumer, plus the bank's pool thread on fdma32_grid. Traced, the
// generator polls the output itself and the consumer's slot goes to the
// replay bank's pool thread on fdma32_grid.

#include <algorithm>
#include <complex>
#include <memory>
#include <stdexcept>
#include <thread>

#include "arachnet/dsp/ddc.hpp"
#include "arachnet/dsp/fir.hpp"
#include "arachnet/dsp/kernels/channelizer.hpp"
#include "arachnet/reader/realtime_reader.hpp"
#include "arachnet/telemetry/counting_alloc.hpp"
#include "ledger.hpp"

namespace ledger {
namespace {

namespace dsp = arachnet::dsp;
namespace telemetry = arachnet::telemetry;
using arachnet::reader::FdmaRxChain;
using arachnet::reader::RealtimeReader;
using arachnet::reader::RxPacket;

constexpr std::size_t kLogCapacity = 1 << 17;
/// Closed-loop queue depth, below the reader's 8-block input ring.
constexpr std::uint64_t kBurstDepth = 6;

struct Spec {
  bool fdma = false;
  double rate_x = 1.0;          ///< paced phase, multiple of real time
  int segments = 3;             ///< paced segments (see Plan)
  double segment_s = 0.0;
  std::size_t dsp_threads = 1;  ///< reader worker + bank pool threads
  std::size_t windows = 0;      ///< capture length
};

// Paced rates sit at 16-25% of the closed-loop capacity measured in a
// quiet hour, so that a host running this code at half speed still
// leaves the reader headroom (at 64x, single_375's median latency grew
// tenfold in such hours). The paced phase delivers about 1 140 (single)
// or 4 000 (fdma) packets.
constexpr Spec kSingle{.fdma = false, .rate_x = 32.0, .segments = 2,
                       .segment_s = 5.0, .dsp_threads = 1, .windows = 64};
constexpr Spec kFdma{.fdma = true, .rate_x = 4.0, .segment_s = 10.0 / 3.0,
                     .dsp_threads = 2, .windows = 32};

FdmaRxChain::Params fdma_params(std::size_t workers) {
  FdmaRxChain::Params p;
  p.ddc.decimation = 4;  // 125 kS/s IQ: room for subcarriers up to ~50 kHz
  p.workers = workers;
  p.bank = FdmaRxChain::BankPolicy::kAuto;
  for (double hz : fdma_grid()) p.channels.push_back({hz});
  return p;
}

RealtimeReader::Params reader_params(const Spec& spec,
                                     telemetry::MetricsRegistry* metrics) {
  RealtimeReader::Params p;
  p.chain = single_chain_params();
  if (spec.fdma) p.fdma = fdma_params(spec.dsp_threads);
  p.metrics = metrics;
  return p;
}

/// A started RealtimeReader fed the capture from block 0. Its packets go
/// to the log stamped with their emit time, fetched by a wait_packet
/// consumer thread or, without one, by poll().
class Rig {
 public:
  Rig(const RealtimeReader::Params& params, const Capture& cap,
      PacketLog& log, bool consumer)
      : reader_(params), cap_(cap), log_(log) {
    reader_.start();
    if (consumer) {
      consumer_ = std::thread([this] {
        while (auto p = reader_.wait_packet()) log_.push(*p, now_ns(), 0);
      });
    }
  }
  /// stop() drains every accepted block; the consumer then sees nullopt.
  ~Rig() {
    reader_.stop();
    if (consumer_.joinable()) {
      consumer_.join();
    } else {
      poll();
    }
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// The next capture block as the buffer submit() takes by value.
  RealtimeReader::Block next_block() const {
    const double* b = cap_.block(blocks_);
    return RealtimeReader::Block(b, b + kBlock);
  }
  void submit(RealtimeReader::Block block) {
    reader_.submit(std::move(block));
    ++blocks_;
  }
  void poll() {
    while (auto p = reader_.poll_packet()) log_.push(*p, now_ns(), 0);
  }
  /// Polls every `step` until the worker has processed every submitted
  /// sample. A fine step slows the worker measurably on small hosts, so
  /// the traced run polls no faster than it needs.
  void wait_processed(
      std::chrono::microseconds step = std::chrono::microseconds{20}) const {
    while (reader_.samples_processed() < stream_samples()) {
      std::this_thread::sleep_for(step);
    }
  }
  void wait_drained() {
    wait_processed();
    for (;;) {
      if (!consumer_.joinable()) poll();
      if (reader_.stats().output_depth == 0) return;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  std::uint64_t stream_samples() const noexcept { return blocks_ * kBlock; }
  /// Blocks submitted but not yet processed.
  std::uint64_t in_flight() const noexcept {
    return blocks_ - reader_.samples_processed() / kBlock;
  }
  const RealtimeReader& reader() const noexcept { return reader_; }

 private:
  RealtimeReader reader_;
  const Capture& cap_;
  PacketLog& log_;
  std::uint64_t blocks_ = 0;
  std::thread consumer_;  ///< last: starts after the members it uses
};

/// Constructs a rig and streams one capture window through it, decoded
/// and drained; `seconds` receives the wall time (setup_s).
std::unique_ptr<Rig> set_up(const RealtimeReader::Params& params,
                            const Capture& cap, PacketLog& log, bool consumer,
                            double* seconds) {
  const std::uint64_t t0 = now_ns();
  auto rig = std::make_unique<Rig>(params, cap, log, consumer);
  for (std::size_t k = 0; k < cap.window_samples / kBlock; ++k) {
    rig->submit(rig->next_block());
  }
  rig->wait_drained();
  *seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return rig;
}

/// Closed loop for `seconds`, then drain. Returns DAQ-seconds decoded /
/// wall-seconds / DSP threads over the burst's fastest kRateWindowS
/// stretch. The generator keeps kBurstDepth blocks queued and never blocks
/// in submit(): the worker always finds input and no thread waits on the
/// ring, so no wake-up per block is timed.
double burst(Rig& rig, const Spec& spec, double seconds, SpanLog* spans,
             Progress& progress) {
  progress.clear();
  const auto until = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t k = 0; now_ns() < until;) {
    progress.mark(rig.reader().samples_processed());
    if (rig.in_flight() >= kBurstDepth) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    auto block = rig.next_block();
    const std::uint32_t id = spans ? spans->begin("reader.submit", k++) : 0;
    rig.submit(std::move(block));
    if (spans) spans->end(id);
  }
  rig.wait_processed();
  progress.mark(rig.reader().samples_processed());
  return progress.best_rate(kRateWindowS) /
         static_cast<double>(spec.dsp_threads);
}

/// Open loop at spec.rate_x: block j is due (its last sample arrives) at
/// t0 + (j + 1) block periods and is submitted then, prepared beforehand.
/// `after_submit(k)` runs right after submitting stream block k.
template <typename AfterSubmit>
PhaseClock pace(Rig& rig, const Spec& spec, double seconds, Paced& paced,
                SpanLog* spans, AfterSubmit&& after_submit) {
  const auto blocks = static_cast<std::uint64_t>(
      std::max(1.0, std::round(seconds * spec.rate_x / kBlockS)));
  const double period_ns = kBlockS / spec.rate_x * 1e9;
  paced.late_ms.reserve(paced.late_ms.size() + blocks);
  PhaseClock clock;
  clock.rate_x = spec.rate_x;
  clock.s0 = rig.stream_samples();
  clock.t0_ns = now_ns() + 1000000;
  telemetry::CountingAllocatorGuard guard;
  for (std::uint64_t j = 0; j < blocks; ++j) {
    const std::uint64_t k = rig.stream_samples() / kBlock;
    auto block = rig.next_block();
    const std::uint64_t due =
        clock.t0_ns + static_cast<std::uint64_t>((j + 1) * period_ns);
    spin_until_ns(due);
    paced.late_ms.push_back(
        static_cast<double>(static_cast<std::int64_t>(now_ns() - due)) * 1e-6);
    const std::uint32_t id = spans ? spans->begin("reader.submit", k) : 0;
    rig.submit(std::move(block));
    if (spans) spans->end(id);
    after_submit(k);
  }
  rig.wait_processed();
  // Each submitted block is one buffer the generator allocates: submit()
  // takes it by value. Everything else is the front half's.
  paced.steady_allocs = static_cast<std::int64_t>(guard.allocations()) -
                        static_cast<std::int64_t>(blocks);
  clock.s1 = rig.stream_samples();
  return clock;
}

/// Attempted and failed operations of the paced phase: blocks submitted
/// plus packets emitted or dropped; failures are dropped packets (the
/// reader applies back-pressure instead of refusing blocks).
void count_ops(const RealtimeReader::Stats& before,
               const RealtimeReader::Stats& after, const PhaseClock& clock,
               Paced& paced) {
  const std::uint64_t dropped = after.packets_dropped - before.packets_dropped;
  paced.attempted += (clock.s1 - clock.s0) / kBlock +
                     (after.packets_emitted - before.packets_emitted) +
                     dropped;
  paced.failed += dropped;
}

/// The bank-selection rule: 32 uniform-grid lanes must engage the
/// channelizer. Checked on a sequential bank with the workload's params.
void check_bank(const Spec& spec, Outcome& out) {
  if (!spec.fdma) return;
  const FdmaRxChain probe{fdma_params(1)};
  out.expect(probe.active_bank() == FdmaRxChain::BankPolicy::kChannelizer,
             "fdma32_grid: kAuto did not engage the channelizer");
}

Outcome run_untraced(const Spec& spec, const Options& opt,
                     const Capture& cap) {
  const Plan plan = make_plan(opt, spec.segments, spec.segment_s);
  Outcome out;
  PacketLog log{kLogCapacity};
  Progress progress;
  const auto params = reader_params(spec, nullptr);
  const auto build = [&](double* seconds) {
    log.clear();
    return set_up(params, cap, log, true, seconds);
  };
  Paced paced;
  const Untraced u = run_untraced_plan(
      plan, build,
      [&](Rig& rig) {
        return burst(rig, spec, plan.burst_s, nullptr, progress);
      },
      [&](std::unique_ptr<Rig> rig) {
        const auto before = rig->reader().stats();
        const PhaseClock clock = pace(*rig, spec, plan.segment_s, paced,
                                      nullptr, [](std::uint64_t) {});
        const auto after = rig->reader().stats();
        const std::uint64_t stream = rig->stream_samples();
        rig.reset();
        score_stream(cap, log, 0, 0, stream, clock, paced);
        count_ops(before, after, clock, paced);
        out.expect(log.overflow() == 0, "packet log overflowed");
      },
      out);
  u.report(out);
  paced.report(out, opt);
  check_bank(spec, out);
  return out;
}

/// The bank's layers as standalone public objects: the main DDC with the
/// documented passband, a channelizer from the public plan() and
/// design_lowpass(), and a whole FdmaRxChain with the front half's worker
/// count, so its wall time compares with the reader's.
class FdmaReplay {
 public:
  FdmaReplay(const Spec& spec, SpanLog& spans)
      : spans_(spans),
        params_(fdma_params(spec.dsp_threads)),
        ddc_(ddc_params(params_)),
        chzr_(chzr_params(params_, ddc_.output_rate_hz())),
        chain_(params_) {
    iq_.reserve(kBlock / ddc_.params().decimation + 1);
  }

  /// The chain sees every block. The standalone DDC and channelizer run
  /// on every kFrontEndEvery-th block only (their outputs are discarded,
  /// so skipped blocks cost them nothing but history): all three on every
  /// block would leave the generator no slack to stay on schedule.
  void feed(const double* block, std::uint64_t id, bool timed) {
    if (timed && timed_blocks_++ == 0) at_first_ = counters();
    const bool front = timed && id % kFrontEndEvery == 0;
    // The chain first, meeting the block as cold as the front half does.
    const std::uint32_t parent = timed ? spans_.begin("replay.block", id) : 0;
    const std::uint32_t chain =
        timed ? spans_.begin("reader.fdma", id, parent) : 0;
    chain_.process(block, kBlock);
    chain_.drain_packets(drained_);
    spans_.end(chain);
    if (front) {
      front_chain_ns_ += spans_.duration_ns(chain);
      std::uint32_t span = spans_.begin("dsp.ddc", id, parent);
      iq_.clear();
      ddc_.process(std::span<const double>{block, kBlock}, iq_);
      spans_.end(span);
      span = spans_.begin("dsp.channelizer", id, parent);
      chzr_.process(iq_.data(), iq_.size());
      spans_.end(span);
    }
    spans_.end(parent);
  }

  FdmaRxChain::BankPolicy bank() const noexcept {
    return chain_.active_bank();
  }

  /// Chain time per sample over every timed block; the front-end layers
  /// (and the lane decode left over) per sample over the blocks that ran
  /// them, each block's lane decode being its own chain minus its own
  /// front-end spans.
  ReplayCost cost() const {
    ReplayCost c = counters();
    c.bits -= at_first_.bits;
    c.frames_ok -= at_first_.frames_ok;
    c.crc_failures -= at_first_.crc_failures;
    c.samples = static_cast<double>(timed_blocks_ * kBlock);
    c.chain_ns = spans_.total_ns("reader.fdma");
    const double front_blocks = static_cast<double>(
        spans_.durations_us("dsp.channelizer").size());
    if (front_blocks > 0.0) {
      // Scale the front-end subset to the whole timed set.
      const double scale = static_cast<double>(timed_blocks_) / front_blocks;
      c.ddc_ns = spans_.total_ns("dsp.ddc") * scale;
      c.chzr_ns = spans_.total_ns("dsp.channelizer") * scale;
      c.lane_ns = (front_chain_ns_ - spans_.total_ns("dsp.ddc") -
                   spans_.total_ns("dsp.channelizer")) *
                  scale;
    }
    return c;
  }

 private:
  static dsp::Ddc::Params ddc_params(const FdmaRxChain::Params& p) {
    // FdmaRxChain's main-DDC passband: top subcarrier + 3 chip rates.
    dsp::Ddc::Params dp = p.ddc;
    double top = 0.0;
    for (const auto& c : p.channels) top = std::max(top, c.subcarrier_hz);
    dp.cutoff_hz = top + 3.0 * p.chip_rate;
    dp.kernels = p.kernels;
    return dp;
  }
  static dsp::PolyphaseChannelizer::Params chzr_params(
      const FdmaRxChain::Params& p, double iq_rate) {
    std::vector<double> hz;
    for (const auto& c : p.channels) hz.push_back(c.subcarrier_hz);
    const auto plan = dsp::PolyphaseChannelizer::plan(iq_rate, p.chip_rate, hz);
    if (!plan.viable) {
      throw std::runtime_error("fdma32_grid: channelizer plan: " + plan.reason);
    }
    return dsp::PolyphaseChannelizer::Params{
        .sample_rate_hz = iq_rate,
        .fft_size = plan.fft_size,
        .decimation = plan.decimation,
        .prototype = dsp::design_lowpass(plan.cutoff_hz, iq_rate, plan.taps),
        .center_hz = hz,
        .kernels = p.kernels,
        .fold = p.chzr_fold};
  }
  ReplayCost counters() const {
    ReplayCost c;
    for (const auto& s : chain_.all_channel_stats()) {
      c.bits += s.bits;
      c.frames_ok += s.frames_ok;
      c.crc_failures += s.crc_failures;
    }
    return c;
  }

  SpanLog& spans_;
  FdmaRxChain::Params params_;
  dsp::Ddc ddc_;
  dsp::PolyphaseChannelizer chzr_;
  FdmaRxChain chain_;
  std::vector<std::complex<double>> iq_;
  std::vector<RxPacket> drained_;
  std::uint64_t timed_blocks_ = 0;
  double front_chain_ns_ = 0.0;  ///< chain time of the front-end blocks
  ReplayCost at_first_;
};

template <typename Replay>
Outcome run_traced(const Spec& spec, const Options& opt, const Capture& cap,
                   Replay& replay, SpanLog& replay_spans) {
  const Plan plan = make_plan(opt, spec.segments, spec.segment_s);
  Outcome out;
  PacketLog log{kLogCapacity};
  telemetry::MetricsRegistry registry;
  SpanLog gen_spans{
      static_cast<std::size_t>(plan.paced_s() * spec.rate_x / kBlockS) + 16,
      0};
  double setup_s = 0.0;
  auto rig =
      set_up(reader_params(spec, &registry), cap, log, false, &setup_s);
  // Each block is replayed once the reader has processed it: the layers
  // are timed right beside the front half's own measurement, never
  // concurrently with it, and their allocations are not the reader's.
  const auto step = std::chrono::microseconds{std::min<std::int64_t>(
      50, static_cast<std::int64_t>(kBlockS / spec.rate_x * 1e5))};
  std::int64_t replay_allocs = 0;
  const auto beside = [&](std::uint64_t k, bool timed) {
    rig->wait_processed(step);
    rig->poll();
    replay_allocs +=
        allocations_of([&] { replay.feed(cap.block(k), k, timed); });
  };
  for (std::uint64_t k = 0; k < rig->stream_samples() / kBlock; ++k) {
    beside(k, false);  // the setup window
  }
  // Warm both over one whole capture cycle, so the paced phase meets no
  // first-time content (its allocations would not be steady state).
  for (std::size_t i = 0; i < cap.blocks(); ++i) {
    const std::uint64_t k = rig->stream_samples() / kBlock;
    rig->submit(rig->next_block());
    beside(k, false);
  }
  const auto snap0 = registry.snapshot();
  const auto before = rig->reader().stats();
  Paced paced;
  replay_allocs = 0;
  const PhaseClock clock =
      pace(*rig, spec, plan.paced_s(), paced, &gen_spans,
           [&](std::uint64_t k) { beside(k, true); });
  paced.steady_allocs -= replay_allocs;
  const auto snap1 = registry.snapshot();
  const auto after = rig->reader().stats();
  const std::uint64_t stream = rig->stream_samples();
  rig.reset();

  score_stream(cap, log, 0, 0, stream, clock, paced);
  count_ops(before, after, clock, paced);
  paced.report(out, opt);
  check_bank(spec, out);
  out.expect(log.overflow() == 0, "packet log overflowed");

  // Front-half stages from the registry, paced phase only.
  const auto block = hist_delta(snap0, snap1, "reader.block_ms");
  const auto emit = hist_delta(snap0, snap1, "reader.stage.emit_ms");
  const auto submit_us = gen_spans.durations_us("reader.submit");
  out.add("reader.realtime.submit_us.p50", quantile(submit_us, 0.50), "us");
  out.add("reader.realtime.submit_us.p99", quantile(submit_us, 0.99), "us");
  out.add("reader.realtime.queue_wait_ms.mean",
          hist_delta(snap0, snap1, "reader.stage.queue_wait_ms").mean(), "ms");
  out.add("reader.realtime.process_ms.mean",
          hist_delta(snap0, snap1, "reader.stage.process_ms").mean(), "ms");
  out.add("reader.realtime.emit_ms.mean", emit.mean(), "ms");
  out.add("reader.realtime.stall_s",
          after.backpressure_stall_s - before.backpressure_stall_s, "s");

  const ReplayCost cost = replay.cost();
  const double ddc = cost.per_sample(cost.ddc_ns);
  const double chain = cost.per_sample(cost.chain_ns);
  out.add("dsp.ddc.ns_per_sample", ddc, "ns");
  if (spec.fdma) {
    out.expect(gauge_value(snap1, "fdma.bank_policy") == 1.0,
               "fdma32_grid: the reader's bank is not the channelizer");
    out.add("reader.fdma.dispatch_us.mean",
            hist_delta(snap0, snap1, "fdma.dispatch_us").mean(), "us");
    out.add("dsp.channelizer.fft_us_per_block",
            block.count ? static_cast<double>(counter_delta(
                              snap0, snap1, "fdma.chzr.fft_us")) /
                              static_cast<double>(block.count)
                        : 0.0,
            "us");
    const double chzr = cost.per_sample(cost.chzr_ns);
    const double lane = cost.per_sample(cost.lane_ns);
    out.add("dsp.channelizer.ns_per_sample", chzr, "ns");
    out.add("reader.fdma.ns_per_sample", chain, "ns");
    out.add("reader.fdma.lane_decode.ns_per_sample", lane, "ns");
    out.add("reader.fdma.frontend_share",
            ddc + chzr + lane > 0.0 ? (ddc + chzr) / (ddc + chzr + lane) : 0.0,
            "fraction");
  } else {
    out.add("reader.rx_chain.ns_per_sample", chain, "ns");
    out.add("reader.decide.ns_per_sample", chain - ddc, "ns");
  }
  cost.report_counters(out);
  // The layers (replayed chain + the worker's emit stage) against the
  // worker's measured busy time (process + emit), per paced sample.
  const double samples = static_cast<double>(clock.s1 - clock.s0);
  const double busy_ns = block.sum * 1e6 / samples;
  out.add("bench.layer_sum_ratio",
          busy_ns > 0.0 ? (chain + emit.sum * 1e6 / samples) / busy_ns : 0.0,
          "fraction");
  PacketLog burst_log{kLogCapacity};
  SpanLog burst_spans{1 << 16, 9};
  Progress progress;
  out.add("bench.trace_overhead_pct",
          trace_overhead_pct(plan,
                             [&](telemetry::MetricsRegistry* registry) {
                               burst_log.clear();
                               double s = 0.0;
                               auto rig = set_up(reader_params(spec, registry),
                                                 cap, burst_log, true, &s);
                               return burst(*rig, spec, plan.overhead_burst_s,
                                            registry ? &burst_spans : nullptr,
                                            progress);
                             }),
          "%");
  save_trace(opt, {&gen_spans, &replay_spans}, out);
  return out;
}

Outcome run(const Spec& spec, const Options& opt) {
  const Capture cap = spec.fdma ? render_fdma(opt.seed, spec.windows)
                                : render_single(opt.seed, spec.windows);
  if (!opt.trace) return run_untraced(spec, opt, cap);
  // The generator (replay) beside the reader's DSP threads.
  pin_to_fastest_cores(spec.dsp_threads + 1);
  const double paced_s =
      make_plan(opt, spec.segments, spec.segment_s).paced_s();
  const std::size_t spans =
      4 * static_cast<std::size_t>(paced_s * spec.rate_x / kBlockS) + 16;
  SpanLog replay_spans{spans, 1};
  if (spec.fdma) {
    FdmaReplay replay{spec, replay_spans};
    Outcome out = run_traced(spec, opt, cap, replay, replay_spans);
    out.expect(replay.bank() == FdmaRxChain::BankPolicy::kChannelizer,
               "fdma32_grid: the replay bank is not the channelizer");
    return out;
  }
  SingleReplay replay{replay_spans};
  return run_traced(spec, opt, cap, replay, replay_spans);
}

}  // namespace

Outcome run_single_375(const Options& opt) { return run(kSingle, opt); }
Outcome run_fdma32_grid(const Options& opt) { return run(kFdma, opt); }

}  // namespace ledger
