// service16: a ReaderService hosting 16 single-chain sessions (4 at
// priority 2, 12 at priority 1) over three DSP threads (dispatcher + two
// pool threads). One generator thread (this one) submits and polls every
// session. The sessions replay the single_375 capture, each from its own
// start offset, so the chain's work per sample matches single_375 while
// the dispatch queue, pool hand-off, submit mutex and session rings run
// under 16 concurrent streams.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "arachnet/reader/service/reader_service.hpp"
#include "arachnet/telemetry/counting_alloc.hpp"
#include "ledger.hpp"

namespace ledger {
namespace {

namespace telemetry = arachnet::telemetry;
using arachnet::reader::service::ReaderService;
using arachnet::reader::service::SessionConfig;
using arachnet::reader::service::SessionId;

constexpr std::size_t kSessions = 16;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kWindows = 64;
/// Paced rate per session: one block per session every 5 ms, 64x real
/// time in all. At 8x per session, hours in which the host ran this code
/// at half speed shed up to a third of the blocks.
constexpr double kRateX = 4.0;
/// Paced segments of about 570 packets over the 16 sessions.
constexpr int kSegments = 4;
constexpr double kSegmentS = 2.5;
/// Per-session in-flight cap: 48 ticks (240 ms, within the TTL), so a host
/// stall queues blocks instead of shedding them.
constexpr std::size_t kInFlight = 48;
/// Closed-loop in-flight cap per session during bursts: the priority-2
/// sessions' 12 blocks cannot fill a whole 16-block dispatch batch, so
/// priority-1 blocks are never starved past their TTL.
constexpr std::uint64_t kBurstInFlight = 3;
constexpr std::size_t kLogCapacity = 1 << 17;

ReaderService::Params service_params(telemetry::MetricsRegistry* metrics) {
  ReaderService::Params p;
  p.workers = kWorkers;
  p.sessions_per_core = 6.0;  // admission cap 18: all 16 sessions admitted
  // Every session's in-flight cap fits, so the queue never displaces a
  // block a session was allowed to submit.
  p.dispatch_capacity = kInFlight * kSessions;
  p.metrics = metrics;
  return p;
}

SessionConfig session_config(std::size_t i) {
  SessionConfig cfg;
  cfg.chain = single_chain_params();
  cfg.priority = i < 4 ? 2 : 1;
  cfg.ttl_s = 0.25;
  cfg.max_blocks_in_flight = kInFlight;
  return cfg;
}

/// A service with its 16 sessions open, started by warm_up(). The
/// generator feeds session i the capture cyclically from block offset(i)
/// through the recycled-buffer path, and polls each output into the log.
/// Session 0 starts at offset 0.
class Rig {
 public:
  Rig(const ReaderService::Params& params, const Capture& cap,
      PacketLog& log)
      : svc_(params), cap_(cap), log_(log) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      const auto id = svc_.open_session(session_config(i));
      if (!id) throw std::runtime_error("service16: session not admitted");
      ids_.push_back(*id);
    }
  }
  ~Rig() {
    for (const auto id : ids_) svc_.close_session(id);
    svc_.stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  std::uint64_t offset(std::size_t i) const noexcept {
    return i * (cap_.blocks() / kSessions);
  }
  /// Submits session i's next block; a refused block is lost DAQ, so the
  /// stream advances either way.
  bool submit(std::size_t i) { return submit(i, svc_.acquire_block(ids_[i])); }
  /// Starts the service on `n` blocks per session, then drains them. Every
  /// buffer is taken from the pools before any is submitted, so each pool
  /// ends up holding `n` whatever the timing (mem_mib does not follow the
  /// host). Each session's first block is queued before the dispatcher
  /// starts, so its first batch spans all 16 sessions: the dispatcher's
  /// per-session groups reach their steady-state count here, not in a
  /// measured phase (reader.steady_allocs does not follow the host).
  void warm_up(std::size_t n) {
    std::vector<std::vector<ReaderService::Block>> buffers(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        buffers[i].push_back(svc_.acquire_block(ids_[i]));
      }
    }
    for (std::size_t i = 0; i < kSessions; ++i) {
      submit(i, std::move(buffers[i][0]));
    }
    svc_.start();
    for (std::size_t i = 0; i < kSessions; ++i) {
      for (std::size_t k = 1; k < n; ++k) submit(i, std::move(buffers[i][k]));
    }
    drain();
  }
  void poll(std::size_t i) {
    while (auto p = svc_.poll_packet(ids_[i])) {
      log_.push(*p, now_ns(), static_cast<std::uint32_t>(i));
    }
  }
  /// Blocks of session i submitted but not yet processed or dropped.
  std::uint64_t in_flight(std::size_t i) const {
    const auto st = svc_.session_stats(ids_[i]);
    return blocks_[i] - st->blocks_processed - st->blocks_dropped;
  }
  /// Waits out every submitted block, polling the outputs meanwhile.
  void drain() {
    for (;;) {
      std::uint64_t pending = 0;
      for (std::size_t i = 0; i < kSessions; ++i) {
        pending += in_flight(i);
        poll(i);
      }
      if (pending == 0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    for (std::size_t i = 0; i < kSessions; ++i) poll(i);
  }
  /// Waits until the service has resolved every submitted block.
  void wait_idle() const {
    std::uint64_t submitted = 0;
    for (const auto b : blocks_) submitted += b;
    for (;;) {
      const auto st = svc_.stats();
      if (st.blocks_processed + st.blocks_dropped >= submitted) return;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  std::uint64_t blocks(std::size_t i) const noexcept { return blocks_[i]; }
  std::uint64_t stream_samples(std::size_t i) const noexcept {
    return blocks_[i] * kBlock;
  }
  const ReaderService& service() const noexcept { return svc_; }

 private:
  bool submit(std::size_t i, ReaderService::Block block) {
    const double* src = cap_.block(offset(i) + blocks_[i]);
    block.assign(src, src + kBlock);
    ++blocks_[i];
    return svc_.submit(ids_[i], std::move(block));
  }

  ReaderService svc_;
  const Capture& cap_;
  PacketLog& log_;
  std::vector<SessionId> ids_;
  std::uint64_t blocks_[kSessions] = {};
};

/// Feeds every session as fast as `in_flight` blocks in flight per session
/// admit, until `until_ns` or until each session got `per_session` more
/// blocks, then drains. `progress`, when given, records the DAQ samples
/// the sessions have resolved.
void stream_closed(Rig& rig, std::uint64_t until_ns, std::uint64_t per_session,
                   std::uint64_t in_flight, Progress* progress = nullptr) {
  std::uint64_t target[kSessions];
  for (std::size_t i = 0; i < kSessions; ++i) {
    target[i] = rig.blocks(i) + std::min(per_session, UINT64_MAX / 2);
  }
  for (bool more = true; more && now_ns() < until_ns;) {
    bool any = false;
    more = false;
    std::uint64_t resolved = 0;
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::uint64_t pending = rig.in_flight(i);
      resolved += rig.blocks(i) - pending;
      if (rig.blocks(i) < target[i]) {
        more = true;
        if (pending < in_flight) {
          rig.submit(i);
          any = true;
        }
      }
      rig.poll(i);
    }
    if (progress) progress->mark(resolved * kBlock);
    // Every session is at its cap: 48 queued blocks keep the pool busy for
    // milliseconds. A yielding generator stays runnable and keeps polling
    // the sessions' stats while the pool works; over 10 seeds that put
    // rtf_per_core's spread at 0.21, against 0.08 when it sleeps.
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  rig.drain();
  if (progress) {
    std::uint64_t submitted = 0;
    for (std::size_t i = 0; i < kSessions; ++i) submitted += rig.blocks(i);
    progress->mark(submitted * kBlock);
  }
}

std::unique_ptr<Rig> set_up(const ReaderService::Params& params,
                            const Capture& cap, PacketLog& log,
                            double* seconds) {
  const std::uint64_t t0 = now_ns();
  auto rig = std::make_unique<Rig>(params, cap, log);
  rig->warm_up(cap.window_samples / kBlock);  // one window per session
  *seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return rig;
}

/// Closed loop for `seconds`, then drain. Returns DAQ-seconds resolved /
/// wall-seconds / DSP threads over the burst's fastest kRateWindowS
/// stretch; with kBurstInFlight blocks per session nothing is dropped.
double burst(Rig& rig, double seconds, Progress& progress) {
  progress.clear();
  stream_closed(rig, now_ns() + static_cast<std::uint64_t>(seconds * 1e9),
                UINT64_MAX, kBurstInFlight, &progress);
  return progress.best_rate(kRateWindowS) / static_cast<double>(kWorkers);
}

/// Span block id of session i's stream block k (the replay's session-0
/// spans use the same ids).
std::uint64_t span_id(std::uint64_t k, std::size_t i) {
  return k * kSessions + i;
}

struct PacedRun {
  PhaseClock clock;  ///< s0/s1 are per session: see s0[]
  std::uint64_t s0[kSessions] = {};
  std::uint64_t ticks = 0;
  double depth_max = 0.0;
};

/// Open loop: tick j (due at t0 + (j + 1) x 5 ms) submits one block to
/// every session, runs `after_submit(k)` with session 0's stream block k,
/// then polls every session's output.
template <typename AfterSubmit>
PacedRun pace(Rig& rig, double seconds, Paced& paced, SpanLog* spans,
              AfterSubmit&& after_submit) {
  PacedRun run;
  run.ticks = static_cast<std::uint64_t>(
      std::max(1.0, std::round(seconds * kRateX / kBlockS)));
  const double period_ns = kBlockS / kRateX * 1e9;
  paced.late_ms.reserve(paced.late_ms.size() + run.ticks);
  for (std::size_t i = 0; i < kSessions; ++i) run.s0[i] = rig.stream_samples(i);
  run.clock.rate_x = kRateX;
  run.clock.t0_ns = now_ns() + 1000000;
  telemetry::CountingAllocatorGuard guard;
  for (std::uint64_t j = 0; j < run.ticks; ++j) {
    const std::uint64_t due =
        run.clock.t0_ns + static_cast<std::uint64_t>((j + 1) * period_ns);
    spin_until_ns(due);
    paced.late_ms.push_back(
        static_cast<double>(static_cast<std::int64_t>(now_ns() - due)) * 1e-6);
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::uint32_t id =
          spans ? spans->begin("service.submit", span_id(rig.blocks(i), i))
                : 0;
      rig.submit(i);
      if (spans) spans->end(id);
    }
    run.depth_max = std::max(
        run.depth_max,
        static_cast<double>(rig.service().stats().dispatch_depth));
    after_submit(rig.blocks(0) - 1);
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::uint32_t id =
          spans ? spans->begin("service.poll", span_id(rig.blocks(i) - 1, i))
                : 0;
      rig.poll(i);
      if (spans) spans->end(id);
    }
  }
  rig.drain();
  paced.steady_allocs = static_cast<std::int64_t>(guard.allocations());
  return run;
}

void score(const Capture& cap, const PacketLog& log, const Rig& rig,
           const PacedRun& run, Paced& paced) {
  for (std::size_t i = 0; i < kSessions; ++i) {
    PhaseClock clock = run.clock;
    clock.s0 = run.s0[i];
    clock.s1 = run.s0[i] + run.ticks * kBlock;
    score_stream(cap, log, static_cast<std::uint32_t>(i), rig.offset(i),
                 rig.stream_samples(i), clock, paced);
  }
}

/// Blocks submitted plus packets emitted or dropped; failures are dropped
/// or refused blocks (cap, displacement, TTL) and dropped packets.
void count_ops(const ReaderService::Stats& before,
               const ReaderService::Stats& after, const PacedRun& run,
               Paced& paced) {
  const std::uint64_t blocks_dropped =
      after.blocks_dropped - before.blocks_dropped;
  const std::uint64_t packets_dropped =
      after.packets_dropped - before.packets_dropped;
  paced.attempted += run.ticks * kSessions +
                     (after.packets_emitted - before.packets_emitted) +
                     packets_dropped;
  paced.failed += blocks_dropped + packets_dropped;
}

Outcome run_untraced(const Options& opt, const Capture& cap) {
  const Plan plan = make_plan(opt, kSegments, kSegmentS);
  Outcome out;
  PacketLog log{kLogCapacity};
  Progress progress;
  const auto params = service_params(nullptr);
  const auto build = [&](double* seconds) {
    log.clear();
    return set_up(params, cap, log, seconds);
  };
  Paced paced;
  const Untraced u = run_untraced_plan(
      plan, build,
      [&](Rig& rig) { return burst(rig, plan.burst_s, progress); },
      [&](std::unique_ptr<Rig> rig) {
        const auto before = rig->service().stats();
        const PacedRun run =
            pace(*rig, plan.segment_s, paced, nullptr, [](std::uint64_t) {});
        const auto after = rig->service().stats();
        score(cap, log, *rig, run, paced);
        count_ops(before, after, run, paced);
        out.expect(log.overflow() == 0, "packet log overflowed");
      },
      out);
  u.report(out);
  paced.report(out, opt);
  return out;
}

Outcome run_traced(const Options& opt, const Capture& cap) {
  pin_to_fastest_cores(kWorkers);  // the generator waits while they work
  const Plan plan = make_plan(opt, kSegments, kSegmentS);
  Outcome out;
  PacketLog log{kLogCapacity};
  telemetry::MetricsRegistry registry;
  const auto ticks =
      static_cast<std::size_t>(plan.paced_s() * kRateX / kBlockS) + 16;
  SpanLog gen_spans{2 * kSessions * ticks, 0};
  SpanLog replay_spans{4 * ticks, 1};
  SingleReplay replay{replay_spans};
  double setup_s = 0.0;
  auto rig = set_up(service_params(&registry), cap, log, &setup_s);
  // Warm every session over one whole capture cycle, so the paced phase
  // meets no first-time content (its allocations would not be steady
  // state); session 0 (capture offset 0) is the replayed stream.
  stream_closed(*rig, UINT64_MAX, cap.blocks(), kBurstInFlight);
  for (std::uint64_t k = 0; k < rig->blocks(0); ++k) {
    replay.feed(cap.block(k), span_id(k, 0), false);
  }
  const auto snap0 = registry.snapshot();
  const auto before = rig->service().stats();
  Paced paced;
  // Each tick's session-0 block is replayed once the pool has resolved
  // the tick: the layers are timed right beside the service's own
  // measurement, never concurrently with it, and their allocations are
  // not the service's.
  std::int64_t replay_allocs = 0;
  const PacedRun run = pace(*rig, plan.paced_s(), paced, &gen_spans,
                            [&](std::uint64_t k) {
                              rig->wait_idle();
                              replay_allocs += allocations_of([&] {
                                replay.feed(cap.block(k), span_id(k, 0), true);
                              });
                            });
  paced.steady_allocs -= replay_allocs;
  const auto snap1 = registry.snapshot();
  const auto after = rig->service().stats();
  score(cap, log, *rig, run, paced);
  count_ops(before, after, run, paced);
  rig.reset();
  paced.report(out, opt);
  out.expect(log.overflow() == 0, "packet log overflowed");

  const auto submit_us = gen_spans.durations_us("service.submit");
  const auto process = hist_delta(snap0, snap1, "service.stage.process_ms");
  const auto emit = hist_delta(snap0, snap1, "service.stage.emit_ms");
  out.add("service.submit_us.p50", quantile(submit_us, 0.50), "us");
  out.add("service.submit_us.p99", quantile(submit_us, 0.99), "us");
  out.add("service.poll_us.p99",
          quantile(gen_spans.durations_us("service.poll"), 0.99), "us");
  out.add("service.dispatch_wait_ms.mean",
          hist_delta(snap0, snap1, "service.stage.dispatch_wait_ms").mean(),
          "ms");
  out.add("service.process_ms.mean", process.mean(), "ms");
  out.add("service.emit_ms.mean", emit.mean(), "ms");
  out.add("service.dispatch_depth.max", run.depth_max, "count");
  out.add("service.blocks_dropped",
          static_cast<double>(after.blocks_dropped - before.blocks_dropped),
          "count");
  out.add("service.blocks_expired",
          static_cast<double>(after.blocks_expired - before.blocks_expired),
          "count");
  out.add("service.packets_dropped",
          static_cast<double>(after.packets_dropped - before.packets_dropped),
          "count");

  const ReplayCost cost = replay.cost();
  const double ddc = cost.per_sample(cost.ddc_ns);
  const double chain = cost.per_sample(cost.chain_ns);
  out.add("dsp.ddc.ns_per_sample", ddc, "ns");
  out.add("reader.rx_chain.ns_per_sample", chain, "ns");
  out.add("reader.decide.ns_per_sample", chain - ddc, "ns");
  cost.report_counters(out);
  // Layers (replayed chain + emit) against the pool's busy time per
  // processed sample (process + emit).
  const double samples = static_cast<double>(process.count * kBlock);
  const double busy_ns = samples > 0 ? (process.sum + emit.sum) * 1e6 / samples
                                     : 0.0;
  out.add("bench.layer_sum_ratio",
          busy_ns > 0 ? (chain + emit.sum * 1e6 / samples) / busy_ns : 0.0,
          "fraction");
  PacketLog burst_log{kLogCapacity};
  Progress progress;
  out.add("bench.trace_overhead_pct",
          trace_overhead_pct(plan,
                             [&](telemetry::MetricsRegistry* registry) {
                               burst_log.clear();
                               double s = 0.0;
                               auto rig = set_up(service_params(registry), cap,
                                                 burst_log, &s);
                               return burst(*rig, plan.overhead_burst_s,
                                            progress);
                             }),
          "%");
  save_trace(opt, {&gen_spans, &replay_spans}, out);
  return out;
}

}  // namespace

Outcome run_service16(const Options& opt) {
  const Capture cap = render_single(opt.seed, kWindows);
  return opt.trace ? run_traced(opt, cap) : run_untraced(opt, cap);
}

}  // namespace ledger
