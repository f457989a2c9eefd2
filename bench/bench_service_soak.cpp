// Multi-session reader service soak: N concurrent 500 kS/s capture
// sessions multiplexed over one shared worker pool (ReaderService).
//
// Two phases:
//  1. paced  — every session streams real-time-paced DAQ blocks (10 000
//     samples every 20 ms) carrying real packet waveforms; reports
//     end-to-end block latency p50/p99 (submit -> decoded), drop rate,
//     decoded packets, and RSS growth across the soak (memory-boundedness).
//  2. saturation — the same fleet is fed as fast as admission allows;
//     aggregate decoded samples/s gives the capacity headroom in
//     equivalent 500 kS/s sessions per core.
//
// A HealthMonitor rides along the paced phase at the contractual 1 s
// period, streaming MONITOR_service_soak.jsonl next to the bench sidecar,
// and the saturation phase runs interleaved monitor-off/monitor-on rounds
// so soak.monitor.overhead_pct measures what live sampling costs the hot
// path (gated <= 3% by ci/perf_gate.rules).
//
// Sidecar: BENCH_service_soak.json (soak.* rows), gated in CI by
// ci/perf_gate.rules.
//
//   bench_service_soak [--sessions=8] [--seconds=2.0] [--workers=0]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "arachnet/acoustic/waveform_channel.hpp"
#include "arachnet/phy/fm0.hpp"
#include "arachnet/reader/service/reader_service.hpp"
#include "arachnet/reader/service/service_health.hpp"
#include "arachnet/telemetry/counting_alloc.hpp"
#include "arachnet/telemetry/metrics.hpp"
#include "arachnet/telemetry/monitor.hpp"

#include "bench_report.hpp"

using namespace arachnet;
using reader::service::ReaderService;
using reader::service::SessionConfig;
using reader::service::SessionId;

namespace {

constexpr double kSampleRate = 500000.0;  // the paper's DAQ rate
constexpr std::size_t kBlockSamples = 10000;
constexpr double kBlockPeriodS =
    static_cast<double>(kBlockSamples) / kSampleRate;  // 20 ms

/// Resident set size in KiB (0 when /proc is unavailable).
std::size_t rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = static_cast<std::size_t>(std::strtoul(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kib;
}

/// One 0.28 s uplink window (140 000 samples) carrying one packet — the
/// template every session streams cyclically.
std::vector<double> render_template() {
  sim::Rng rng{21};
  acoustic::UplinkWaveformSynth synth{acoustic::UplinkWaveformSynth::Params{}};
  const phy::UlPacket pkt{.tid = 3, .payload = 0x5AA5};
  acoustic::BackscatterSource s;
  s.chips = phy::Fm0Encoder::encode_frame(pkt.serialize());
  s.chip_rate = 375.0;
  s.start_s = 0.02;
  s.amplitude = 0.2;
  s.phase_rad = 1.0;
  return synth.synthesize({s}, 0.28, rng);
}

struct ProducerTotals {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t packets = 0;
};

/// MONITOR_service_soak.jsonl next to the bench sidecar (same
/// ARACHNET_BENCH_DIR override as bench_report.hpp).
std::string monitor_jsonl_path() {
  std::string p;
  if (const char* dir = std::getenv("ARACHNET_BENCH_DIR");
      dir != nullptr && dir[0] != '\0') {
    p = dir;
    if (p.back() != '/') p += '/';
  }
  p += "MONITOR_service_soak.jsonl";
  return p;
}

/// p50/p99 of a named registry histogram (zeros when absent/empty).
struct P5099 {
  double p50 = 0.0;
  double p99 = 0.0;
};
P5099 hist_p5099(const telemetry::MetricsSnapshot& snap,
                 std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return {h.percentile(0.50), h.percentile(0.99)};
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t sessions = 8;
  double seconds = 2.0;
  std::size_t workers = 0;  // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sessions=", 0) == 0) {
      sessions = static_cast<std::size_t>(std::stoul(arg.substr(11)));
    } else if (arg.rfind("--seconds=", 0) == 0) {
      seconds = std::stod(arg.substr(10));
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = static_cast<std::size_t>(std::stoul(arg.substr(10)));
    }
  }

  telemetry::MetricsRegistry registry;
  ReaderService::Params params;
  params.workers = workers;
  params.metrics = &registry;
  params.dispatch_capacity = 4 * sessions;
  // Budget the fleet so the requested session count is always admitted.
  {
    ReaderService probe{ReaderService::Params{.workers = workers}};
    const double per_core = static_cast<double>(sessions) /
                                static_cast<double>(probe.worker_count()) +
                            1.0;
    params.sessions_per_core = per_core > 4.0 ? per_core : 4.0;
  }
  ReaderService svc{params};
  svc.start();

  const auto wave = render_template();
  const std::size_t blocks_per_session =
      static_cast<std::size_t>(seconds / kBlockPeriodS);

  arachnet::bench::Report report{"service_soak"};
  std::printf("=== Reader service soak: %zu sessions @ %.0f kS/s over %zu "
              "workers ===\n\n",
              sessions, kSampleRate / 1000.0, svc.worker_count());

  // ------------------------------------------------------------ phase 1
  std::vector<SessionId> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    SessionConfig cfg;
    cfg.priority = 1;
    cfg.ttl_s = 0.25;  // stale blocks are worthless a slot later
    cfg.max_blocks_in_flight = 8;
    const auto id = svc.open_session(cfg);
    if (!id.has_value()) {
      std::fprintf(stderr, "session %zu rejected at admission\n", i);
      return 1;
    }
    ids.push_back(*id);
  }

  // Live monitor over the paced phase: the contractual 1 s period, JSONL
  // time-series next to the bench sidecar, canonical service watchdogs.
  telemetry::HealthMonitor::Params mon_params;
  mon_params.registry = &registry;
  mon_params.period_s = 1.0;
  mon_params.source = "service_soak";
  mon_params.jsonl_path = monitor_jsonl_path();
  telemetry::HealthMonitor monitor{mon_params};
  reader::service::watch_service(monitor, svc);
  for (const auto id : ids) {
    reader::service::watch_session(monitor, svc, id);
  }
  monitor.start();

  const std::size_t rss_before = rss_kib();
  std::vector<ProducerTotals> totals(sessions);
  std::vector<std::thread> producers;
  producers.reserve(sessions);
  const auto paced_t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < sessions; ++i) {
    producers.emplace_back([&, i] {
      auto& t = totals[i];
      std::size_t off = (i * 17) % (wave.size() / kBlockSamples);
      auto next = std::chrono::steady_clock::now();
      for (std::size_t b = 0; b < blocks_per_session; ++b) {
        next += std::chrono::microseconds(
            static_cast<long>(kBlockPeriodS * 1e6));
        std::this_thread::sleep_until(next);
        auto blk = svc.acquire_block(ids[i]);
        const auto* src = wave.data() + off * kBlockSamples;
        blk.assign(src, src + kBlockSamples);
        off = (off + 1) % (wave.size() / kBlockSamples);
        ++t.submitted;
        if (svc.submit(ids[i], std::move(blk))) ++t.accepted;
        while (svc.poll_packet(ids[i]).has_value()) ++t.packets;
      }
    });
  }
  for (auto& p : producers) p.join();
  // Let the tail of the pipeline land, then drain the outputs.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (std::size_t i = 0; i < sessions; ++i) {
    while (svc.poll_packet(ids[i]).has_value()) ++totals[i].packets;
  }
  const double paced_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    paced_t0)
          .count();
  const std::size_t rss_after = rss_kib();
  monitor.sample_once();  // a final sample so short runs still get >= 1
  monitor.stop();

  ProducerTotals sum;
  for (const auto& t : totals) {
    sum.submitted += t.submitted;
    sum.accepted += t.accepted;
    sum.packets += t.packets;
  }
  const auto svc_stats = svc.stats();
  const double drop_rate =
      sum.submitted == 0
          ? 0.0
          : static_cast<double>(sum.submitted - sum.accepted) /
                static_cast<double>(sum.submitted);

  // End-to-end block latency and its per-stage attribution from the
  // service's own histograms: where inside submit -> packet the time went.
  const auto snap = registry.snapshot();
  const auto block = hist_p5099(snap, "service.block_ms");
  const double p50 = block.p50;
  const double p99 = block.p99;
  const auto st_wait = hist_p5099(snap, "service.stage.dispatch_wait_ms");
  const auto st_proc = hist_p5099(snap, "service.stage.process_ms");
  const auto st_emit = hist_p5099(snap, "service.stage.emit_ms");
  const double rss_growth_kib =
      rss_after >= rss_before
          ? static_cast<double>(rss_after - rss_before)
          : 0.0;

  std::printf("paced phase (%.2f s wall):\n", paced_wall_s);
  std::printf("  blocks submitted   %8llu\n",
              static_cast<unsigned long long>(sum.submitted));
  std::printf("  blocks accepted    %8llu (drop rate %.4f)\n",
              static_cast<unsigned long long>(sum.accepted), drop_rate);
  std::printf("  blocks processed   %8llu\n",
              static_cast<unsigned long long>(svc_stats.blocks_processed));
  std::printf("  packets decoded    %8llu\n",
              static_cast<unsigned long long>(sum.packets));
  std::printf("  block latency      p50 %.3f ms   p99 %.3f ms\n", p50, p99);
  std::printf("    dispatch wait    p50 %.3f ms   p99 %.3f ms\n",
              st_wait.p50, st_wait.p99);
  std::printf("    chain process    p50 %.3f ms   p99 %.3f ms\n",
              st_proc.p50, st_proc.p99);
  std::printf("    packet emit      p50 %.3f ms   p99 %.3f ms\n",
              st_emit.p50, st_emit.p99);
  std::printf("  monitor samples    %8llu (period %.1f s)\n",
              static_cast<unsigned long long>(monitor.samples_taken()),
              monitor.period_s());
  std::printf("  rss growth         %8.0f KiB\n\n", rss_growth_kib);

  report.counter("soak.sessions", sessions);
  report.counter("soak.workers", svc.worker_count());
  report.gauge("soak.sessions_per_core",
               static_cast<double>(sessions) /
                   static_cast<double>(svc.worker_count()));
  report.counter("soak.blocks_submitted", sum.submitted);
  report.counter("soak.blocks_accepted", sum.accepted);
  report.counter("soak.blocks_processed", svc_stats.blocks_processed);
  report.counter("soak.packets", sum.packets);
  report.metric("soak.paced_drop_rate", drop_rate);
  report.metric("soak.block_ms.p50", p50, "ms");
  report.metric("soak.block_ms.p99", p99, "ms");
  report.metric("soak.stage.dispatch_wait_ms.p50", st_wait.p50, "ms");
  report.metric("soak.stage.dispatch_wait_ms.p99", st_wait.p99, "ms");
  report.metric("soak.stage.process_ms.p50", st_proc.p50, "ms");
  report.metric("soak.stage.process_ms.p99", st_proc.p99, "ms");
  report.metric("soak.stage.emit_ms.p50", st_emit.p50, "ms");
  report.metric("soak.stage.emit_ms.p99", st_emit.p99, "ms");
  report.counter("soak.monitor.samples", monitor.samples_taken());
  report.metric("soak.monitor.period_s", monitor.period_s(), "s");
  report.metric("soak.rss_growth_kib", rss_growth_kib, "KiB");

  // ------------------------------------------------------------ phase 2
  // Saturation: feed the same fleet as fast as the per-session caps
  // admit; aggregate decode rate -> capacity in equivalent real-time
  // sessions. Run as interleaved monitor-off / monitor-on rounds (best of
  // each arm, classic A/B against scheduler noise) so the delta is the
  // live-sampling overhead, not drift between two separate runs.
  std::size_t off = 0;
  struct Burst {
    std::uint64_t samples = 0;
    double wall_s = 0.0;
  };
  auto saturate = [&](std::chrono::milliseconds burst) -> Burst {
    std::uint64_t samples_before = 0;
    for (const auto id : ids) {
      samples_before += svc.session_stats(id)->samples_processed;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + burst;
    while (std::chrono::steady_clock::now() < deadline) {
      bool any = false;
      for (const auto id : ids) {
        auto blk = svc.acquire_block(id);
        const auto* src = wave.data() + off * kBlockSamples;
        blk.assign(src, src + kBlockSamples);
        if (svc.submit(id, std::move(blk))) any = true;
        svc.poll_packet(id);
      }
      off = (off + 1) % (wave.size() / kBlockSamples);
      if (!any) std::this_thread::yield();  // every cap hit: let the pool run
    }
    // Drain what was accepted before the cutoff.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::uint64_t samples_after = 0;
    for (const auto id : ids) {
      samples_after += svc.session_stats(id)->samples_processed;
    }
    return {samples_after - samples_before, wall_s};
  };

  // Paired bursts, median-of-ratios. The raw burst rate on a shared host
  // swings ±10% (cgroup quota refill, frequency steps, co-tenants), while
  // the monitor's true per-burst cost is one sampling pass — so the
  // estimator must be robust to a throttle spike landing on one burst.
  // Each pair runs off and on back to back (alternating order so drift
  // cancels), the pair's on/off ratio mostly shares its noise, and the
  // median across pairs discards the pairs a spike split.
  constexpr int kOverheadPairs = 5;
  // Bursts longer than the sampling period, so every on-arm burst pays at
  // least one full sampling pass.
  constexpr auto kBurst = std::chrono::milliseconds(1100);

  // One discarded burst first: the paced phase is mostly idle, so under a
  // cgroup CPU quota the first saturated burst runs on banked quota and
  // measures ~10% fast — the warm-up burns that credit so every measured
  // burst sees the same (throttled) steady state.
  saturate(kBurst);

  auto run_on_arm = [&]() -> Burst {
    // The on-arm runs the monitor exactly as deployed: 1 s period.
    telemetry::HealthMonitor::Params on_params;
    on_params.registry = &registry;
    on_params.period_s = 1.0;
    on_params.source = "service_soak_sat";
    telemetry::HealthMonitor sat_monitor{on_params};
    reader::service::watch_service(sat_monitor, svc);
    for (const auto id : ids) {
      reader::service::watch_session(sat_monitor, svc, id);
    }
    sat_monitor.start();
    const Burst r = saturate(kBurst);
    sat_monitor.stop();
    return r;
  };

  auto rate = [](const Burst& b) {
    return b.wall_s > 0.0 ? static_cast<double>(b.samples) / b.wall_s : 0.0;
  };
  Burst total_off;
  Burst total_on;
  std::vector<double> pair_ratio;  // on-rate / off-rate per pair
  pair_ratio.reserve(kOverheadPairs);
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    Burst b_off;
    Burst b_on;
    if (pair % 2 == 0) {
      b_off = saturate(kBurst);
      b_on = run_on_arm();
    } else {
      b_on = run_on_arm();
      b_off = saturate(kBurst);
    }
    total_off.samples += b_off.samples;
    total_off.wall_s += b_off.wall_s;
    total_on.samples += b_on.samples;
    total_on.wall_s += b_on.wall_s;
    if (rate(b_off) > 0.0) pair_ratio.push_back(rate(b_on) / rate(b_off));
  }
  std::sort(pair_ratio.begin(), pair_ratio.end());
  const double median_ratio =
      pair_ratio.empty() ? 1.0 : pair_ratio[pair_ratio.size() / 2];

  const double rate_off = rate(total_off);
  const double rate_on = rate(total_on);
  const double samples_per_s = rate_off;
  const double capacity_sessions = samples_per_s / kSampleRate;
  const double capacity_per_core =
      capacity_sessions / static_cast<double>(svc.worker_count());
  const double overhead_pct = (1.0 - median_ratio) * 100.0;

  std::printf("saturation phase (%d x 2 x %lld ms paired bursts):\n",
              kOverheadPairs, static_cast<long long>(kBurst.count()));
  std::printf("  decode throughput  %.2f MS/s aggregate (monitor off)\n",
              rate_off / 1e6);
  std::printf("  with live monitor  %.2f MS/s (overhead %.2f%%)\n",
              rate_on / 1e6, overhead_pct);
  std::printf("  capacity           %.1f x 500 kS/s sessions "
              "(%.2f sessions/core)\n\n",
              capacity_sessions, capacity_per_core);

  report.metric("soak.samples_per_s", samples_per_s, "S/s");
  report.metric("soak.capacity_sessions", capacity_sessions);
  report.metric("soak.capacity_sessions_per_core", capacity_per_core);
  report.metric("soak.monitor.off_samples_per_s", rate_off, "S/s");
  report.metric("soak.monitor.on_samples_per_s", rate_on, "S/s");
  report.metric("soak.monitor.overhead_pct", overhead_pct, "%");

  // ------------------------------------------------------------ phase 3
  // Steady-state allocation audit on the session loop (DESIGN.md Sec.
  // 11): with the monitor off and the fleet quiescent, stream one
  // session's paced schedule twice — the soak above is the warm-up for
  // everything process-wide, so the measured pass must not allocate.
  // Gated == 0 by ci/perf_gate.rules.
  {
    const auto id = ids.front();
    const auto stream_once = [&]() {
      std::uint64_t processed = svc.session_stats(id)->blocks_processed;
      std::size_t off_b = 0;
      for (int b = 0; b < 8; ++b) {
        auto blk = svc.acquire_block(id);
        const auto* src = wave.data() + off_b * kBlockSamples;
        blk.assign(src, src + kBlockSamples);
        off_b = (off_b + 1) % (wave.size() / kBlockSamples);
        if (!svc.submit(id, std::move(blk))) continue;
        ++processed;
        // Wait each block out so the dispatch queue stays at the depth
        // the warm-up established (its node free list covers it).
        while (svc.session_stats(id)->blocks_processed < processed) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        while (svc.poll_packet(id).has_value()) {
        }
      }
    };
    telemetry::CountingAllocatorGuard warm_guard;
    stream_once();
    const std::uint64_t warmup_count = warm_guard.allocations();
    telemetry::CountingAllocatorGuard steady_guard;
    stream_once();
    const std::uint64_t steady_count = steady_guard.allocations();
    std::printf("steady-state allocation audit (8 paced blocks/pass):\n");
    std::printf("  warm-up pass       %6llu allocations\n",
                static_cast<unsigned long long>(warmup_count));
    std::printf("  steady-state pass  %6llu allocations\n\n",
                static_cast<unsigned long long>(steady_count));
    report.counter("alloc.warmup_count", warmup_count);
    report.counter("alloc.steady_state_count", steady_count);
  }

  for (const auto id : ids) svc.close_session(id);
  svc.stop();
  const auto final_stats = svc.stats();
  report.counter("soak.blocks_dropped", final_stats.blocks_dropped);
  report.counter("soak.blocks_expired", final_stats.blocks_expired);

  report.write();
  std::printf("sidecar: %s\n", report.path().c_str());
  return 0;
}
