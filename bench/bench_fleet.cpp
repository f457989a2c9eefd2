// Fleet-scale multi-reader engine bench: decode throughput and scaling
// versus reader count, plus the coordination-correctness gates the CI
// script enforces.
//
// Three parts:
//  1. waveform weak scaling — R in {1, 2, 4} readers, each synthesizing
//     and decoding its own FDMA uplink channels per epoch on the shared
//     worker pool. Per-reader work is constant, so ideal wall time at R
//     readers on C cores is wall(1) * R / min(R, C); the ratio of ideal to
//     measured is fleet.efficiency_4 (gated >= 0.7 by
//     ci/perf_gate.rules, normalized to the host's core count).
//  2. slot-mode coordination — a 4-reader overlapping fleet exercising
//     handoffs, duplicate suppression and the co-channel planner. Reports
//     the digest at shard widths 1/2/4 (fleet.shard_determinism), parity
//     against the merge of four single-reader engines (fleet.parity), and
//     the coordination counters with the planner on and off.
//  3. epoch latency — p50/p99 of per-epoch wall time at 4 readers.
//
// Sidecar: BENCH_fleet.json (fleet.* rows), gated by
// ci/perf_gate.rules.
//
//   bench_fleet [--epochs=4] [--slot-epochs=24]
//   bench_fleet --replay=16 --shards=4    # print packet log + digest only
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "arachnet/fleet/fleet_engine.hpp"
#include "arachnet/sim/stats.hpp"
#include "arachnet/telemetry/metrics.hpp"

#include "bench_report.hpp"

using namespace arachnet;
using fleet::FleetEngine;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long parse_flag(int argc, char** argv, const char* name, long fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::strtol(argv[i] + len + 1, nullptr, 10);
    }
  }
  return fallback;
}

FleetEngine::Params slot_params(std::size_t shards) {
  FleetEngine::Params p;
  p.mode = FleetEngine::Mode::kSlot;
  p.readers = 4;
  p.shards = shards;
  p.seed = 99;
  p.tags_per_reader = 8;
  p.slots_per_epoch = 64;
  p.neighbor_gain = 0.6;
  p.gain_drift_amplitude = 0.5;
  p.overhear_threshold = 0.85;
  p.handoff_margin = 0.05;
  return p;
}

FleetEngine::Params waveform_params(std::size_t readers) {
  FleetEngine::Params p;
  p.mode = FleetEngine::Mode::kWaveform;
  p.readers = readers;
  p.shards = readers;
  p.seed = 7;
  p.channels_per_reader = 4;
  p.epoch_duration_s = 0.25;
  return p;
}

/// --replay mode: nothing but the deterministic packet log and the digest
/// on stdout, so CI can byte-diff `--shards=1` against `--shards=4`.
int run_replay(long epochs, long shards) {
  auto p = slot_params(static_cast<std::size_t>(std::max(1L, shards)));
  FleetEngine eng{p};
  eng.run_epochs(static_cast<std::size_t>(std::max(1L, epochs)));
  eng.flush();
  for (const auto& pkt : eng.packet_log()) {
    std::printf("%llu %lld %d %u %u %u %d\n",
                static_cast<unsigned long long>(pkt.epoch),
                static_cast<long long>(pkt.slot), pkt.reader, pkt.tag,
                pkt.seq, pkt.channel, pkt.overheard ? 1 : 0);
  }
  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(eng.digest()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const long replay = parse_flag(argc, argv, "--replay", 0);
  const long shards_flag = parse_flag(argc, argv, "--shards", 0);
  if (replay > 0) return run_replay(replay, shards_flag);

  const auto epochs =
      static_cast<std::size_t>(parse_flag(argc, argv, "--epochs", 4));
  const auto slot_epochs =
      static_cast<std::size_t>(parse_flag(argc, argv, "--slot-epochs", 24));
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  bench::Report report{"fleet"};
  report.gauge("fleet.host_cores", static_cast<double>(cores));

  // ---- 1. waveform weak scaling -----------------------------------------
  std::printf("waveform weak scaling (%zu epochs x 0.25 s, 4 ch/reader, "
              "%u cores)\n", epochs, cores);
  std::vector<double> wall_s;
  std::vector<double> epoch_ms_r4;
  for (const std::size_t readers : {1u, 2u, 4u}) {
    FleetEngine eng{waveform_params(readers)};
    // One run_epochs(1) call per epoch, each timed, so the 4-reader fleet
    // also yields its epoch-latency distribution.
    double wall = 0.0;
    for (std::size_t e = 0; e < epochs; ++e) {
      const double t0 = now_s();
      eng.run_epochs(1);
      const double dt = now_s() - t0;
      wall += dt;
      if (readers == 4) epoch_ms_r4.push_back(dt * 1e3);
    }
    eng.flush();
    wall_s.push_back(wall);
    const auto s = eng.stats();
    const double tags_per_s =
        wall > 0.0 ? static_cast<double>(s.packets) / wall : 0.0;
    std::printf("  R=%zu  packets=%llu  wall=%.3f s  tags/s=%.1f\n", readers,
                static_cast<unsigned long long>(s.packets), wall, tags_per_s);
    const std::string tag = "fleet.r" + std::to_string(readers);
    report.metric(tag + ".wall_s", wall, "s");
    report.metric(tag + ".tags_per_s", tags_per_s, "1/s");
    report.counter(tag + ".packets", s.packets);
  }
  // Weak scaling: ideal wall at R readers = wall(1) * R / min(R, cores).
  const auto efficiency = [&](std::size_t idx, std::size_t readers) {
    const double ideal = wall_s[0] * static_cast<double>(readers) /
                         static_cast<double>(std::min<unsigned>(
                             static_cast<unsigned>(readers), cores));
    return wall_s[idx] > 0.0 ? ideal / wall_s[idx] : 0.0;
  };
  const double eff2 = efficiency(1, 2);
  const double eff4 = efficiency(2, 4);
  std::printf("  parallel efficiency  R=2: %.2f  R=4: %.2f "
              "(normalized to %u cores)\n\n", eff2, eff4, cores);
  report.metric("fleet.efficiency_2", eff2);
  report.metric("fleet.efficiency_4", eff4);

  // ---- 2. slot-mode coordination ----------------------------------------
  std::printf("slot-mode coordination (4 readers, %zu epochs, overlap on)\n",
              slot_epochs);
  std::vector<std::uint64_t> digests;
  FleetEngine::Stats coord{};
  for (const std::size_t shards : {1u, 2u, 4u}) {
    FleetEngine eng{slot_params(shards)};
    eng.run_epochs(slot_epochs);
    eng.flush();
    digests.push_back(eng.digest());
    if (shards == 4) coord = eng.stats();
  }
  const bool shard_det = digests[0] == digests[1] && digests[1] == digests[2];
  std::printf("  digest shards={1,2,4}: %016llx %016llx %016llx  %s\n",
              static_cast<unsigned long long>(digests[0]),
              static_cast<unsigned long long>(digests[1]),
              static_cast<unsigned long long>(digests[2]),
              shard_det ? "BIT-EXACT" : "DIVERGED");
  std::printf("  packets=%llu handoffs=%llu dup_suppressed=%llu "
              "conflicts=%llu tdma_muted=%llu\n",
              static_cast<unsigned long long>(coord.packets),
              static_cast<unsigned long long>(coord.handoffs),
              static_cast<unsigned long long>(coord.dup_suppressed),
              static_cast<unsigned long long>(coord.conflicts),
              static_cast<unsigned long long>(coord.tdma_muted));
  report.gauge("fleet.shard_determinism", shard_det ? 1.0 : 0.0);
  report.counter("fleet.packets", coord.packets);
  report.counter("fleet.handoffs", coord.handoffs);
  report.counter("fleet.dup_suppressed", coord.dup_suppressed);
  report.counter("fleet.conflicts_planner_on", coord.conflicts);

  // Planner off: adjacent readers collide on the shared grid.
  {
    auto p = slot_params(4);
    p.planner_enabled = false;
    FleetEngine eng{p};
    eng.run_epochs(slot_epochs);
    eng.flush();
    std::printf("  planner off: conflicts=%llu (censored co-channel "
                "reports)\n",
                static_cast<unsigned long long>(eng.stats().conflicts));
    report.counter("fleet.conflicts_planner_off", eng.stats().conflicts);
  }

  // Parity: with disjoint coverage the fleet log must equal the merge of
  // four single-reader engines carved from the same global topology.
  bool parity = true;
  {
    auto p = slot_params(4);
    p.neighbor_gain = 0.0;
    FleetEngine whole{p};
    whole.run_epochs(slot_epochs);
    whole.flush();
    std::vector<fleet::FleetPacket> merged;
    for (int r = 0; r < 4; ++r) {
      auto q = p;
      q.readers = 1;
      q.shards = 1;
      q.first_reader_id = r;
      q.total_readers = 4;
      FleetEngine single{q};
      single.run_epochs(slot_epochs);
      single.flush();
      merged.insert(merged.end(), single.packet_log().begin(),
                    single.packet_log().end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const fleet::FleetPacket& x,
                        const fleet::FleetPacket& y) {
                       if (x.epoch != y.epoch) return x.epoch < y.epoch;
                       if (x.reader != y.reader) return x.reader < y.reader;
                       return x.slot < y.slot;
                     });
    parity = !whole.packet_log().empty() && whole.packet_log() == merged;
    std::printf("  single-reader parity: %s (%zu packets)\n\n",
                parity ? "EXACT" : "MISMATCH", whole.packet_log().size());
  }
  report.gauge("fleet.parity", parity ? 1.0 : 0.0);

  // ---- 3. epoch latency ---------------------------------------------------
  if (!epoch_ms_r4.empty()) {
    const sim::Percentiles p{epoch_ms_r4};
    std::printf("epoch wall time @4 readers: p50=%.1f ms  p99=%.1f ms  "
                "max=%.1f ms\n", p.at(0.5), p.at(0.99), p.at(1.0));
    report.metric("fleet.epoch_ms_p50", p.at(0.5), "ms");
    report.metric("fleet.epoch_ms_p99", p.at(0.99), "ms");
    report.metric("fleet.epoch_ms_max", p.at(1.0), "ms");
  }

  report.write();
  std::printf("sidecar: %s\n", report.path().c_str());
  return 0;
}
