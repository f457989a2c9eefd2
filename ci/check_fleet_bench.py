#!/usr/bin/env python3
"""CI gate over the fleet-scale multi-reader engine bench.

Reads the arachnet.bench.v1 JSONL sidecar BENCH_fleet.json and asserts
the fleet engine's scaling and coordination contract:

  1. determinism — fleet.shard_determinism == 1: the slot-mode packet log
     digest is identical at shard widths 1, 2 and 4 (worker scheduling
     never leaks into results). The workflow additionally byte-diffs
     `bench_fleet --replay=K --shards=1` against `--shards=4`.
  2. parity      — fleet.parity == 1: with disjoint coverage the fleet
     log equals the deterministic merge of four single-reader engines.
  3. scaling     — fleet.efficiency_4 >= 0.7: weak-scaling parallel
     efficiency at 4 readers, already normalized by the bench to
     min(4, host cores) so a small runner is held to the same standard
     per core as a wide one (fleet.host_cores reports the divisor's
     input).
  4. coordination liveness — handoffs > 0 and dup_suppressed > 0 in the
     overlap scenario (the primitives actually engaged), and
     conflicts_planner_on == 0 while conflicts_planner_off > 0 (the
     planner is both necessary and sufficient against co-channel
     collisions).
  5. throughput liveness — fleet.r4.packets > 0: the 4-reader waveform
     fleet decoded real uplink packets end to end.

Usage: check_fleet_bench.py BENCH_fleet.json
"""

import sys

import sidecar

MIN_EFFICIENCY_4 = 0.7


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    m = sidecar.load(sys.argv[1])

    required = [
        "fleet.host_cores", "fleet.shard_determinism", "fleet.parity",
        "fleet.efficiency_4", "fleet.handoffs", "fleet.dup_suppressed",
        "fleet.conflicts_planner_on", "fleet.conflicts_planner_off",
        "fleet.r4.packets", "fleet.r4.tags_per_s", "fleet.epoch_ms_p50",
        "fleet.epoch_ms_p99",
    ]
    failures = []
    missing = [name for name in required if name not in m]
    if missing:
        failures.append(f"missing sidecar rows: {', '.join(missing)}")
    else:
        if m["fleet.shard_determinism"] != 1:
            failures.append("determinism: packet log digest diverged "
                            "across shard widths 1/2/4")
        if m["fleet.parity"] != 1:
            failures.append("parity: fleet log != merged single-reader "
                            "references")
        if m["fleet.efficiency_4"] < MIN_EFFICIENCY_4:
            failures.append(
                f"scaling: efficiency at 4 readers "
                f"{m['fleet.efficiency_4']:.3f} < {MIN_EFFICIENCY_4} "
                f"(host cores {m['fleet.host_cores']:.0f})")
        if m["fleet.handoffs"] <= 0:
            failures.append("coordination: no handoffs in the overlap "
                            "scenario")
        if m["fleet.dup_suppressed"] <= 0:
            failures.append("coordination: no duplicates suppressed in "
                            "the overlap scenario")
        if m["fleet.conflicts_planner_on"] != 0:
            failures.append(
                f"planner: {m['fleet.conflicts_planner_on']:.0f} co-channel "
                "conflicts with the planner enabled")
        if m["fleet.conflicts_planner_off"] <= 0:
            failures.append("planner: planner-off control produced no "
                            "conflicts (the scenario is not exercising "
                            "interference)")
        if m["fleet.r4.packets"] <= 0:
            failures.append("throughput: 4-reader waveform fleet decoded "
                            "no packets")
        p50, p99 = m["fleet.epoch_ms_p50"], m["fleet.epoch_ms_p99"]
        if p50 > p99:
            failures.append(f"latency: p50 {p50:.3f} ms > p99 {p99:.3f} ms")

        print("fleet gate:")
        print(f"  host cores          {m['fleet.host_cores']:.0f}")
        print(f"  shard determinism   "
              f"{'bit-exact' if m['fleet.shard_determinism'] == 1 else 'DIVERGED'}")
        print(f"  single-reader parity "
              f"{'exact' if m['fleet.parity'] == 1 else 'MISMATCH'}")
        print(f"  efficiency @4       {m['fleet.efficiency_4']:.3f}")
        print(f"  waveform throughput {m['fleet.r4.tags_per_s']:.1f} tags/s "
              f"({m['fleet.r4.packets']:.0f} packets)")
        print(f"  epoch latency       p50 {p50:.3f} ms, p99 {p99:.3f} ms")
        print(f"  handoffs            {m['fleet.handoffs']:.0f}")
        print(f"  dup suppressed      {m['fleet.dup_suppressed']:.0f}")
        print(f"  conflicts on/off    {m['fleet.conflicts_planner_on']:.0f} / "
              f"{m['fleet.conflicts_planner_off']:.0f}")

    if failures:
        for f in failures:
            print(f"::error::fleet gate: {f}")
        return 1
    print("fleet gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
