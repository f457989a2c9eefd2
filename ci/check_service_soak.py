#!/usr/bin/env python3
"""CI gate over the multi-session reader service soak bench.

Reads the arachnet.bench.v1 JSONL sidecar BENCH_service_soak.json and
asserts the ReaderService scaling contract:

  1. scale       — soak.sessions >= 8: the paced phase actually ran at
     least eight concurrent 500 kS/s sessions (the paper-scale fleet).
  2. liveness    — soak.blocks_processed > 0 and soak.packets > 0: the
     fleet decoded real packet waveforms end to end, not just moved
     buffers around.
  3. pacing      — soak.paced_drop_rate <= 0.05: under real-time pacing
     the service keeps up; drops are an overload mechanism, not the
     steady state. (The separate soak.blocks_dropped total includes the
     saturation phase, which slams the per-session caps by design, so the
     gate uses the paced-phase rate.)
  4. latency     — soak.block_ms.p99 <= 50 ms (and p50 <= p99 as a sanity
     check on the histogram read-out): end-to-end submit->decoded block
     latency stays bounded; 50 ms is 2.5 paced block periods of slack on
     a loaded CI runner.
  5. capacity    — soak.capacity_sessions_per_core >= 1.0: the saturation
     phase sustains at least one equivalent 500 kS/s stream per worker
     (decode is faster than real time per core).
  6. memory      — soak.rss_growth_kib <= 262144: resident set growth
     across the paced soak stays bounded (a leaking session fleet shows
     up here; 256 MiB leaves room for allocator noise and warm pools).

Usage: check_service_soak.py BENCH_service_soak.json
"""

import sys

import sidecar

MIN_SESSIONS = 8
MAX_PACED_DROP_RATE = 0.05
MAX_P99_MS = 50.0
MIN_CAPACITY_PER_CORE = 1.0
MAX_RSS_GROWTH_KIB = 262144


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    m = sidecar.load(sys.argv[1])

    required = [
        "soak.sessions", "soak.workers", "soak.blocks_processed",
        "soak.packets", "soak.paced_drop_rate", "soak.block_ms.p50",
        "soak.block_ms.p99", "soak.capacity_sessions_per_core",
        "soak.rss_growth_kib",
    ]
    failures = []
    missing = [name for name in required if name not in m]
    if missing:
        failures.append(f"missing sidecar rows: {', '.join(missing)}")
    else:
        if m["soak.sessions"] < MIN_SESSIONS:
            failures.append(
                f"scale: {m['soak.sessions']:.0f} sessions < {MIN_SESSIONS}")
        if m["soak.blocks_processed"] <= 0 or m["soak.packets"] <= 0:
            failures.append(
                "liveness: no blocks processed or no packets decoded "
                f"(blocks={m['soak.blocks_processed']:.0f}, "
                f"packets={m['soak.packets']:.0f})")
        if m["soak.paced_drop_rate"] > MAX_PACED_DROP_RATE:
            failures.append(
                f"pacing: paced drop rate {m['soak.paced_drop_rate']:.4f} "
                f"> {MAX_PACED_DROP_RATE}")
        p50, p99 = m["soak.block_ms.p50"], m["soak.block_ms.p99"]
        if p99 > MAX_P99_MS:
            failures.append(f"latency: p99 {p99:.3f} ms > {MAX_P99_MS} ms")
        if p50 > p99:
            failures.append(f"latency: p50 {p50:.3f} ms > p99 {p99:.3f} ms")
        if m["soak.capacity_sessions_per_core"] < MIN_CAPACITY_PER_CORE:
            failures.append(
                "capacity: "
                f"{m['soak.capacity_sessions_per_core']:.2f} sessions/core "
                f"< {MIN_CAPACITY_PER_CORE}")
        if m["soak.rss_growth_kib"] > MAX_RSS_GROWTH_KIB:
            failures.append(
                f"memory: rss growth {m['soak.rss_growth_kib']:.0f} KiB "
                f"> {MAX_RSS_GROWTH_KIB} KiB")

        print("service soak gate:")
        print(f"  sessions            {m['soak.sessions']:.0f} "
              f"over {m['soak.workers']:.0f} workers")
        print(f"  blocks processed    {m['soak.blocks_processed']:.0f} "
              f"(paced drop rate {m['soak.paced_drop_rate']:.4f})")
        print(f"  packets decoded     {m['soak.packets']:.0f}")
        print(f"  block latency       p50 {p50:.3f} ms, p99 {p99:.3f} ms")
        print(f"  capacity            "
              f"{m['soak.capacity_sessions_per_core']:.2f} sessions/core")
        print(f"  rss growth          {m['soak.rss_growth_kib']:.0f} KiB")

    if failures:
        for f in failures:
            print(f"::error::service soak gate: {f}")
        return 1
    print("service soak gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
