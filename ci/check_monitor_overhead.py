#!/usr/bin/env python3
"""CI gate over the live-monitor observability contract.

Reads the arachnet.bench.v1 sidecar BENCH_service_soak.json and the
arachnet.monitor.v1 time-series MONITOR_service_soak.jsonl and asserts:

  1. overhead     — soak.monitor.overhead_pct <= 3.0: running the
     HealthMonitor at its deployed 1 s period costs the saturated decode
     path at most 3% throughput (median of paired on/off bursts, so one
     noisy burst on a shared runner cannot fail the gate). Negative
     values (noise floor) pass.
  2. sampling     — soak.monitor.samples >= 1 at period 1 s: the monitor
     actually rode along the paced phase.
  3. attribution  — the per-stage latency rows
     soak.stage.{dispatch_wait,process,emit}_ms.{p50,p99} are present,
     finite, and each stage's p50 <= its p99: the soak reports where
     inside submit -> packet the time went, not just the total.
  4. time-series  — every MONITOR_service_soak.jsonl line parses as JSON
     with schema arachnet.monitor.v1 and carries the wall/steady anchor
     pair and the counters/gauges/histograms sections.

Usage: check_monitor_overhead.py BENCH_service_soak.json \
           MONITOR_service_soak.jsonl
"""

import json
import math
import sys

import sidecar

MAX_OVERHEAD_PCT = 3.0
MONITOR_SCHEMA = "arachnet.monitor.v1"

STAGE_ROWS = [
    "soak.stage.dispatch_wait_ms.p50",
    "soak.stage.dispatch_wait_ms.p99",
    "soak.stage.process_ms.p50",
    "soak.stage.process_ms.p99",
    "soak.stage.emit_ms.p50",
    "soak.stage.emit_ms.p99",
]


def check_monitor_jsonl(path, failures):
    lines = 0
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                failures.append(f"time-series: line {i} is not JSON: {e}")
                return 0
            if rec.get("schema") != MONITOR_SCHEMA:
                failures.append(
                    f"time-series: line {i} schema "
                    f"{rec.get('schema')!r} != {MONITOR_SCHEMA!r}")
                return 0
            for key in ("seq", "wall_ns", "steady_ns", "dt_s",
                        "counters", "gauges", "histograms"):
                if key not in rec:
                    failures.append(
                        f"time-series: line {i} missing key {key!r}")
                    return 0
            lines += 1
    if lines == 0:
        failures.append("time-series: MONITOR jsonl has no samples")
    return lines


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    m = sidecar.load(sys.argv[1])

    failures = []
    required = [
        "soak.monitor.overhead_pct",
        "soak.monitor.off_samples_per_s",
        "soak.monitor.on_samples_per_s",
        "soak.monitor.samples",
        "soak.monitor.period_s",
    ] + STAGE_ROWS
    missing = [name for name in required if name not in m]
    if missing:
        failures.append(f"missing sidecar rows: {', '.join(missing)}")
    else:
        overhead = m["soak.monitor.overhead_pct"]
        if overhead > MAX_OVERHEAD_PCT:
            failures.append(
                f"overhead: monitor-on throughput {overhead:.2f}% below "
                f"monitor-off (budget {MAX_OVERHEAD_PCT}%)")
        if m["soak.monitor.samples"] < 1:
            failures.append("sampling: monitor took no samples in the "
                            "paced phase")
        for stage in ("dispatch_wait", "process", "emit"):
            p50 = m[f"soak.stage.{stage}_ms.p50"]
            p99 = m[f"soak.stage.{stage}_ms.p99"]
            if not (math.isfinite(p50) and math.isfinite(p99)):
                failures.append(f"attribution: {stage} percentiles not "
                                f"finite (p50={p50}, p99={p99})")
            elif p50 > p99:
                failures.append(
                    f"attribution: {stage} p50 {p50:.3f} ms > "
                    f"p99 {p99:.3f} ms")

        samples = check_monitor_jsonl(sys.argv[2], failures)

        print("monitor overhead gate:")
        print(f"  overhead            {overhead:.2f}% "
              f"(off {m['soak.monitor.off_samples_per_s'] / 1e6:.2f} MS/s, "
              f"on {m['soak.monitor.on_samples_per_s'] / 1e6:.2f} MS/s, "
              f"budget {MAX_OVERHEAD_PCT}%)")
        print(f"  paced-phase samples {m['soak.monitor.samples']:.0f} "
              f"at {m['soak.monitor.period_s']:.1f} s period "
              f"({samples} jsonl lines)")
        for stage in ("dispatch_wait", "process", "emit"):
            print(f"  stage {stage:<14}"
                  f"p50 {m[f'soak.stage.{stage}_ms.p50']:.3f} ms, "
                  f"p99 {m[f'soak.stage.{stage}_ms.p99']:.3f} ms")

    if failures:
        for f in failures:
            print(f"::error::monitor overhead gate: {f}")
        return 1
    print("monitor overhead gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
