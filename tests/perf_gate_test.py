#!/usr/bin/env python3
"""The ci_perf_gate ctest: ci/perf_gate.py over a passing fixture and over
mutated copies of it.

The fixture holds every row ci/perf_gate.rules reads, with values rounded
from one CI run, and passes (exit 0). Each mutation must fail:
  - each rule's row pushed past its bound: exit 1, naming the bench and row;
  - each row the rules read removed: exit 1, naming the bench and row;
  - a bounded row holding null (the sidecars' NaN), NaN or infinity: exit 1;
  - a monitor sample without one of its keys: exit 1;
  - a sweep pair that differs in one record outside sweep.*: exit 1;
  - a foreign-schema line, or a blank line, in a sidecar: exit 2.

Usage: perf_gate_test.py
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "ci"))
import perf_gate  # noqa: E402

RULES = os.path.join(REPO, "ci", "perf_gate.rules")
WIDTHS = (4, 8, 16, 32)

ROWS = {
    "micro_dsp": {
        "kernel.policy": "simd", "kernel.isa": "avx2",
        "BM_PolicyPacketParity.parity": 1, "BM_BankPacketParity.parity": 1,
        **{f"BM_TierPacketParity/{n}.parity": 1 for n in WIDTHS},
        **{f"BM_DdcScalar/{d}.real_time": 4e5 for d in (32, 16, 8, 4)},
        **{f"BM_DdcSimd/{d}.real_time": 3e4 for d in (32, 16, 8, 4)},
        "BM_FdmaBankScalar.real_time": 1.4e7, "BM_FdmaBankSimd.real_time": 1.7e6,
        "BM_SynthScalar.real_time": 1.8e7, "BM_SynthSimd.real_time": 2.8e6,
        "BM_RxChainEndToEnd.packets": 528, "BM_RxChainEndToEnd.packets_fed": 528,
        **{f"BM_FdmaBankChannelizer/{n}.channelized": 1
           for n in (4, 5, 6, 7, 8, 9, 16, 32)},
        **{f"BM_FdmaBankPerChannel/{n}.real_time": t
           for n, t in ((4, 0.9e6), (8, 1.4e6), (16, 2.5e6), (32, 8.3e6))},
        **{f"BM_FdmaBankChannelizer/{n}.real_time": t
           for n, t in ((4, 1.1e6), (8, 1.2e6), (16, 1.6e6), (32, 3.1e6))},
    },
    "ext_throughput": {
        **{f"fdma.bank.{n}.{row}": 1 for n in WIDTHS
           for row in ("parity", "channelized", "chzr_f32_parity")},
        **{f"fdma.bank.{n}.chzr_f32_speedup_x": x
           for n, x in ((8, 3.8), (16, 3.0), (32, 3.1))},
        "alloc.steady_state_count": 0,
    },
    "service_soak": {
        "alloc.steady_state_count": 0, "soak.sessions": 8, "soak.workers": 4,
        "soak.blocks_processed": 800, "soak.packets": 51,
        "soak.paced_drop_rate": 0, "soak.block_ms.p50": 0.16,
        "soak.block_ms.p99": 0.4, "soak.capacity_sessions_per_core": 293,
        "soak.rss_growth_kib": 1092, "soak.monitor.overhead_pct": -5.8,
        "soak.monitor.off_samples_per_s": 5.9e8,
        "soak.monitor.on_samples_per_s": 6.0e8, "soak.monitor.samples": 3,
        "soak.monitor.period_s": 1,
        **{f"soak.stage.{stage}_ms.{p}": v
           for stage, p50, p99 in (("dispatch_wait", 0.13, 0.40),
                                   ("process", 0.10, 0.20),
                                   ("emit", 0.01, 0.02))
           for p, v in (("p50", p50), ("p99", p99))},
    },
    "fleet": {
        "fleet.host_cores": 4, "fleet.shard_determinism": 1, "fleet.parity": 1,
        "fleet.efficiency_4": 0.78, "fleet.handoffs": 200,
        "fleet.dup_suppressed": 2411, "fleet.conflicts_planner_on": 0,
        "fleet.conflicts_planner_off": 2066, "fleet.r4.packets": 64,
        "fleet.r4.tags_per_s": 2946, "fleet.epoch_ms_p50": 4.4,
        "fleet.epoch_ms_p99": 8.4,
    },
}
MONITOR = [{"schema": perf_gate.MONITOR_SCHEMA, "seq": 0, "wall_ns": 1,
            "steady_ns": 2, "dt_s": 0, "counters": {}, "gauges": {},
            "histograms": {}}]
# Fig. 15 results at --jobs 1; the parallel run differs only in sweep.*.
SWEEP = [("gauge", "sweep.jobs", 1), ("metric", "sweep.wall_ms", 8.5),
         ("metric", "sweeps.n5.p50", 41.0), ("counter", "trials.n5", 10)]
SWEEP_FILES = {"sweep-serial": SWEEP,
               "sweep-parallel": [("gauge", "sweep.jobs", 2),
                                  ("metric", "sweep.wall_ms", 5.1)] + SWEEP[2:]}


def bench_line(bench, kind, name, value):
    return json.dumps({"schema": perf_gate.BENCH_SCHEMA, "bench": bench,
                       "kind": kind, "name": name, "value": value})


def write(root, rows, monitor, sweeps, extra=""):
    """The fixture's files under `root`; `extra` ends BENCH_fleet.json."""
    for bench, named in rows.items():
        with open(os.path.join(root, f"BENCH_{bench}.json"), "w") as f:
            for name, value in named.items():
                f.write(bench_line(bench, "metric", name, value) + "\n")
            if bench == "fleet":
                f.write(extra)
    with open(os.path.join(root, "MONITOR_service_soak.jsonl"), "w") as f:
        f.writelines(json.dumps(rec) + "\n" for rec in monitor)
    for run, recs in sweeps.items():
        os.makedirs(os.path.join(root, run), exist_ok=True)
        with open(os.path.join(root, run, "BENCH_fig15_convergence.json"),
                  "w") as f:
            f.writelines(bench_line("fig15_convergence", *rec) + "\n"
                         for rec in recs)


def gate(rows=ROWS, monitor=MONITOR, sweeps=SWEEP_FILES, extra=""):
    """(exit status, output) of the gate over the fixture as given."""
    with tempfile.TemporaryDirectory() as root:
        write(root, rows, monitor, sweeps, extra)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = perf_gate.main(["perf_gate.py", RULES, root])
        return status, out.getvalue()


def pushed(op, bound):
    """A value on the wrong side of `op bound`."""
    return bound + 1 + abs(bound) if op in ("==", "<=", "<") else (
        bound - 1 - abs(bound))


def main():
    failures = []

    def expect(what, want_status, got, *named):
        status, out = got
        errors = "".join(line for line in out.splitlines(keepends=True)
                         if line.startswith("::error::"))
        if status != want_status or not all(n in errors for n in named):
            failures.append(f"{what}: exit {status}, want {want_status}"
                            f" naming {named}\n{out}")

    expect("the fixture", 0, gate())
    read = set()
    for fields, _ in perf_gate.load_rules(RULES):
        if fields[0] in ("monitor", "same"):
            continue
        bench, row = fields[:2]
        read.add((bench, row))
        if fields[2] == "present":
            continue
        op, bound = fields[2:]
        try:
            rhs = float(bound)
        except ValueError:
            read.add((bench, bound))
            rhs = ROWS[bench][bound]
        rows = copy.deepcopy(ROWS)
        rows[bench][row] = pushed(op, rhs)
        expect(f"{bench} {row} pushed past {op} {bound}", 1, gate(rows),
               f"{bench} {row}")
    for bench, row in sorted(read):
        rows = copy.deepcopy(ROWS)
        del rows[bench][row]
        expect(f"{bench} {row} removed", 1, gate(rows), f"{bench} {row}")
    if read != {(b, r) for b, named in ROWS.items() for r in named}:
        failures.append("the fixture holds rows the rules do not read")
    for value in (None, float("nan"), float("inf")):
        rows = copy.deepcopy(ROWS)
        rows["fleet"]["fleet.efficiency_4"] = value
        expect(f"fleet fleet.efficiency_4 = {value}", 1, gate(rows),
               "fleet fleet.efficiency_4")

    for key in perf_gate.MONITOR_KEYS:
        monitor = copy.deepcopy(MONITOR)
        del monitor[0][key]
        expect(f"monitor sample without {key}", 1, gate(monitor=monitor),
               "MONITOR_service_soak.jsonl:1", key)
    expect("no monitor samples", 1, gate(monitor=[]),
           "MONITOR_service_soak.jsonl holds 0 samples")
    sweeps = copy.deepcopy(SWEEP_FILES)
    sweeps["sweep-parallel"][-1] = ("counter", "trials.n5", 11)
    expect("sweep pair differing in a result", 1, gate(sweeps=sweeps),
           "fig15_convergence trials.n5")

    expect("a foreign-schema line", 2,
           gate(extra=json.dumps({"schema": "arachnet.monitor.v1"}) + "\n"),
           "BENCH_fleet.json:13")
    expect("a blank line", 2, gate(extra="\n"), "BENCH_fleet.json:13")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"perf gate test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
