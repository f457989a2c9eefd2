#!/usr/bin/env python3
"""CI gate over the steady-state allocation audit sidecar rows.

The hot decode loops promise an allocation-free steady state (DESIGN.md
Sec. 11): after one warm-up pass, re-processing an identical block
schedule must perform zero heap allocations. bench_ext_throughput (the
FdmaRxChain channelizer-bank decode loop) and bench_service_soak (the
ReaderService session loop) each measure that contract with
telemetry::CountingAllocatorGuard and report it as sidecar rows:

  alloc.warmup_count        allocations during the warm-up pass
                            (informational — scratch buffers, packet
                            lists and pools growing to their high-water
                            marks)
  alloc.steady_state_count  allocations during the measured pass —
                            gated == 0 here; any nonzero value means a
                            per-block allocation crept back into a hot
                            path.

Every supplied sidecar must carry an alloc.steady_state_count row; a
missing row fails too (a silently dropped audit would otherwise pass).

Usage: check_alloc_gate.py BENCH_ext_throughput.json [BENCH_service_soak.json ...]
"""

import sys

import sidecar


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2

    failed = False
    for path in sys.argv[1:]:
        rows = {}
        bench = path
        for rec in sidecar.records(path):
            bench = rec.get("bench", bench)
            if rec.get("name", "").startswith("alloc."):
                rows[rec["name"]] = rec["value"]

        steady = rows.get("alloc.steady_state_count")
        warmup = rows.get("alloc.warmup_count")
        print(f"{bench}: warmup={warmup} steady_state={steady}")
        if steady is None:
            print(f"::error::{bench} sidecar carries no "
                  f"alloc.steady_state_count row — the audit did not run")
            failed = True
        elif steady != 0:
            print(f"::error::{bench} allocated {steady} time(s) in steady "
                  f"state — the per-block decode loop must not touch the "
                  f"heap after warm-up")
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
