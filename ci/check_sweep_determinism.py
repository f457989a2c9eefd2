#!/usr/bin/env python3
"""CI gate for the sweep engine's determinism contract.

Compares two BENCH_*.json sidecars (arachnet.bench.v1) produced by the
same bench at different --jobs values. Every result record must match
exactly — bit-identical values, same record set — because the sweep
engine derives each trial's RNG stream from its grid cell, never from
scheduling. Records whose name starts with "sweep." are excluded: those
are the engine's own timing/parallelism rows and legitimately differ.

Usage: check_sweep_determinism.py serial/BENCH_x.json parallel/BENCH_x.json
"""

import json
import sys

import sidecar


def load(path):
    records = {}
    for rec in sidecar.records(path):
        name = rec["name"]
        if name.startswith("sweep."):
            continue  # engine timing rows, not results
        # Compare the full record minus the name key ordering.
        records[(rec.get("kind"), name)] = json.dumps(rec, sort_keys=True)
    return records


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2

    a, b = load(sys.argv[1]), load(sys.argv[2])
    failed = False
    for key in sorted(set(a) | set(b)):
        if key not in a:
            print(f"::error::record {key} only in {sys.argv[2]}")
            failed = True
        elif key not in b:
            print(f"::error::record {key} only in {sys.argv[1]}")
            failed = True
        elif a[key] != b[key]:
            print(
                f"::error::sweep result diverged across --jobs for {key}:\n"
                f"  serial:   {a[key]}\n  parallel: {b[key]}"
            )
            failed = True

    if failed:
        return 1
    print(f"{len(a)} result records bit-identical across --jobs values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
