#!/usr/bin/env python3
"""Builds and runs the reader perf ledger (see README.md).

    python3 bench/ledger/run.py [--workload NAME] [--seed N] [--trace 0|1]
                                [--smoke] [--out DIR] [--build-type TYPE]
                                [--seconds 10]

The ledger is a CMake project of its own (bench/ledger/CMakeLists.txt)
over the library in src/; it is configured and built into build-ledger/
at the repository root before anything runs.

With --workload, runs that workload once and ends with its result line:
{"correct", "attempted", "failed", "metrics"}. Without it, runs every
workload of BENCHMARK.json, untraced and traced (or only the --trace
given), and ends with one line merging them, each metric prefixed by its
workload. Result files (metrics plus provenance) and the traced runs'
TRACE_<workload>.json go to --out (default build-ledger/results); --smoke
runs write none.

The run length is fixed in the ledger, so that two commits always measure
the same work. --seconds exists for harnesses that pass a run length; it
must be BENCHMARK.json's run_seconds, the length the ledger measures.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the ledger cannot be built or run here.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-ledger"
RUN_SECONDS = 10  # the paced phase's length (Plan::paced_s in ledger.hpp)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_type):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/ is missing: the ledger builds the library from source")
    cache = BUILD / "CMakeCache.txt"
    wanted = f"CMAKE_BUILD_TYPE:STRING={build_type}"
    if not cache.is_file() or wanted not in cache.read_text():
        step = subprocess.run(
            ["cmake", "-S", str(ROOT / "bench" / "ledger"), "-B", str(BUILD),
             f"-DCMAKE_BUILD_TYPE={build_type}"],
            stdout=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "ledger", "-j", jobs],
        stdout=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
    return BUILD / "ledger"


def commit():
    """HEAD when the repository root is a git work tree, else unknown."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    if len(top) == 2 and Path(top[0]).resolve() == ROOT:
        return top[1]
    return "unknown"


def catalog():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def run_one(binary, args, workload, trace, sha):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--trace", str(trace), "--out", str(args.out), "--commit", sha]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with status {proc.returncode}")
    return proc.returncode, lines


def check_keys(spec, result, trace, workload):
    """The printed metrics must be exactly BENCHMARK.json's set."""
    if spec is None:
        return True
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    want = {r["name"]: r["unit"] for r in rows}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        print(f"run.py: {workload}: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, units "
              f"{sorted(k for k in want if k in got and want[k] != got[k])}",
              file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", type=Path, default=BUILD / "results")
    ap.add_argument("--build-type", default="RelWithDebInfo")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = ap.parse_args()
    if args.seconds != RUN_SECONDS:
        fail(f"--seconds must be {RUN_SECONDS}: the ledger's run length is "
             "fixed")

    binary = build(args.build_type)
    args.out.mkdir(parents=True, exist_ok=True)
    spec = catalog()
    sha = commit()

    if args.workload:
        status, lines = run_one(binary, args, args.workload,
                                args.trace or 0, sha)
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        ok = check_keys(spec, result, args.trace or 0, args.workload)
        print(lines[-1])
        sys.exit(status if ok else 1)

    if spec is None:
        fail("BENCHMARK.json not found: pass --workload")
    traces = [args.trace] if args.trace is not None else (
        [0] if args.smoke else [0, 1])
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in traces:
            code, lines = run_one(binary, args, workload, trace, sha)
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]), flush=True)
            if not check_keys(spec, result, trace, workload):
                code = 1
            status = max(status, code)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    sys.exit(status)


if __name__ == "__main__":
    main()
