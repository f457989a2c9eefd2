#!/usr/bin/env python3
"""CI gate: judges the bench sidecars against a rules file.

Usage: perf_gate.py RULES DIR

DIR holds the arachnet.bench.v1 sidecars (DIR/BENCH_*.json) the CI bench
steps write. Every line of every sidecar must be one such record: any
other line, a blank one included, exits 2 before a check is judged. Rows
are keyed by bench and name, so two benches may report the same row name.

Each line of RULES is one check, with its reason in a trailing comment:

  BENCH ROW OP BOUND  ROW of BENCH against BOUND, a number or another row
                      of BENCH. OP is one of == <= >= < >. The row must
                      hold a finite number: the sidecars write NaN and
                      infinity as null.
  BENCH ROW present   ROW is in BENCH's sidecar (it is reported, not
                      bounded).
  monitor FILE        DIR/FILE holds at least one arachnet.monitor.v1
                      sample, each with its anchor pair and its counters,
                      gauges and histograms.
  same FILE FILE      the two sidecars DIR/FILE hold the same records, bit
                      for bit, outside the sweep engine's own sweep.* rows.

A {a,b,...} group repeats its line once per value, and every copy of one
group in a line takes the same value.

Exit status: 0 when every check passes; 1 when one fails, each failure
naming its bench and row; 2 on a rules line or sidecar line it cannot read.
"""

import glob
import json
import math
import operator
import os
import re
import sys

BENCH_SCHEMA = "arachnet.bench.v1"
MONITOR_SCHEMA = "arachnet.monitor.v1"
MONITOR_KEYS = ("seq", "wall_ns", "steady_ns", "dt_s", "counters", "gauges",
                "histograms")
OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge,
       "<": operator.lt, ">": operator.gt}


class Unreadable(Exception):
    """A rules line or sidecar line the gate cannot judge (exit 2)."""


def records(path, schema):
    """The records of one JSON-lines file, each carrying `schema`."""
    try:
        with open(path) as f:
            lines = f.read().split("\n")
    except OSError as e:
        raise Unreadable(f"{path}: {e.strerror}")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line
    out = []
    for i, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        if not isinstance(rec, dict) or rec.get("schema") != schema:
            raise Unreadable(f"{path}:{i}: not an {schema} record: {line!r}")
        out.append(rec)
    return out


def expand(line):
    """`line` once per value of its first {a,b,...} group, recursively."""
    group = re.search(r"\{([^{}]*)\}", line)
    if group is None:
        return [line]
    return [out for value in group.group(1).split(",")
            for out in expand(line.replace(group.group(0), value))]


def load_rules(path):
    """(fields, reason) for each check of the rules file, expanded."""
    with open(path) as f:
        lines = [line.partition("#") for line in f]
    return [(check.split(), reason.strip())
            for body, _, reason in lines if body.strip()
            for check in expand(body)]


def sweep_results(path):
    """A sidecar's records outside sweep.*, which differ between runs."""
    return {(r.get("bench"), r.get("kind"), r.get("name")):
            json.dumps(r, sort_keys=True)
            for r in records(path, BENCH_SCHEMA)
            if not str(r.get("name")).startswith("sweep.")}


def operand(rows, bench, name):
    """(the row's value, None) when it is a finite number, else (None, what
    is wrong with it)."""
    if (bench, name) not in rows:
        return None, f"{bench} {name} missing"
    value = rows[bench, name]
    if isinstance(value, (int, float)) and math.isfinite(value):
        return value, None
    return None, f"{bench} {name} = {json.dumps(value)}, not a finite number"


def judge(fields, rows, root):
    """(whether check `fields` passes, what it read)."""
    if len(fields) == 2 and fields[0] == "monitor":
        samples = records(os.path.join(root, fields[1]), MONITOR_SCHEMA)
        for i, rec in enumerate(samples, 1):
            missing = [key for key in MONITOR_KEYS if key not in rec]
            if missing:
                return False, f"{fields[1]}:{i} lacks {', '.join(missing)}"
        return bool(samples), f"{fields[1]} holds {len(samples)} samples"
    if len(fields) == 3 and fields[0] == "same":
        a, b = (sweep_results(os.path.join(root, p)) for p in fields[1:])
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        if differ:
            return False, "records differ: " + ", ".join(
                f"{bench} {name}" for bench, _, name in differ)
        return True, f"{len(a)} records match outside sweep.*"
    if len(fields) == 3 and fields[2] == "present":
        bench, row, _ = fields
        if (bench, row) not in rows:
            return False, f"{bench} {row} missing"
        return True, f"{bench} {row} = {json.dumps(rows[bench, row])}"
    if len(fields) != 4 or fields[2] not in OPS:
        raise Unreadable(f"rules: cannot read {' '.join(fields)!r}")
    bench, row, op, bound = fields
    lhs, wrong = operand(rows, bench, row)
    if wrong:
        return False, wrong
    try:
        rhs = float(bound)
    except ValueError:
        rhs, wrong = operand(rows, bench, bound)
        if wrong:
            return False, wrong
        bound = f"{bound} = {rhs:g}"
    return OPS[op](lhs, rhs), f"{bench} {row} = {lhs:g}, wants {op} {bound}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    rules_path, root = argv[1:]
    rows = {}
    try:
        for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
            for rec in records(path, BENCH_SCHEMA):
                rows[rec.get("bench"), rec.get("name")] = rec.get("value")
        verdicts = [(reason, *judge(fields, rows, root))
                    for fields, reason in load_rules(rules_path)]
    except (Unreadable, OSError) as e:
        print(f"::error::perf gate: {e}")
        return 2
    failed = 0
    for reason, passed, read in verdicts:
        if passed:
            print(f"ok    {read}")
        else:
            print(f"::error::perf gate: {read} ({reason})")
            failed += 1
    print(f"perf gate: {len(verdicts) - failed} of {len(verdicts)} checks pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
