#!/usr/bin/env python3
"""Compares two sets of ledger result files (see README.md).

    python3 bench/ledger/compare.py PARENT CHANGE
    python3 bench/ledger/compare.py --repeat FIRST SECOND
    python3 bench/ledger/compare.py --save BASELINE RESULTS

PARENT, CHANGE, FIRST, SECOND and RESULTS are directories of the
LEDGER_<workload>.<e2e|trace>.seed<N>.json files run.py writes, or a
baseline file bundling such runs (bench/ledger/baseline.json); --save
writes one. Runs pair up by workload, trace mode and seed.

Default mode prints one row per workload and metric with a verdict:
  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), the medians differ by more than
              the parent's interquartile range, and the change's runs
              failed no more operations than the parent's;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (per-layer metrics and
              DIAGNOSTICS, which have no bound: it loses 9 in 10 pairs by
              more than the IQR);
              for the metrics in EXACT, a seed on which neither run dropped
              anything reads worse at all; for `failed`, the change fails
              more than FAILED_SHARE of its attempted operations beyond the
              parent's count;
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run;
  unchanged   otherwise.
Exits 1 when anything regressed.

--repeat checks that two sets of runs of the same code agree: every bounded
metric's medians within its bound, and the EXACT metrics identical on every
seed on which neither run dropped anything (where some run did, their
medians within the bound, if the metric has one). Exits 1 on any
disagreement.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
# Deterministic per seed while the front half drops nothing: the input is a
# pure function of the seed and the decode does not depend on timing. A
# host stall can make ReaderService shed blocks, and then they differ.
EXACT = ("delivery_ratio", "spurious_packets", "reader.steady_allocs")
# The failures a change may add, as a share of its attempted operations,
# before `failed` counts as regressed.
FAILED_SHARE = 0.001
RECORD_KEYS = ("schema", "workload", "trace", "seed", "correct",
               "attempted", "failed", "metrics", "diagnostics")
# Rows the untraced run records beside the end-to-end metrics, with no
# bound: on a shared host they do not repeat well enough for one.
DIAGNOSTICS = {"emit_p99_ms": {"name": "emit_p99_ms", "better": "lower"}}


def results(path):
    """The result records in a directory of result files or a baseline."""
    if path.is_file():
        return json.loads(path.read_text())["runs"]
    records = []
    for f in sorted(path.glob("LEDGER_*.json")):
        r = json.loads(f.read_text())
        if r.get("schema") == "arachnet.ledger.v1":
            records.append(r)
    return records


def load(path):
    """{(workload, trace, seed): record} over every result record, its
    diagnostics merged into its metrics."""
    runs = {}
    for r in results(path):
        r["metrics"] = {**r["metrics"], **r["diagnostics"]}
        runs[(r["workload"], r["trace"], r["seed"])] = r
    return runs


def series(runs, workload, trace, name):
    """{seed: value} of one metric (or of `failed`) of one workload."""
    out = {}
    for (w, t, seed), r in runs.items():
        if w != workload or t != trace:
            continue
        if name == "failed":
            out[seed] = r["failed"]
        elif name in r["metrics"]:
            out[seed] = r["metrics"][name]["value"]
    return out


def keys(runs, rows, order):
    """(workload, trace, metric) present in `runs`, in catalog order."""
    found = set()
    for (w, t, _), r in runs.items():
        found.add((w, t, "failed"))
        found.update((w, t, name) for name in r["metrics"] if name in rows)
    names = list(rows)
    return sorted(found, key=lambda k: (
        order.index(k[0]) if k[0] in order else 99, k[1],
        -1 if k[2] == "failed" else names.index(k[2])))


def save(out, path):
    """Bundles a directory of result files into a baseline file."""
    records = results(path)
    if not records:
        print("compare.py: no ledger result files found", file=sys.stderr)
        return 2
    runs = [{k: r[k] for k in RECORD_KEYS} for r in records]
    # One run per line, so a re-measured baseline diffs run by run.
    out.write_text(
        '{"schema": "arachnet.ledger.baseline.v1",\n'
        f' "provenance": {json.dumps(records[0]["provenance"])},\n'
        ' "runs": [\n' + ",\n".join("  " + json.dumps(r) for r in runs) +
        "\n ]}\n")
    print(f"compare.py: {len(records)} runs -> {out}")
    return 0


def spec():
    data = json.loads(BENCHMARK.read_text())
    rows = {r["name"]: r for r in data["end_to_end"] + data["per_layer"]}
    rows.update(DIAGNOSTICS)
    rows["failed"] = {"name": "failed", "better": "lower"}
    order = [w["name"] for w in data["workloads"]]
    return rows, order


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, lower):
    """True when a reads better than b."""
    return a < b if lower else a > b


def no_drops(a, b, workload, trace):
    """Seeds on which neither set's run failed an operation."""
    fa, fb = series(a, workload, trace, "failed"), series(b, workload,
                                                          trace, "failed")
    return {s for s in set(fa) & set(fb) if fa[s] == 0 and fb[s] == 0}


def attempted(runs, workload, trace, seeds):
    return sum(r["attempted"] for (w, t, s), r in runs.items()
               if w == workload and t == trace and s in seeds)


def verdict(parent, change, row, exact_seeds, more_failed, attempts):
    """Verdict for one metric of one workload, paired by seed."""
    lower = row["better"] == "lower"
    bound = row.get("bound")
    seeds = sorted(set(parent) & set(change))
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    mp, mc = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    iqr = q3 - q1
    wins = sum(better(cv, pv, lower) for pv, cv in zip(p, c))
    losses = sum(better(pv, cv, lower) for pv, cv in zip(p, c))
    n = len(seeds)
    gap = abs(mc - mp)
    result = (mp, mc, wins, n)
    if row["name"] == "failed":
        if sum(c) - sum(p) > FAILED_SHARE * attempts:
            return ("regressed",) + result
        return ("unchanged",) + result
    if row["name"] in EXACT and any(
            better(parent[s], change[s], lower) for s in exact_seeds):
        return ("regressed",) + result
    if (n >= 10 and wins >= 0.9 * n and gap > iqr and better(mc, mp, lower)
            and not more_failed):
        return ("improved",) + result
    if bound is None:
        if n >= 10 and losses >= 0.9 * n and gap > iqr:
            return ("regressed",) + result
        return ("unchanged",) + result
    scale = abs(mp) if mp else 1.0
    worse = (mc - mp if lower else mp - mc) / scale
    all_better = all(better(cv, pv, lower) for cv in c for pv in p)
    if iqr / scale > bound and not all_better:
        return ("unresolved",) + result
    if worse > bound:
        return ("regressed",) + result
    return ("unchanged",) + result


def compare(parent, change, rows, order):
    print(f"{'workload':12} {'metric':38} {'parent':>12} {'change':>12} "
          f"{'diff':>8} {'wins':>6}  verdict")
    regressed = False
    for workload, trace, name in keys(parent, rows, order):
        p = series(parent, workload, trace, name)
        c = series(change, workload, trace, name)
        seeds = set(p) & set(c)
        if not seeds:
            continue
        fp = series(parent, workload, trace, "failed")
        fc = series(change, workload, trace, "failed")
        more_failed = sum(fc[s] for s in seeds) > sum(fp[s] for s in seeds)
        v, mp, mc, wins, n = verdict(
            p, c, rows[name], no_drops(parent, change, workload, trace) & seeds,
            more_failed, attempted(change, workload, trace, seeds))
        if mp == 0 and mc == 0 and name != "failed":
            continue  # a layer both sides bypass
        diff = (mc - mp) / abs(mp) * 100 if mp else 0.0
        label = name if name != "failed" or not trace else "failed (traced)"
        print(f"{workload:12} {label:38} {mp:12.6g} {mc:12.6g} "
              f"{diff:+7.2f}% {wins:>3}/{n:<3} {v}")
        regressed = regressed or v == "regressed"
    return 1 if regressed else 0


def repeat(first, second, rows, order):
    print(f"{'workload':12} {'metric':38} {'first':>12} {'second':>12} "
          f"{'diff':>8} {'bound':>6}  result")
    bad = False
    for workload, trace, name in keys(first, rows, order):
        a = series(first, workload, trace, name)
        b = series(second, workload, trace, name)
        seeds = set(a) & set(b)
        if not seeds:
            continue
        ma = statistics.median(a[s] for s in seeds)
        mb = statistics.median(b[s] for s in seeds)
        row = rows[name]
        within = "bound" in row and abs(mb - ma) <= row["bound"] * abs(ma)
        if name in EXACT:
            exact = no_drops(first, second, workload, trace) & seeds
            ok = all(a[s] == b[s] for s in exact)
            bound = "exact"
            if exact != seeds:  # seeds with drops: medians within any bound
                ok = ok and (within or "bound" not in row)
                bound = "exact*"
        elif "bound" in row:
            ok = within
            bound = f"{row['bound']:.0%}"
        else:
            continue
        diff = (mb - ma) / abs(ma) * 100 if ma else 0.0
        print(f"{workload:12} {name:38} {ma:12.6g} {mb:12.6g} {diff:+7.2f}% "
              f"{bound:>6}  {'agree' if ok else 'DISAGREE'}")
        bad = bad or not ok
    print("exact* = identical on the seeds without drops; medians over all "
          "seeds within the bound, where the metric has one")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--repeat", action="store_true",
                      help="the two sets ran the same code: check they agree")
    mode.add_argument("--save", action="store_true",
                      help="bundle SECOND's result files into FIRST")
    ap.add_argument("first", type=Path, help="parent (or first) results")
    ap.add_argument("second", type=Path, help="change (or second) results")
    args = ap.parse_args()
    if args.save:
        return save(args.first, args.second)
    rows, order = spec()
    a, b = load(args.first), load(args.second)
    if not a or not b:
        print("compare.py: no ledger result files found", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(a, b, rows, order)
    return compare(a, b, rows, order)


if __name__ == "__main__":
    sys.exit(main())
