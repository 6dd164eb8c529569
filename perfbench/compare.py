#!/usr/bin/env python3
"""Compare two perfbench result sets.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each result set is a file of JSON lines written by `run.py --record`.
Untraced records give, for every workload x end-to-end metric, each
side's median and quartiles, the fraction of pairs the new side won (runs
paired by seed) and a verdict: improved, no worse, worse or unresolved
(see stats.verdict).  Traced records give the per-layer deltas of the
medians, self times first.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def load(path):
    """{(workload, trace): [(seed, metrics)]} in file order."""
    out = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                out.setdefault((r["workload"], r["trace"]), []).append(
                    (r["seed"], r["result"]["metrics"]))
    return out


def paired(base, new, name):
    """Values of one metric, paired by seed (the i-th run of a seed on
    one side with the i-th run of that seed on the other)."""
    def by_seed(runs):
        d = {}
        for seed, m in runs:
            if name in m:
                d.setdefault(seed, []).append(m[name]["value"])
        return d
    b, n = by_seed(base), by_seed(new)
    pairs = [(x, y) for seed in sorted(set(b) & set(n)) for x, y in zip(b[seed], n[seed])]
    return [x for x, _ in pairs], [y for _, y in pairs]


def fmt(x):
    return "%.4g" % x


def compare(base, new, bench, out=sys.stdout):
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    print("%-12s %-14s %-28s %-28s %6s  %s" % (
        "workload", "metric", "base q1/med/q3", "new q1/med/q3", "won", "verdict"), file=out)
    for (workload, trace) in sorted(base):
        if trace or (workload, trace) not in new:
            continue
        for name, spec in e2e.items():
            b, n = paired(base[(workload, 0)], new[(workload, 0)], name)
            if not b:
                continue
            print("%-12s %-14s %-28s %-28s %5.0f%%  %s" % (
                workload, name,
                "/".join(fmt(v) for v in stats.quartiles(b)),
                "/".join(fmt(v) for v in stats.quartiles(n)),
                100 * stats.win_fraction(b, n, spec["better"]),
                stats.verdict(b, n, spec["better"], spec["bound"])), file=out)
    for (workload, trace) in sorted(base):
        if not trace or (workload, trace) not in new:
            continue
        print("\nper-layer medians, %s (new - base)" % workload, file=out)
        names = [m["name"] for m in bench["per_layer"]]
        names.sort(key=lambda k: (not k.endswith("_s"), k))
        for name in names:
            b, n = paired(base[(workload, 1)], new[(workload, 1)], name)
            if not b:
                continue
            mb, mn = stats.median(b), stats.median(n)
            rel = " (%+.1f%%)" % (100 * (mn - mb) / abs(mb)) if mb else ""
            print("  %-28s %12s -> %-12s %+.4g%s" % (name, fmt(mb), fmt(mn), mn - mb, rel),
                  file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args(argv)
    with open(args.benchmark) as f:
        bench = json.load(f)
    compare(load(args.base), load(args.new), bench)


if __name__ == "__main__":
    main()
