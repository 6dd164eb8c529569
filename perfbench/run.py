#!/usr/bin/env python3
"""Cold end-to-end benchmark of hlsvhc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--expected FILE] [--record FILE]

Run from the root of a checkout.  Builds perfbench/bench.exe with dune,
then runs the workload in fresh processes:

  --trace 0  repeats cold runs at the hlsvhc default job count (nproc)
             until S seconds are used (at least three), checks every
             run's outputs against expected.json and reports the median
             of each end-to-end metric;
  --trace 1  runs one untraced cold run plus two traced replays (jobs=1
             and jobs=nproc) and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  --record appends {workload, seed, trace, result} to
FILE as one JSON line, the input of compare.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SCRATCH = ".perfbench"
# Workload -> items of work one run attempts (see README.md).
WORKLOADS = {"fig1_cold": 100, "comply": 21000, "dse_transfo": 41}
MIN_REPS = 3
# Once built, a run ends within this many seconds: a child still running
# at the deadline is killed and counts as failed.
RUN_LIMIT_S = 170
FRONT_ENDS = ("vlog", "chisel", "bsv", "dslx", "maxj", "chls")
# Spans the library's pool runs as one job each, and the spans around
# the pooled library calls.
JOB_SPANS = ("core.measure", "core.comply.design")
POOL_SPANS = ("core.fig1", "core.comply", "dse.search")
ROOT_SPAN = "bench.run"

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of an hlsvhc checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                       env=env, stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def spawn(workload, seed, tag, deadline, jobs=None, trace=False):
    """One cold run in a fresh process: (record, spans or None, error or None)."""
    tmp = os.path.join(SCRATCH, "%d-%s" % (os.getpid(), tag))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    trace_file = os.path.join(SCRATCH, "%d-%s.trace.json" % (os.getpid(), tag))
    argv = [EXE, "--workload", workload, "--seed", str(seed), "--tmp", tmp]
    if jobs:
        argv += ["--jobs", str(jobs)]
    if trace:
        argv += ["--trace", trace_file]
    try:
        argv += ["--spawn-ns", str(time.monotonic_ns())]
        p = subprocess.run(argv, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            return None, None, "exit %d: %s" % (p.returncode, p.stderr.strip()[-400:])
        rec = json.loads(lines[-1])
        spans = None
        if trace:
            with open(trace_file) as f:
                spans = [(i, n, int(t0), int(t1), parent)
                         for i, n, t0, t1, parent in json.load(f)["spans"]]
        return rec, spans, None
    except (subprocess.TimeoutExpired, ValueError, OSError) as e:
        return None, None, "%s: %s" % (type(e).__name__, e)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.exists(trace_file):
            os.remove(trace_file)


def check(rec, expected, traced):
    """Problems with one run's outputs; an empty list means correct."""
    exp = expected[rec["workload"]]
    problems = list(rec["problems"])
    if rec["failed"]:
        problems.append("the run raised")
    for key, want in exp["outputs"].items():
        if rec["outputs"].get(key) != want:
            problems.append("output %s: got %r, expected %r"
                            % (key, rec["outputs"].get(key), want))
    pinned = dict(exp["counts"])
    if traced:
        pinned.update(exp["trace_counts"])
    for key, want in pinned.items():
        if rec["counts"].get(key) != want:
            problems.append("count %s: got %r, expected %r"
                            % (key, rec["counts"].get(key), want))
    return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, expected):
    recs, problems, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while True:
        rec, _, err = spawn(args.workload, args.seed, "r%d" % len(recs), args.deadline)
        if rec is None:
            problems.append(err)
            attempted += WORKLOADS[args.workload]
            failed += WORKLOADS[args.workload]
            break
        recs.append(rec)
        attempted += rec["items"]
        bad = check(rec, expected, traced=False)
        if bad:
            problems += bad
            failed += rec["items"]
        elapsed = time.monotonic() - start
        if len(recs) >= MIN_REPS and elapsed * (len(recs) + 1) / len(recs) > args.seconds:
            break
    if not recs:
        die("no run completed: " + "; ".join(problems))
    per_rep = {
        "wall_s": [r["wall_s"] for r in recs],
        "items_per_s": [r["items"] / r["wall_s"] for r in recs],
        "setup_s": [r["setup_s"] for r in recs],
        "cpu_s": [r["cpu_s"] for r in recs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in recs],
    }
    metrics = {k: metric(stats.median(v), END_TO_END[k]) for k, v in per_rep.items()}
    metrics["pass_ratio"] = metric(1 - failed / attempted, "ratio")
    return problems, attempted, failed, metrics


def layer_metrics(rec1, spans1, recn, spansn, rec_u):
    """The per-layer metrics of one traced run (see README.md)."""
    self1 = stats.self_times(spans1)

    def self_sum(*names):
        return sum(self1[s[0]] for s in spans1 if s[1] in names) / 1e9

    def incl(spans, names):
        return [(s[3] - s[2]) / 1e9 for s in spans if s[1] in names]

    def root_wall(spans):
        return sum(incl(spans, (ROOT_SPAN,)))

    c = rec1["counts"]
    m = {}
    for fe in FRONT_ENDS:
        m[fe + ".elab_s"] = (sum(incl(spans1, (fe + ".elab",))), "s")
        m[fe + ".designs"] = (len(incl(spans1, (fe + ".elab",))), "count")
    elab = tuple(fe + ".elab" for fe in FRONT_ENDS)
    m["core.force.wait_s"] = (sum(incl(spansn, elab)) - sum(incl(spans1, elab)), "s")
    pool_wall = sum(incl(spansn, POOL_SPANS))
    m["core.parallel.busy_ratio"] = (
        sum(incl(spansn, JOB_SPANS)) / (recn["jobs"] * pool_wall) if pool_wall else 0.0,
        "ratio")
    m["core.parallel.speedup"] = (root_wall(spans1) / root_wall(spansn), "ratio")
    probes = c.get("core.memo.probes", 0)
    m["core.memo.hit_ratio"] = (c.get("core.memo.hits", 0) / probes if probes else 0.0,
                                "ratio")
    m["core.comply.max_design_s"] = (max(incl(spans1, JOB_SPANS), default=0.0), "s")
    m["core.self_s"] = (self_sum(*(JOB_SPANS + POOL_SPANS)), "s")
    m["hw.validate_s"] = (self_sum("hw.validate"), "s")
    m["hw.sim_compile_s"] = (self_sum("hw.sim_compile"), "s")
    stream_run = self_sum("axis.stream_run")
    for k in ("hw.sim_cycles", "hw.sim_thunks", "hw.netlist_nodes", "hw.area"):
        m[k] = (c.get(k, 0), "count")
    m["hw.sim_cycles_per_s"] = (c.get("hw.sim_cycles", 0) / stream_run if stream_run else 0.0,
                                "1/s")
    m["hw.synth_s"] = (self_sum("hw.synth"), "s")
    m["axis.stream_run_s"] = (stream_run, "s")
    m["idct.ieee1180_s"] = (self_sum("idct.ieee1180"), "s")
    m["idct.verify_s"] = (self_sum("idct.stimulus", "idct.verify"), "s")
    m["idct.blocks"] = (c.get("idct.blocks", 0), "count")
    m["maxj.sim_s"] = (self_sum("maxj.manager", "maxj.simulate"), "s")
    m["transfo.apply_s"] = (self_sum("transfo.apply"), "s")
    m["transfo.verify_s"] = (self_sum("transfo.verify"), "s")
    m["transfo.steps"] = (c.get("transfo.steps", 0), "count")
    m["dse.search_s"] = (self_sum("dse.search"), "s")
    for k in ("dse.evaluated", "dse.cache_hits", "dse.frontier"):
        m[k] = (c.get(k, 0), "count")
    m["store.find_s"] = (self_sum("store.find"), "s")
    m["store.add_s"] = (self_sum("store.add"), "s")
    for k in ("store.writes", "store.hits", "store.misses", "store.bytes"):
        m[k] = (c.get(k, 0), "count")
    m["ocaml.alloc_mb"] = (rec1["alloc_mb"], "MB")
    m["ocaml.major_gcs"] = (rec1["major_gcs"], "count")
    names = {s[0]: s[1] for s in spans1}
    attributed = sum(v for sid, v in self1.items() if names[sid] != ROOT_SPAN)
    m["bench.traced_wall_s"] = (root_wall(spans1), "s")
    m["bench.unattributed_s"] = (root_wall(spans1) - attributed / 1e9, "s")
    m["bench.trace_overhead_ratio"] = (root_wall(spansn) / rec_u["wall_s"] - 1, "ratio")
    return {k: metric(v, u) for k, (v, u) in m.items()}


def run_traced(args, expected):
    problems, attempted, failed = [], 0, 0
    runs = {}
    for tag, jobs, trace in (("u", None, False), ("t1", 1, True), ("tn", None, True)):
        rec, spans, err = spawn(args.workload, args.seed, tag, args.deadline,
                                jobs=jobs, trace=trace)
        if rec is None:
            die("%s run failed: %s" % (tag, err))
        runs[tag] = (rec, spans)
        attempted += rec["items"]
        bad = check(rec, expected, traced=trace)
        if bad:
            problems += bad
            failed += rec["items"]
    (rec_u, _), (rec1, spans1), (recn, spansn) = runs["u"], runs["t1"], runs["tn"]
    # The replay describes the same work: exact counts agree between the
    # two traced passes, and with every count the untraced run reports.
    if rec1["counts"] != recn["counts"]:
        problems.append("traced counts differ between jobs=1 and jobs=%d" % recn["jobs"])
    for k, v in rec_u["counts"].items():
        if rec1["counts"].get(k) != v:
            problems.append("count %s: traced %r, untraced %r" % (k, rec1["counts"].get(k), v))
    return problems, attempted, failed, layer_metrics(rec1, spans1, recn, spansn, rec_u)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    ap.add_argument("--record", help="append the result as one JSON line to this file")
    args = ap.parse_args(argv)
    with open(args.expected) as f:
        expected = json.load(f)
    build()
    args.deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(SCRATCH, exist_ok=True)
    run = run_traced if args.trace else run_untraced
    problems, attempted, failed, metrics = run(args, expected)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
