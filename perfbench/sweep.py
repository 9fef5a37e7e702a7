#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10                  # every workload
    python3 perfbench/sweep.py --workloads serve-point --seeds 1-5
    python3 perfbench/sweep.py --seeds 1-3 --trace 1         # per-layer run
    python3 perfbench/sweep.py --seeds 1-10 --save a.json    # keep the numbers
    python3 perfbench/sweep.py --seeds 11-20 --compare a.json # a second set
    python3 perfbench/sweep.py --seeds 1-10 --history perfbench/results/history.json --label <commit>

For each workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json, and fails
when a spread exceeds its bound. --compare takes the saved sweep of a
first set of runs and checks that this sweep's median of every metric
lies within the metric's bound of the first set's median; run on other
seeds, it also shows that the figures do not hang on the seed.

--history appends (or completes) the entry named --label in a history
file: per workload and metric the median, quartiles and run count (and
the comparison, with --compare); from a --trace 1 sweep, the tracing
overhead instead.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(cmd, workload, seed, seconds, trace, logdir):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - t0
    if logdir:
        with open(os.path.join(logdir, f"{workload}-{seed}-{trace}.log"), "w") as f:
            f.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return res, elapsed


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--save", default="", help="write the raw values and summaries to this JSON file")
    ap.add_argument("--logdir", default="", help="keep each run's standard error in this directory")
    ap.add_argument("--compare", default="", help="saved sweep (--save) of a first set of runs to compare medians with")
    ap.add_argument("--history", default="", help="history file to record this sweep in")
    ap.add_argument("--label", default="", help="name of the history entry, e.g. the commit measured")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(a.seeds)
    seconds = a.seconds or bench["run_seconds"]
    specs = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in specs}
    first_set = None
    if a.compare:
        with open(a.compare) as f:
            first_set = json.load(f)

    out = {"seeds": seeds, "seconds": seconds, "trace": a.trace, "workloads": {}}
    worst_ok = True
    for w in workloads:
        raw = {m["name"]: [] for m in specs}
        elapsed = []
        for s in seeds:
            res, dt = run_once(bench["command"], w, s, seconds, a.trace, a.logdir)
            elapsed.append(dt)
            for name in raw:
                raw[name].append(res["metrics"][name]["value"])
            print(f"# {w} seed {s}: {dt:.1f}s", flush=True)
        summary = {name: summarise(vals) for name, vals in raw.items()}
        entry = {"raw": raw, "summary": summary, "run_seconds_wall": elapsed}
        print(f"\n{w}  (wall per run: median {statistics.median(elapsed):.1f}s, max {max(elapsed):.1f}s)")
        print(f"  {'metric':30s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name, st in summary.items():
            b = bounds.get(name)
            flag = ""
            if b is not None and st["spread"] > b:
                flag, worst_ok = " OVER", False
            elif b is not None and st["spread"] > b / 3:
                flag = " >1/3"
            print(f"  {name:30s} {st['median']:14.6g} {st['q1']:14.6g} {st['q3']:14.6g} "
                  f"{st['spread']:8.4f} {b if b is not None else '':>6}{flag}")
        if a.trace == 0 and first_set and w in first_set["workloads"]:
            prev = first_set["workloads"][w]["summary"]
            cmp = {}
            for name, st in summary.items():
                before = prev[name]["median"]
                rel = abs(st["median"] - before) / before if before else float("inf")
                cmp[name] = {"median": st["median"], "first_median": before,
                             "rel_diff": rel, "within_bound": rel <= bounds[name]}
            entry["second_set"] = cmp
            bad = [n for n, c in cmp.items() if not c["within_bound"]]
            if bad:
                worst_ok = False
            print(f"  medians vs the first set (seeds {first_set['seeds']}): " +
                  ("all within bounds" if not bad else "outside bounds: " + ", ".join(bad)))
        out["workloads"][w] = entry
    if a.save:
        with open(a.save, "w") as f:
            json.dump(out, f, indent=1)
    if a.history:
        record_history(a.history, a.label, out)
    if not worst_ok:
        raise SystemExit("some spread or difference from the first set exceeds its bound")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record_history(path, label, out):
    try:
        with open(path) as f:
            history = json.load(f)
    except FileNotFoundError:
        history = {"entries": []}
    entry = next((e for e in history["entries"] if e["label"] == label), None)
    if entry is None:
        entry = {"label": label, "cpu": cpu_model(), "nproc": os.cpu_count(),
                 "run_seconds": out["seconds"], "workloads": {}}
        history["entries"].append(entry)
    for w, res in out["workloads"].items():
        we = entry["workloads"].setdefault(w, {})
        if out["trace"] == 0:
            figures = {m: {k: st[k] for k in ("median", "q1", "q3", "spread", "runs")}
                       for m, st in res["summary"].items()}
            if "second_set" in res:
                we["second_set"] = {"seeds": out["seeds"], "end_to_end": figures, "vs_first_set": res["second_set"]}
            else:
                we["seeds"] = out["seeds"]
                we["end_to_end"] = figures
        else:
            we["trace_seeds"] = out["seeds"]
            we["tracing_overhead"] = {m: {k: res["summary"][m][k] for k in ("median", "q1", "q3", "runs")}
                                      for m in ("trace.overhead_goodput_pct", "trace.overhead_p50_pct")}
    with open(path, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
