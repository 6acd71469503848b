#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command repeatedly for BENCHMARK.json's
run_seconds, one process per run and seeds 1, 2, ... in turn,
alternating the order of the workloads between rounds. For every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is
the distance between the quartiles as a share of the median. Results
are saved as JSON so that sets made at different times can be
compared; --compare prints how far each median moved between two sets.

    python3 perfbench/steady.py --runs 10                 # one set
    python3 perfbench/steady.py --runs 5 --workloads ring_wide
    python3 perfbench/steady.py --compare A.json B.json   # two sets

Run it from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def collect(args, bench):
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            seed = 1 + i
            r = run_once(bench, w, seed)
            results[w].append(r)
            brief = ", ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"[{i + 1}/{args.runs}] {w} seed {seed}: {r['elapsed_s']:.1f} s, "
                  f"attempted {r['attempted']} failed {r['failed']} {brief}", flush=True)
    return results


def report(bench, results):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for w, runs in results.items():
        summary[w] = {}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, failed share {shares}, "
              f"correct {all(r['correct'] for r in runs)}, "
              f"longest run {max(r['elapsed_s'] for r in runs):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            summary[w][name] = dict(s, values=values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f} -> " + (
                    "ok" if s["spread"] <= bound / 3 else
                    "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {name:34s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f}  {verdict}")
    return summary


def compare(bench, a_path, b_path):
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    for w in a:
        if w not in b:
            continue
        print(f"\n{w}")
        for name, sa in a[w].items():
            sb = b[w].get(name)
            if not sb or not sa["median"]:
                continue
            change = sb["median"] / sa["median"] - 1.0
            worse = change if better.get(name) == "lower" else -change
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"bound {bound:.2f} -> " + ("ok" if worse <= bound else "WORSE"))
            print(f"  {name:34s} {sa['median']:.6g} -> {sb['median']:.6g} "
                  f"({change * 100:+.1f}%)  {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    bench = load_benchmark()
    if args.compare:
        compare(bench, *args.compare)
        return
    summary = report(bench, collect(args, bench))
    out = os.path.join(ROOT, "perfbench", "out", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\nsaved {out}")


if __name__ == "__main__":
    main()
