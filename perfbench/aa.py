#!/usr/bin/env python3
"""A/A check: run the benchmark on one commit several times per workload,
each run with its own seed, and report for every end-to-end metric the
median, the quartiles, and the spread (Q3 - Q1) / median against the
metric's bound from BENCHMARK.json.

    python3 perfbench/aa.py --seeds 1-10 [--workloads echo,suite] [--json out.json]

Run it from the root of a checkout. Two invocations on the same commit,
compared with --compare a.json b.json, give the second check the bound
guards: the second set's median may not be worse than the first's by more
than the bound, and no spread but setup_s's may exceed it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(bench, workloads, seed_list, trace):
    results = {}
    for w in workloads:
        runs = []
        for s in seed_list:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
            t0 = time.time()
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}")
            res = json.loads(lines[-1])
            host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), {})
            runs.append({"seed": s, "wall_s": round(time.time() - t0, 1), "host": host, **res})
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{w} seed={s} correct={res['correct']} {vals} steal={host.get('steal_share', 0):.4f}",
                  file=sys.stderr, flush=True)
        results[w] = runs
    return results


def summarise(bench, results):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for w, runs in results.items():
        rows = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                          "spread_over_bound": spread / bound, "n": len(vals)}
        out[w] = rows
    return out


def compare(bench, a, b):
    """Print, per workload and metric, both sets' medians, quartiles and
    spreads, and how much worse B's median is than A's, as a markdown
    table. Answers whether every pairing stayed within its bound."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ok = True
    print("| workload | metric | A median [Q1, Q3] | A spread | B median [Q1, Q3] | B spread "
          "| bound | B worse than A by | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in a["summary"]:
        for name, ra in a["summary"][w].items():
            rb = b["summary"][w][name]
            worse = (rb["median"] - ra["median"]) / ra["median"]
            if better[name] == "higher":
                worse = -worse
            spreads_ok = name == "setup_s" or max(ra["spread"], rb["spread"]) <= ra["bound"]
            verdict = "ok" if worse <= ra["bound"] and spreads_ok else "FAIL"
            ok &= verdict == "ok"
            print(f"| {w} | {name} | {ra['median']:.6g} [{ra['q1']:.6g}, {ra['q3']:.6g}] | {ra['spread']:.4f} "
                  f"| {rb['median']:.6g} [{rb['q1']:.6g}, {rb['q3']:.6g}] | {rb['spread']:.4f} "
                  f"| {ra['bound']} | {worse:+.4f} | {verdict} |")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default="")
    ap.add_argument("--compare", nargs=2, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as f:
                docs.append(json.load(f))
        return 0 if compare(bench, *docs) else 1
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    results = run_set(bench, workloads, seeds(args.seeds), args.trace)
    summary = summarise(bench, results)
    worst = 0.0
    for w, rows in summary.items():
        for name, r in rows.items():
            mark = "" if name == "setup_s" or r["spread"] <= r["bound"] / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, r["spread_over_bound"])
            print(f"{w:7s} {name:15s} median={r['median']:.6g} q1={r['q1']:.6g} q3={r['q3']:.6g} "
                  f"spread={r['spread']:.4f} bound={r['bound']}{mark}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"summary": summary, "runs": results}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
