#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
spread: the distance between the first and third quartile of the runs, as a
share of their median, next to a third of the metric's bound.

Run it from the repository root, for example:

    python3 perfbench/spread.py --workload wc-wide --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last seed")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(lo, hi + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        res = json.loads(last)
        runs.append(res)
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} {vals}", flush=True)
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{args.workload:18s} {m['name']:12s} median={med:.6g} spread={spread:.4f} "
              f"bound/3={m['bound'] / 3:.4f} {flag}")


if __name__ == "__main__":
    main()
