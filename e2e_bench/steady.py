#!/usr/bin/env python3
"""Steadiness check: run one workload in two sets of runs and compare.

    python3 e2e_bench/steady.py --workload oltp [--runs 10] [--seconds S]

Run from the repository root. Each run is `e2e_bench/run.py` with its own
seed (set A: 1, 2, ...; set B: 1001, 1002, ...). For every end-to-end
metric in BENCHMARK.json it prints each set's median and quartiles, the
spread (quartile distance / median) of each set, and how far set B's
median is from set A's, against the metric's bound. A metric is STEADY
when both spreads are within the bound and the two medians differ, in
either direction, by no more than the bound. It also checks that both
sets fail the same share of operations. Exit status 0 when every metric
is steady.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED_A, SEED_B = 1, 1001  # first seed of each set


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {p.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    sets = {"A": [], "B": []}
    for i in range(a.runs):  # alternate the sets so drift hits both alike
        for name, base in (("A", SEED_A), ("B", SEED_B)):
            r = run(a.workload, base + i, seconds)
            sets[name].append(r)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"  set {name} seed {base + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {values}",
                  file=sys.stderr)

    ok = True
    shares = {n: {r["failed"] / r["attempted"] for r in rs} for n, rs in sets.items()}
    if len(shares["A"] | shares["B"]) != 1:
        print(f"failed share differs between runs: {shares}")
        ok = False
    if not all(r["correct"] for rs in sets.values() for r in rs):
        print("a run reported correct=false")
        ok = False

    print(f"workload {a.workload}: {a.runs} + {a.runs} runs of {seconds} s")
    print(f"{'metric':22} {'A median':>11} {'A q1..q3':>23} {'A spr':>6} "
          f"{'B median':>11} {'B spr':>6} {'B vs A':>7} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va = [r["metrics"][name]["value"] for r in sets["A"]]
        vb = [r["metrics"][name]["value"] for r in sets["B"]]
        ma, q1a, q3a, sa = summary(va)
        mb, _, _, sb = summary(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        steady = abs(worse) <= bound and sa <= bound and sb <= bound
        ok &= steady
        print(f"{name:22} {ma:11.4g} {q1a:11.4g}..{q3a:<11.4g} {sa:6.3f} "
              f"{mb:11.4g} {sb:6.3f} {worse:+7.3f} {bound:6.2f}  "
              f"{'STEADY' if steady else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
