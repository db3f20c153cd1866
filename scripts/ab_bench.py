#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two checkouts.

Runs `python3 perfbench/run.py --workload W --seed S+i --seconds T` in the
parent checkout and in the change checkout for pairs i = 0 .. N-1, one
process at a time, with the parent first in even pairs and the change first
in odd ones.  Both sides of a pair get the same seed.  Only the last line of
each run's standard output is read, as the benchmark's JSON result.

For every end-to-end metric of the change checkout's BENCHMARK.json it
prints each side's median and quartiles and how many pairs the change won
(ties count for neither side).  A gain holds when there are at least 10
pairs, the change won at least nine tenths of them and the medians differ
by more than the distance between the parent's quartiles.  A metric is
worse when the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json, taken as a fraction of the parent's
median.  The last line of standard output is one JSON object with the same
figures plus each side's per-pair values, the form a BENCH_<n>.json file
collects.

Usage: python3 scripts/ab_bench.py --parent DIR --change DIR --workload W
       --pairs N --seed S [--seconds T]

--seconds defaults to run_seconds in BENCHMARK.json.  Exits 1 if a run fails
or reports "correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{checkout}: run reported correct = false: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}

    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_once(sides[side], args.workload, args.seed + i, seconds))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                print(f"pair {i} {side}: {exc}", file=sys.stderr)
                return 1
        shown = "  ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.4g}->{runs['change'][-1][m['name']]:.4g}"
            for m in metrics
        )
        print(f"pair {i} seed {args.seed + i} ({order[0]} first): {shown}", flush=True)

    print(f"\nworkload {args.workload}, {args.pairs} pairs, {seconds:g} s runs")
    print(f"{'metric':<12} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} "
          f"{'change won':<11} {'gain':<5} worse")
    summary = {"workload": args.workload, "pairs": args.pairs, "seed": args.seed,
               "seconds": seconds, "metrics": {}}
    for m in metrics:
        name = m["name"]
        values = {side: [r[name] for r in runs[side]] for side in sides}
        sign = 1 if m["better"] == "lower" else -1
        won = sum(1 for p, c in zip(values["parent"], values["change"]) if sign * (p - c) > 0)
        pq, cq = quartiles(values["parent"]), quartiles(values["change"])
        gain = (args.pairs >= 10 and won >= 0.9 * args.pairs
                and sign * (pq[1] - cq[1]) > pq[2] - pq[0])
        worse = sign * (cq[1] - pq[1]) > m["bound"] * abs(pq[1])
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (pq, cq)]
        print(f"{name:<12} {cells[0]:<32} {cells[1]:<32} "
              f"{f'{won}/{args.pairs}':<11} {'yes' if gain else 'no':<5} "
              f"{'yes' if worse else 'no'}")
        summary["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            **{side: {"values": values[side], "median": q[1], "q1": q[0], "q3": q[2]}
               for side, q in (("parent", pq), ("change", cq))},
            "change_won": won,
            "gain": gain,
            "worse": worse,
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
