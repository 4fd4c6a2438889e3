#!/usr/bin/env python3
"""Paired end-to-end benchmark runs of two checkouts of ctxkit.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2] \\
        --seeds 11 12 13 --out BENCH_<n>.json

For each workload and seed it runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` in both checkouts, one run at a time,
alternating which side goes first from one seed to the next.  ``T`` is the
``run_seconds`` of the change's ``BENCHMARK.json``, the same on both sides.
Each run's end-to-end metrics (the ``end_to_end`` names of that file),
``attempted``, ``failed`` and ``correct`` go to the output file, with per
workload the median and the first and third quartiles (``statistics.quantiles``,
inclusive method) of each metric on each side, and the number of pairs
the change won.  A difference in medians is read against the distance
between the parent's quartiles, so fewer than two seeds is an argument
error (exit 2), raised before any run.  A run that exits non-zero stops
the script with its stderr, and a run whose own check failed (``correct``
false) stops it with its last line, so that neither enters the medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, names: list[str]) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    last = done.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} in {checkout} failed its benchmark check:\n{last}")
    run = {name: result["metrics"][name]["value"] for name in names}
    run.update({key: result[key] for key in ("attempted", "failed", "correct")})
    return run


def summary(pairs: list[dict], metrics: list[dict]) -> dict:
    values = {side: {m["name"]: [p[side][m["name"]] for p in pairs] for m in metrics} for side in SIDES}
    medians = {side: {name: statistics.median(v) for name, v in values[side].items()} for side in SIDES}
    quartiles = {side: {name: statistics.quantiles(v, n=4, method="inclusive")[::2] for name, v in values[side].items()}
                 for side in SIDES}
    wins = {}
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        wins[m["name"]] = sum(sign * (p["change"][m["name"]] - p["parent"][m["name"]]) > 0 for p in pairs)
    return {"median": medians, "quartiles": quartiles, "change_wins": wins, "pairs": len(pairs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds: the quartiles of a side need two runs")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    names = [m["name"] for m in metrics]
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for n, seed in enumerate(args.seeds):
            order = SIDES if n % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, seconds, names)
                print(f"{workload} seed {seed} {side}: {json.dumps(pair[side])}", file=sys.stderr, flush=True)
            pairs.append(pair)
        report["workloads"][workload] = {"summary": summary(pairs, metrics), "runs": pairs}
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
