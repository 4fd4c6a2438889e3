#!/usr/bin/env python3
"""Where the time of a ``check-stream`` state check goes, per phase, in-process.

    python3 scripts/check_phases.py SEED... [--ops N] [--repeat R]

For each seed it regenerates the ops that ``perfbench/run.py --workload
check-stream --seed SEED`` sends (the ``run_seconds`` of ``BENCHMARK.json``
times ``CheckStream.cycles_per_s`` cycles, or the first ``N`` ops), reading
the generators of ``perfbench/`` without changing them.  Each op runs as
the benchmark's worker runs it: ``build``, the state's construction
(canonical ray or density validation), then model, verdict, oracle and,
for a contextual state, ``derive_paradoxes``; ``replay`` is its
``replay_contradiction`` call timed again on its paradoxes, a part of
``derive``.  Every phase is the best of ``R`` runs on a fresh state object,
with no missing events kept from the run before, and an op's time is the
sum of its phases but the replay.  As in the benchmark, each cycle's
times are scaled to the reference core speed by ``spin`` readings taken
just before and after it.

It first prints each scenario's global events (KS-assignments) and core
events, the labellings of the basis rays that the checks read.  Then, per
seed, it prints p50 and p98 of the op times, overall and per op kind (pure
or density) and dimension, and the mean time of each phase, ``build``
included, over the slowest 2% of ops: those that set ``latency_tail_s``,
and the mean paradox count of those ops with their ``derive`` time per
paradox.  Times are in microseconds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # no cache files appear under perfbench/

from ctxkit import contextuality, exact, hardy  # noqa: E402
from ctxkit.assignments import enumerate_assignments  # noqa: E402
from ctxkit.scenario import load_scenario  # noqa: E402
from run import CAL_LOOPS, CheckStream, at_reference, spin  # noqa: E402
from scenarios import box_rays, scenario_text  # noqa: E402
from worker import density_rows  # noqa: E402

PHASES = ("build", "model", "verdict", "oracle", "derive", "replay")


def load(names_and_rays):
    loaded = []
    for name, rays in names_and_rays:
        scenario = load_scenario(scenario_text(name, rays))
        assignments = enumerate_assignments(scenario)
        print(f"{name}: {len(assignments)} events, {len(assignments.core)} core events")
        loaded.append((scenario, assignments))
    return loaded


def phases(scenario, assignments, msg) -> tuple[dict[str, float], int]:
    """One run of the op's phases, in seconds, and its paradox count; the state is built afresh, so no model is kept
    from an earlier run."""
    if msg["kind"] == "pure":
        vector = exact.vec(*msg["psi"])
        build = lambda: contextuality.QuantumState.pure(vector)  # noqa: E731
    else:
        matrix = exact.ExactMatrix.from_rows(density_rows(msg["parts"], scenario.dim))
        build = lambda: contextuality.QuantumState.density(matrix)  # noqa: E731
    clock = time.perf_counter
    # the events keep the last zero set's missing core events; forget them, so each run's verdict computes them as
    # an op's does
    vars(assignments).pop("_missing", None)
    t0 = clock()
    state = build()
    tb = clock()
    contextuality.possibilistic_model(scenario, state)
    t1 = clock()
    verdict = contextuality.is_logically_contextual(scenario, state, assignments)
    t2 = clock()
    contextuality.noncontextuality_oracle(scenario, state, assignments)
    t3 = clock()
    paradoxes = hardy.derive_paradoxes(scenario, state, assignments).paradoxes if verdict.contextual else ()
    t4 = clock()
    if paradoxes:
        hardy.replay_contradiction(assignments, list(paradoxes))
    t5 = clock()
    return dict(zip(PHASES, (tb - t0, t1 - tb, t2 - t1, t3 - t2, t4 - t3, t5 - t4))), len(paradoxes)


def seed_ops(seed: int, limit: int | None):
    """The seed's ops as the benchmark sends them, in cycles of eight."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stream = CheckStream()
    count = max(1, round(benchmark["run_seconds"] * stream.cycles_per_s))
    cycles = itertools.islice(stream.cycles(random.Random(seed), None), count)
    ops = [[msg for msg, _ in cycle] for cycle in cycles]
    if limit is not None:
        flat = list(itertools.chain.from_iterable(ops))[:limit]
        ops = [flat[i : i + 8] for i in range(0, len(flat), 8)]
    return ops


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--ops", type=int, help="only the first N ops of each seed")
    parser.add_argument("--repeat", type=int, default=3, help="runs per op; each phase keeps its best")
    args = parser.parse_args(argv)
    stream = CheckStream()
    loaded = load(zip(stream.setup, (box_rays(3, 2)[:32], box_rays(4, 1)[:32])))
    for seed in args.seeds:
        rows = []
        for cycle in seed_ops(seed, args.ops):
            before, timed = spin(CAL_LOOPS), []
            for msg in cycle:
                scenario, assignments = loaded[msg["scenario"]]
                runs = [phases(scenario, assignments, msg) for _ in range(args.repeat)]
                timed.append((msg, {p: min(r[p] for r, _ in runs) for p in PHASES}, runs[0][1]))
            after = spin(CAL_LOOPS)
            for msg, best, count in timed:
                best = {p: at_reference(t, before, after) * 1e6 for p, t in best.items()}
                group = f"{msg['kind']} d{loaded[msg['scenario']][0].dim}"
                rows.append((sum(best[p] for p in PHASES[:-1]), group, best, count))
        print(f"seed {seed}: {len(rows)} ops")
        groups = sorted({r[1] for r in rows})
        for label, subset in [("all", rows)] + [(g, [r for r in rows if r[1] == g]) for g in groups]:
            totals = [r[0] for r in subset]
            print(f"  {label:<10} {len(totals):>4} ops  p50 {statistics.median(totals):8.1f}  "
                  f"p98 {percentile(totals, 98):8.1f}")
        tail = sorted(rows, key=lambda r: r[0], reverse=True)[: max(1, round(len(rows) * 0.02))]
        means = {p: statistics.fmean(r[2][p] for r in tail) for p in PHASES}
        print(f"  slowest {len(tail)} ops, mean per phase: "
              + "  ".join(f"{p} {means[p]:.1f}" for p in PHASES)
              + f"  ({', '.join(f'{n} {g}' for g, n in sorted(Counter(r[1] for r in tail).items()))})")
        paradoxes = statistics.fmean(r[3] for r in tail)
        # no paradox among the slowest ops leaves the derive time per paradox undefined
        per_paradox = f"{means['derive'] / paradoxes:.2f}" if paradoxes else "-"
        print(f"  slowest {len(tail)} ops: {paradoxes:.1f} paradoxes per op, derive {per_paradox} per paradox")
    return 0


if __name__ == "__main__":
    sys.exit(main())
