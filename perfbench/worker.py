"""Child process of the benchmark: a ctxkit library session or a CLI launcher.

    python3 perfbench/worker.py session [--trace FILE] SCENARIO...

imports ctxkit, loads each scenario file, enumerates its contexts and
assignments, prints one ready line with their counts, then answers one
JSON op per stdin line until end of input.  With no ops it is the set-up
probe of every workload.

    python3 perfbench/worker.py cli FILE ARGS...

runs ``ctxkit ARGS`` in this process with spans installed and writes the
spans to FILE before exiting with the command's status.

Both need ``ctxkit`` importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from fractions import Fraction

from tracing import Tracer


def load(path: str):
    import ctxkit.assignments
    import ctxkit.scenario

    scenario = ctxkit.scenario.load_scenario_path(path)
    contexts = ctxkit.scenario.enumerate_contexts(scenario)
    assignments = ctxkit.assignments.enumerate_assignments(scenario)
    covered = {i for a in assignments for i in a.support}
    counts = {
        "name": scenario.name,
        "rays": len(scenario.rays),
        "edges": len(scenario.edges),
        "contexts": len(contexts),
        "bases": len(scenario.basis_contexts()),
        "assignments": len(assignments),
        "unassigned": [i for i in range(len(scenario.rays)) if i not in covered],
    }
    return scenario, assignments, counts


def density_rows(parts, dim: int):
    """Entries of sum_k w_k |a_k><a_k| / |a_k|^2 for real integer rays a_k."""
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for num, den, a in parts:
        scale = Fraction(num, den) / sum(x * x for x in a)
        for i in range(dim):
            for j in range(dim):
                rows[i][j] += scale * a[i] * a[j]
    return rows


def replays_against(assignments, paradox) -> bool:
    """The witness lies in some global event, and every such event meets the zero set."""
    events = [a for a in assignments if a.bits[paradox.witness]]
    return bool(events) and all(any(a.bits[z] for z in paradox.zero_set) for a in events)


def check_op(scenario, assignments, op) -> dict:
    """One state check: possibilistic model, verdict, oracle, then paradoxes."""
    from ctxkit import contextuality, exact, hardy

    if op["kind"] == "pure":
        vector = exact.vec(*op["psi"])
        build = lambda: contextuality.QuantumState.pure(vector)  # noqa: E731
    else:
        matrix = exact.ExactMatrix.from_rows(density_rows(op["parts"], scenario.dim))
        build = lambda: contextuality.QuantumState.density(matrix)  # noqa: E731
    start = time.perf_counter()
    state = build()
    model = contextuality.possibilistic_model(scenario, state)
    verdict = contextuality.is_logically_contextual(scenario, state, assignments)
    oracle = contextuality.noncontextuality_oracle(scenario, state, assignments)
    paradoxes = hardy.derive_paradoxes(scenario, state, assignments).paradoxes if verdict.contextual else ()
    latency = time.perf_counter() - start
    replays = all(replays_against(assignments, p) for p in paradoxes)
    return {
        "latency": latency,
        "model": "".join(map(str, model.values)),
        "contextual": verdict.contextual,
        "oracle": oracle,
        "paradoxes": [[p.witness, list(p.zero_set), str(p.sp)] for p in paradoxes],
        "replays": replays,
    }


def session(paths: list[str], trace_file: str | None) -> int:
    tracer = Tracer() if trace_file else None
    if tracer:
        tracer.install()
    loaded = [load(p) for p in paths]
    print(json.dumps({"ready": [counts for _, _, counts in loaded]}), flush=True)
    for n, line in enumerate(sys.stdin, start=1):
        op = json.loads(line)
        if tracer:
            tracer.op = n
        scenario, assignments, _ = loaded[op["scenario"]]
        try:
            reply = check_op(scenario, assignments, op)
        except Exception:  # one failing op is reported, the session goes on
            reply = {"error": traceback.format_exc(limit=3)}
        print(json.dumps(reply), flush=True)
    if tracer:
        tracer.dump(trace_file)
    return 0


def cli(trace_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import ctxkit.cli

    try:
        return ctxkit.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_file)


def main(argv: list[str]) -> int:
    if argv[:1] == ["session"]:
        trace_file = None
        if argv[1:2] == ["--trace"]:
            trace_file, argv = argv[2], argv[2:]
        return session(argv[1:], trace_file)
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
