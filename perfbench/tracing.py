"""Spans and counters around calls into ctxkit, installed from outside the package.

A wrapper replaces every ``ctxkit.*`` module attribute bound to a traced
function, so call sites that imported the name (``from .exact import
nullspace``) are caught as well as ``module.function`` calls.  Spans are
kept in memory with the index of the span that caused them and are
written out once, when the traced process ends.  Nothing here changes
what ctxkit computes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter


def _one(args, kwargs, result) -> int:
    return 1


# (module, function, span name or None to count calls only, counter, count)
TRACED = (
    ("scenario", "load_scenario", "scenario.load", "scenario.edges", lambda a, k, r: len(r.edges)),
    ("scenario", "enumerate_contexts", "scenario.contexts", "scenario.contexts", lambda a, k, r: len(r)),
    ("assignments", "enumerate_assignments", "assignments.enumerate", "assignments.count", lambda a, k, r: len(r)),
    ("contextuality", "find_contextual_pure_states", "contextuality.pure_search",
     "contextuality.states_found", lambda a, k, r: len(r.states)),
    ("contextuality", "analyze_mixed_states", "contextuality.mixed",
     "contextuality.mixed_triples", lambda a, k, r: len(r.triples)),
    ("contextuality", "possibilistic_model", "contextuality.model", None, None),
    ("contextuality", "is_logically_contextual", "contextuality.verdict", None, None),
    ("contextuality", "noncontextuality_oracle", "contextuality.oracle", None, None),
    ("exact", "nullspace", "exact.nullspace", "exact.nullspace_calls", _one),
    ("exact", "rank", None, "exact.rank_calls", _one),
    ("exact", "validate_density", "exact.validate_density", None, None),
    ("hardy", "derive_paradoxes", "hardy.derive", "hardy.paradoxes", lambda a, k, r: len(r.paradoxes)),
    ("hardy", "build_witness_observable", "hardy.observable", "hardy.observables", _one),
    ("hardy", "verify_observable", "hardy.verify", None, None),
    ("hardy", "crosscheck_reference_observables", "hardy.crosscheck", None, None),
    ("sampling", "simulate_measurement", "sampling.simulate", "sampling.shots", lambda a, k, r: r.shots),
    ("cli", "run", "cli.run", None, None),
)


class Tracer:
    """In-memory spans ``[name, parent, op, start_ns, end_ns]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, fn, span, counter, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                record = [span, self._stack[-1] if self._stack else -1, self.op, time.perf_counter_ns(), 0]
                self._stack.append(len(self.spans))
                self.spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[4] = time.perf_counter_ns()
                    self._stack.pop()
            if counter is not None:
                self.counters[counter] += count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every traced ctxkit function, wherever ctxkit bound it."""
        import ctxkit.cli  # noqa: F401  (imports every ctxkit module)
        from ctxkit import report
        from ctxkit.contextuality import QuantumState

        modules = [m for name, m in sys.modules.items() if name == "ctxkit" or name.startswith("ctxkit.")]
        targets = [
            (getattr(sys.modules[f"ctxkit.{mod}"], fn), span, counter, count)
            for mod, fn, span, counter, count in TRACED
        ]
        targets += [
            (fn, "report.render", None, None)
            for name, fn in vars(report).items()
            if inspect.isfunction(fn) and fn.__module__ == report.__name__ and not name.startswith("_")
        ]
        for original, span, counter, count in targets:
            wrapper = self.wrap(original, span, counter, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        QuantumState.probability = self.wrap(QuantumState.probability, None, "contextuality.born_calls", _one)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def self_times(spans) -> Counter:
    """Seconds per span name, each span minus the time its direct children cover."""
    covered = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Counter = Counter()
    for (name, _, _, start, end), child in zip(spans, covered):
        totals[name] += (end - start - child) / 1e9
    return totals
