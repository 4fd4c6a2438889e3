"""Deterministic text and JSON report emission.

Text output mirrors the tabular layouts used for the bundled scenario:
deficient contexts as a two-column members/complement table, assignments
as one ``λk: <bitstring> support={...}`` line each, paradoxes with their
possibilistic conditions and exact success probability, observables as
exact rational matrices.  JSON output carries the same content under a
versioned schema.  For fixed inputs the emitted bytes are identical
across runs: nothing here depends on wall time, environment or hash
order.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .assignments import KSAssignment, events_containing, support_labels
from .contextuality import (
    ContextualityVerdict,
    MixedAnalysisReport,
    PossibilisticModel,
    PureStateSearch,
    QuantumState,
)
from .exact import ExactMatrix, ExactVector
from .hardy import (
    HardyParadox,
    ObservableVerification,
    ReferenceCrossCheck,
    WitnessObservable,
    percent,
)
from .sampling import SimulationResult
from .scenario import ComplementCheck, Context, ContextKind, Scenario

SCHEMA = "ctxkit-report/1"


def fraction_str(q: Fraction) -> str:
    return str(q) if q.denominator != 1 else str(q.numerator)


def matrix_text(m: ExactMatrix) -> str:
    """Render with a common factor pulled out, e.g. ``1/6 * [[1,-2,1],...]``."""
    if all(im == 0 for _, im in m.nums):
        # in lowest terms, den is the least common denominator of the entries
        rows = [
            "[" + ",".join(str(re) for re, _ in m.nums[i * m.cols : (i + 1) * m.cols]) + "]"
            for i in range(m.rows)
        ]
        body = "[" + ",".join(rows) + "]"
        return body if m.den == 1 else f"1/{m.den} * {body}"
    return str(m)


def matrix_json(m: ExactMatrix) -> list[list[str]]:
    return [[str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def vector_json(v: ExactVector) -> list[str]:
    return [str(c) for c in v.coords]


def _labels(scenario: Scenario, indices) -> str:
    return "{" + ",".join(scenario.rays[i].label for i in indices) + "}"


def render_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

def scenario_lines(scenario: Scenario) -> list[str]:
    lines = [
        f"scenario {scenario.name}: dim {scenario.dim}, field {scenario.field}, "
        f"{len(scenario.rays)} rays, {len(scenario.edges)} orthogonality edges",
        "rays:",
    ]
    lines += [f"  {r.label}: {r.vector}" for r in scenario.rays]
    return lines


def scenario_json(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "dim": scenario.dim,
        "field": scenario.field,
        "rays": [{"label": r.label, "coords": vector_json(r.vector)} for r in scenario.rays],
        "edges": sorted([scenario.rays[i].label, scenario.rays[j].label] for i, j in scenario.edges),
    }


def contexts_lines(scenario: Scenario, check: ComplementCheck | None = None) -> list[str]:
    contexts = scenario.require_contexts()
    bases = [c for c in contexts if c.kind is ContextKind.BASIS]
    deficient = [c for c in contexts if c.kind is ContextKind.DEFICIENT]
    lines = [f"contexts ({len(contexts)}): {len(bases)} basis, {len(deficient)} deficient"]
    lines.append("basis contexts:")
    lines += [f"  {_labels(scenario, c.members)}" for c in bases]
    if deficient:
        lines.append("deficient contexts (members | complement):")
        for c in deficient:
            comp = ", ".join(str(v) for v in c.complement)
            lines.append(f"  {_labels(scenario, c.members)} | {comp}")
    if check is not None:
        if check.ok:
            lines.append("pair complements pairwise distinct: yes")
        else:
            lines.append("pair complements pairwise distinct: NO")
            for a, b in check.collisions:
                lines.append(
                    f"  collision: {_labels(scenario, a.members)} and {_labels(scenario, b.members)}"
                    f" share complement {a.complement[0]}"
                )
    return lines


def _context_json(scenario: Scenario, c: Context) -> dict:
    return {
        "members": [scenario.rays[i].label for i in c.members],
        "kind": c.kind.value,
        "complement": [vector_json(v) for v in c.complement],
    }


def contexts_json(scenario: Scenario, check: ComplementCheck | None = None) -> dict:
    contexts = scenario.require_contexts()
    out = {"count": len(contexts), "contexts": [_context_json(scenario, c) for c in contexts]}
    if check is not None:
        out["distinct_pair_complements"] = check.ok
        out["complement_collisions"] = [
            [
                [scenario.rays[i].label for i in a.members],
                [scenario.rays[i].label for i in b.members],
            ]
            for a, b in check.collisions
        ]
    return out


def assignments_lines(scenario: Scenario, assignments: list[KSAssignment]) -> list[str]:
    lines = [f"assignments ({len(assignments)}):"]
    for k, a in enumerate(assignments, start=1):
        support = ",".join(support_labels(scenario, a))
        lines.append(f"  λ{k}: {a.bitstring()} support={{{support}}}")
    return lines


def assignments_json(scenario: Scenario, assignments: list[KSAssignment]) -> dict:
    return {
        "count": len(assignments),
        "columns": list(scenario.labels),
        "rows": [
            {
                "id": k,
                "bits": list(a.bits),
                "support": list(support_labels(scenario, a)),
            }
            for k, a in enumerate(assignments, start=1)
        ],
    }


def global_event_lines(scenario: Scenario, assignments: list[KSAssignment], rays: list[int]) -> list[str]:
    lines = ["global-event sets:"]
    for i in rays:
        events = events_containing(scenario, assignments, i)
        rendered = ", ".join(_labels(scenario, a.support) for a in events)
        lines.append(f"  S_Λ({scenario.rays[i].label}) = {rendered}")
    return lines


def global_events_json(scenario: Scenario, assignments: list[KSAssignment], rays: list[int]) -> dict:
    return {
        scenario.rays[i].label: [
            list(support_labels(scenario, a)) for a in events_containing(scenario, assignments, i)
        ]
        for i in rays
    }


def model_lines(scenario: Scenario, model: PossibilisticModel) -> list[str]:
    ones = _labels(scenario, model.possible())
    zeros = _labels(scenario, model.impossible())
    return [f"possibilistic model: value 1 on {ones}, value 0 on {zeros}"]


def verdict_lines(scenario: Scenario, state: QuantumState, verdict: ContextualityVerdict, oracle: bool) -> list[str]:
    head = "logically contextual" if verdict.contextual else "logically non-contextual"
    lines = [f"state {state.describe()} on {scenario.name}: {head}"]
    if verdict.contextual and verdict.witness is not None:
        lines.append(f"witness: {scenario.rays[verdict.witness].label}")
        for event, blocker in verdict.blockers:
            lines.append(
                f"  event {_labels(scenario, event.support)} blocked by {scenario.rays[blocker].label}"
            )
    lines.append(f"marginal-distribution oracle agrees: {'yes' if oracle != verdict.contextual else 'NO'}")
    return lines


def verdict_json(scenario: Scenario, state: QuantumState, verdict: ContextualityVerdict, oracle: bool) -> dict:
    return {
        "state": state.describe(),
        "contextual": verdict.contextual,
        "witness": scenario.rays[verdict.witness].label if verdict.witness is not None else None,
        "blockers": [
            {
                "event": list(support_labels(scenario, event)),
                "blocker": scenario.rays[blocker].label,
            }
            for event, blocker in verdict.blockers
        ],
        "noncontextuality_oracle": oracle,
        "oracle_agrees": oracle != verdict.contextual,
    }


def states_lines(scenario: Scenario, search: PureStateSearch) -> list[str]:
    lines = [f"logically contextual pure states ({len(search.states)}):"]
    for w in search.states:
        lines.append(
            f"  {w.state}  [witness {scenario.rays[w.witness].label},"
            f" zero selection {_labels(scenario, w.selection)}]"
        )
    if search.undetermined:
        lines.append("undetermined families (solution space dimension >= 2):")
        for fam in search.undetermined:
            lines.append(
                f"  witness {scenario.rays[fam.witness].label}"
                f" selection {_labels(scenario, fam.selection)} nullity {fam.nullity}"
            )
    else:
        lines.append("undetermined families: none")
    return lines


def states_json(scenario: Scenario, search: PureStateSearch) -> dict:
    return {
        "states": [
            {
                "state": vector_json(w.state),
                "witness": scenario.rays[w.witness].label,
                "selection": [scenario.rays[i].label for i in w.selection],
            }
            for w in search.states
        ],
        "undetermined": [
            {
                "witness": scenario.rays[f.witness].label,
                "selection": [scenario.rays[i].label for i in f.selection],
                "nullity": f.nullity,
            }
            for f in search.undetermined
        ],
    }


def mixed_lines(scenario: Scenario, report: MixedAnalysisReport) -> list[str]:
    witnesses = sorted({t.witness for t in report.triples})
    lines = [
        "mixed-state analysis: "
        f"{len(report.triples)} selection systems over {len(witnesses)} basis-free witnesses"
    ]
    if report.triples:
        min_rank = min(t.rank for t in report.triples)
        max_nullity = max(t.nullity for t in report.triples)
        lines.append(f"  minimum rank {min_rank}, maximum solution-space dimension {max_nullity}")
    for witness, common in report.common_ray_violations:
        lines.append(
            f"  shared ray violation: {_labels(scenario, common)}"
            f" lies in every event of S_Λ({scenario.rays[witness].label})"
        )
    lines.append(f"no logically contextual mixed states: {'yes' if report.no_mixed_states else 'NO'}")
    return lines


def mixed_json(scenario: Scenario, report: MixedAnalysisReport) -> dict:
    return {
        "triples": [
            {
                "witness": scenario.rays[t.witness].label,
                "picks": [scenario.rays[i].label for i in t.picks],
                "selection": [scenario.rays[i].label for i in t.selection],
                "rank": t.rank,
                "nullity": t.nullity,
            }
            for t in report.triples
        ],
        "common_ray_violations": [
            {
                "witness": scenario.rays[w].label,
                "rays": [scenario.rays[i].label for i in common],
            }
            for w, common in report.common_ray_violations
        ],
        "no_mixed_states": report.no_mixed_states,
    }


def paradox_header(scenario: Scenario, paradox: HardyParadox) -> str:
    witness = scenario.rays[paradox.witness].label
    zeros = "=".join(f"ρ({scenario.rays[z].label})" for z in paradox.zero_set)
    return f"ρ({witness})>0, {zeros}=0, SP={fraction_str(paradox.sp)} ({percent(paradox.sp)})"


def paradox_lines(scenario: Scenario, paradoxes: list[tuple[int, HardyParadox]], reason: str | None) -> list[str]:
    if reason is not None:
        return [f"paradoxes: none ({reason})"]
    lines = [f"paradoxes ({len(paradoxes)}):"]
    for idx, p in paradoxes:
        lines.append(f"  paradox {idx} [state {p.state.describe()}]: {paradox_header(scenario, p)}")
    return lines


def paradox_json(scenario: Scenario, idx: int, p: HardyParadox) -> dict:
    return {
        "index": idx,
        "state": vector_json(p.state.psi) if p.state.psi is not None else "density",
        "witness": scenario.rays[p.witness].label,
        "zeros": [scenario.rays[z].label for z in p.zero_set],
        "sp": fraction_str(p.sp),
        "sp_percent": percent(p.sp),
    }


def observable_lines(
    scenario: Scenario,
    idx: int,
    paradox: HardyParadox,
    observable: WitnessObservable,
    verification: ObservableVerification,
) -> list[str]:
    eigs = ",".join(fraction_str(e) for e in observable.eigenvalues)
    source = ",".join(scenario.rays[i].label for i in observable.source_order)
    lines = [
        f"observable {idx} [state {paradox.state.describe()},"
        f" witness {scenario.rays[paradox.witness].label}]:"
        f" eigenvalues {eigs}, orthogonalized from ({source})"
    ]
    for n, p in enumerate(observable.projectors, start=1):
        lines.append(f"  P{n} = {matrix_text(p)}")
    if verification.ok:
        lines.append("  verification: ok")
    else:
        lines.append("  verification: FAILED " + "; ".join(verification.failures))
    return lines


def observable_json(
    scenario: Scenario,
    idx: int,
    paradox: HardyParadox,
    observable: WitnessObservable,
    verification: ObservableVerification,
) -> dict:
    return {
        "index": idx,
        "state": vector_json(paradox.state.psi) if paradox.state.psi is not None else "density",
        "witness": scenario.rays[paradox.witness].label,
        "zeros": [scenario.rays[z].label for z in paradox.zero_set],
        "eigenvalues": [fraction_str(e) for e in observable.eigenvalues],
        "source_order": [scenario.rays[i].label for i in observable.source_order],
        "projectors": {
            f"P{n}": matrix_json(p) for n, p in enumerate(observable.projectors, start=1)
        },
        "verified": verification.ok,
        "failures": list(verification.failures),
    }


def crosscheck_lines(check: ReferenceCrossCheck) -> list[str]:
    lines = ["reference observable cross-check:"]
    for row in check.rows:
        ref = row.reference
        state = "(" + ",".join(str(x) for x in ref.state) + ")"
        marks = " ".join(
            f"P{i + 1} {'match' if m else 'MISMATCH'}" for i, m in enumerate(row.matches)
        )
        if row.consistent:
            lines.append(f"  row {ref.row} [state {state}, witness {ref.witness}]: consistent; {marks}")
        else:
            lines.append(
                f"  row {ref.row} [state {state}, witness {ref.witness}]:"
                f" ERRATUM (fails {', '.join(row.failures)}); {marks}"
            )
            for i, matched in enumerate(row.matches):
                if not matched:
                    lines.append(f"    printed P{i + 1} = {matrix_text(ref.printed[i])}")
                    lines.append(f"    derived P{i + 1} = {matrix_text(row.derived.projectors[i])}")
    errata = ", ".join(str(r) for r in check.errata) if check.errata else "none"
    lines.append(f"errata rows: {errata}")
    return lines


def crosscheck_json(check: ReferenceCrossCheck) -> dict:
    return {
        "rows": [
            {
                "row": row.reference.row,
                "state": [str(x) for x in row.reference.state],
                "witness": row.reference.witness,
                "zeros": list(row.reference.zeros),
                "consistent": row.consistent,
                "failures": list(row.failures),
                "matches": {f"P{i + 1}": m for i, m in enumerate(row.matches)},
                "printed": {
                    f"P{i + 1}": matrix_json(p) for i, p in enumerate(row.reference.printed)
                },
                "derived": {
                    f"P{i + 1}": matrix_json(p) for i, p in enumerate(row.derived.projectors)
                },
            }
            for row in check.rows
        ],
        "errata_rows": list(check.errata),
    }


def simulation_lines(title: str, outcome_names: list[str], result: SimulationResult) -> list[str]:
    lines = [
        f"{title}: shots={result.shots} seed={result.seed} prng=xoshiro256**"
    ]
    for name, count, freq, p, se in zip(
        outcome_names, result.counts, result.frequencies, result.probabilities, result.std_errors
    ):
        lines.append(
            f"  {name}: count={count} freq={freq:.6f}"
            f" exact={fraction_str(p)} ({float(p):.6f}) stderr={se:.6g}"
        )
    return lines


def simulation_json(outcome_names: list[str], result: SimulationResult) -> dict:
    return {
        "prng": "xoshiro256**",
        "seed": result.seed,
        "shots": result.shots,
        "outcomes": [
            {
                "name": name,
                "count": count,
                "frequency": freq,
                "exact_probability": fraction_str(p),
                "std_error": se,
            }
            for name, count, freq, p, se in zip(
                outcome_names,
                result.counts,
                result.frequencies,
                result.probabilities,
                result.std_errors,
            )
        ],
    }
