"""Report documents, rendered to JSON or to text.

Every command builds one JSON-able document: the ``*_json`` builders
below are the only code that reads analysis objects.  The JSON output is
that document under a versioned schema; the text output is rendered from
the document alone by :func:`render_text`, with one layout per command.

Text mirrors the tabular layouts used for the bundled scenario: deficient
contexts as a two-column members/complement table, assignments as one
``λk: <bitstring> support={...}`` line each, paradoxes with their
possibilistic conditions and exact success probability, observables as
exact rational matrices.  For fixed inputs the emitted bytes are
identical across runs: nothing here depends on wall time, environment or
hash order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .assignments import GlobalEvents, KSAssignment
from .contextuality import (
    ContextualityVerdict,
    MixedAnalysisReport,
    PureStateSearch,
    QuantumState,
    TRIPLE_LISTING_BOUND,
    witness_blockers,
)
from .exact import ExactMatrix, _scalar_text
from .hardy import (
    HardyParadox,
    ObservableVerification,
    ReferenceCrossCheck,
    WitnessObservable,
    percent,
)
from .sampling import SimulationResult
from .scenario import ComplementCheck, Scenario

SCHEMA = "ctxkit-report/1"


def render_json(obj: dict) -> str:
    import json  # here, so that text output never loads it

    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# document builders: analysis objects in, JSON-able dicts out
# ---------------------------------------------------------------------------

def matrix_json(m: ExactMatrix) -> list[list[str]]:
    entries = [_scalar_text(z, m.den) for z in m.nums]
    return [entries[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)]


def _projectors_json(projectors) -> dict:
    return {f"P{n}": matrix_json(p) for n, p in enumerate(projectors, start=1)}


def _labels(scenario: Scenario, indices) -> list[str]:
    return [scenario.rays[i].label for i in indices]


def scenario_json(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "dim": scenario.dim,
        "field": scenario.field,
        "rays": [{"label": r.label, "coords": r.vector.coordinate_texts()} for r in scenario.rays],
        "edges": sorted(_labels(scenario, edge) for edge in scenario.edges),
    }


def contexts_json(scenario: Scenario, check: ComplementCheck | None = None) -> dict:
    contexts = scenario.contexts
    out = {
        "count": len(contexts),
        "contexts": [
            {
                "members": _labels(scenario, c.members),
                "kind": c.kind.value,
                "complement": [v.coordinate_texts() for v in c.complement],
            }
            for c in contexts
        ],
    }
    if check is not None:
        out["distinct_pair_complements"] = check.ok
        out["complement_collisions"] = [
            [_labels(scenario, a.members), _labels(scenario, b.members)] for a, b in check.collisions
        ]
    return out


def assignments_json(scenario: Scenario, assignments: list[KSAssignment]) -> dict:
    return {
        "count": len(assignments),
        "columns": list(scenario.labels),
        "rows": [
            {"id": k, "bits": list(a.bits), "support": _labels(scenario, a.support)}
            for k, a in enumerate(assignments, start=1)
        ],
    }


def global_events_json(scenario: Scenario, assignments: GlobalEvents, rays: tuple[int, ...]) -> dict:
    return {scenario.rays[i].label: [_labels(scenario, a.support) for a in assignments.holding(i)] for i in rays}


def verdict_json(
    scenario: Scenario, assignments: list[KSAssignment], state: QuantumState, verdict: ContextualityVerdict, oracle: bool
) -> dict:
    return {
        "state": state.describe(),
        "contextual": verdict.contextual,
        "witness": scenario.rays[verdict.witness].label if verdict.witness is not None else None,
        "blockers": [
            {"event": _labels(scenario, event.support), "blocker": scenario.rays[blocker].label}
            for event, blocker in witness_blockers(assignments, verdict)
        ],
        "noncontextuality_oracle": oracle,
        "oracle_agrees": oracle != verdict.contextual,
        "model": dict(zip(scenario.labels, verdict.model.values)),
    }


def states_json(scenario: Scenario, search: PureStateSearch) -> dict:
    return {
        "states": [
            {
                "state": w.state.coordinate_texts(),
                "witness": scenario.rays[w.witness].label,
                "selection": _labels(scenario, w.selection),
            }
            for w in search.states
        ],
        "undetermined": [
            {
                "witness": scenario.rays[f.witness].label,
                "selection": _labels(scenario, f.selection),
                "nullity": f.nullity,
            }
            for f in search.undetermined
        ],
    }


def mixed_json(scenario: Scenario, report: MixedAnalysisReport) -> dict:
    skipped = f"more than {TRIPLE_LISTING_BOUND} selection systems, not listed"
    return {
        "triples": [
            {
                "witness": scenario.rays[t.witness].label,
                "picks": _labels(scenario, t.picks),
                "selection": _labels(scenario, t.selection),
                "rank": t.rank,
                "nullity": t.nullity,
            }
            for t in report.triples
        ],
        **({} if report.triples_listed else {"triples_skipped": skipped}),
        "common_ray_violations": [
            {"witness": scenario.rays[f.witness].label, "rays": _labels(scenario, f.selection)}
            for f in report.common_ray_violations
        ],
        "no_mixed_states": report.no_mixed_states,
    }


def _paradox_fields(scenario: Scenario, idx: int, p: HardyParadox) -> dict:
    return {
        "index": idx,
        "state": p.state.psi.coordinate_texts() if p.state.psi is not None else "density",
        "witness": scenario.rays[p.witness].label,
        "zeros": _labels(scenario, p.zero_set),
    }


def paradox_json(scenario: Scenario, idx: int, p: HardyParadox) -> dict:
    return {**_paradox_fields(scenario, idx, p), "sp": str(p.sp), "sp_percent": percent(p.sp)}


def observables_json(
    scenario: Scenario,
    skipped: list[str],
    observables: list[tuple[int, HardyParadox, WitnessObservable | None, ObservableVerification | str]],
    crosscheck: ReferenceCrossCheck | None,
) -> dict:
    """The built observables; ``skipped`` plus ``observable N: <reason>`` for
    each one not built; and the reference crosscheck where there is one."""
    out = {"observables": [], "skipped": list(skipped)}
    for idx, paradox, observable, result in observables:
        if observable is None:
            out["skipped"].append(f"observable {idx}: {result}")
            continue
        out["observables"].append(
            {
                **_paradox_fields(scenario, idx, paradox),
                "eigenvalues": [str(e) for e in observable.eigenvalues],
                "source_order": _labels(scenario, observable.source_order),
                "projectors": _projectors_json(observable.projectors),
                "verified": result.ok,
                "failures": list(result.failures),
            }
        )
    if crosscheck is not None:
        out["reference_crosscheck"] = {
            "rows": [
                {
                    "row": row.reference.row,
                    "state": [str(x) for x in row.reference.state],
                    "witness": row.reference.witness,
                    "zeros": list(row.reference.zeros),
                    "consistent": row.consistent,
                    "failures": list(row.failures),
                    "matches": {f"P{i}": m for i, m in enumerate(row.matches, start=1)},
                    "printed": _projectors_json(row.reference.printed),
                    "derived": _projectors_json(row.derived.projectors),
                }
                for row in crosscheck.rows
            ],
            "errata_rows": list(crosscheck.errata),
        }
    return out


def simulation_json(outcome_names: list[str], result: SimulationResult) -> dict:
    return {
        "prng": "xoshiro256**",
        "seed": result.seed,
        "shots": result.shots,
        "outcomes": [
            {"name": name, "count": count, "frequency": freq, "exact_probability": str(p), "std_error": se}
            for name, count, freq, p, se in zip(
                outcome_names, result.counts, result.frequencies, result.probabilities, result.std_errors
            )
        ],
    }


# ---------------------------------------------------------------------------
# text rendering: document dicts in, lines out
# ---------------------------------------------------------------------------

def _vec(coords: list[str]) -> str:
    return "(" + ",".join(coords) + ")"


def _set(labels: list[str]) -> str:
    return "{" + ",".join(labels) + "}"


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def _numbered(entries: dict) -> list:
    """The values of ``{"P1": ..., "P2": ...}`` in numeric order (JSON sorts P10 before P2)."""
    return [entries[f"P{n}"] for n in range(1, len(entries) + 1)]


def _matrix_text(m: list[list[str]]) -> str:
    """A real matrix with its common denominator pulled out, e.g. ``1/6 * [[1,-2,1],...]``."""
    if any("i" in x for row in m for x in row):
        return "[" + "; ".join(",".join(row) for row in m) + "]"
    parts = [[x.partition("/") for x in row] for row in m]
    den = lcm(*(int(d or 1) for row in parts for _, _, d in row))
    body = ",".join(
        "[" + ",".join(str(int(n) * (den // int(d or 1))) for n, _, d in row) + "]" for row in parts
    )
    return f"[{body}]" if den == 1 else f"1/{den} * [{body}]"


_SKIPPED_OBSERVABLE = re.compile(r"observable (\d+): (.*)", re.DOTALL)


def _skips(doc: dict) -> tuple[list[str], dict[int, str]]:
    """The ``skipped`` entries: derivation reasons, and the reason of each skipped observable by index."""
    reasons, observables = [], {}
    for entry in doc.get("skipped", ()):
        m = _SKIPPED_OBSERVABLE.fullmatch(entry)
        if m is None:
            reasons.append(entry)
        else:
            observables[int(m[1])] = m[2]
    return reasons, observables


def _none_reason(doc: dict) -> str | None:
    """Why the document has no paradoxes, where the derivations gave a reason."""
    reasons, skipped = _skips(doc)
    if reasons and not (doc.get("paradoxes") or doc.get("observables") or skipped):
        return "; ".join(reasons)
    return None


def _scenario_text(s: dict) -> list[str]:
    return [
        f"scenario {s['name']}: dim {s['dim']}, field {s['field']}, "
        f"{len(s['rays'])} rays, {len(s['edges'])} orthogonality edges",
        "rays:",
        *(f"  {r['label']}: {_vec(r['coords'])}" for r in s["rays"]),
    ]


def _contexts_text(doc: dict) -> list[str]:
    contexts = doc["contexts"]["contexts"]
    bases = [c for c in contexts if c["kind"] == "basis"]
    deficient = [c for c in contexts if c["kind"] == "deficient"]
    lines = [
        f"contexts ({len(contexts)}): {len(bases)} basis, {len(deficient)} deficient",
        "basis contexts:",
        *(f"  {_set(c['members'])}" for c in bases),
    ]
    if deficient:
        lines.append("deficient contexts (members | complement):")
        for c in deficient:
            lines.append(f"  {_set(c['members'])} | {', '.join(_vec(v) for v in c['complement'])}")
    if "distinct_pair_complements" in doc["contexts"]:
        lines.append(f"pair complements pairwise distinct: {_yes(doc['contexts']['distinct_pair_complements'])}")
        complement = {tuple(c["members"]): c["complement"] for c in contexts}
        for a, b in doc["contexts"]["complement_collisions"]:
            lines.append(
                f"  collision: {_set(a)} and {_set(b)} share complement {_vec(complement[tuple(a)][0])}"
            )
    return lines


def _assignments_text(doc: dict) -> list[str]:
    rows = doc["assignments"]["rows"]
    return [f"assignments ({len(rows)}):"] + [
        f"  λ{r['id']}: {''.join(map(str, r['bits']))} support={_set(r['support'])}" for r in rows
    ]


def _global_events_text(doc: dict) -> list[str]:
    # in ray order, whatever the key order of the loaded document
    events = doc["global_events"]
    labels = [r["label"] for r in doc["scenario"]["rays"] if r["label"] in events]
    return ["global-event sets:"] + [
        f"  S_Λ({label}) = {', '.join(_set(e) for e in events[label])}" for label in labels
    ]


def _verdict_text(doc: dict) -> list[str]:
    verdict, labels = doc["verdict"], [r["label"] for r in doc["scenario"]["rays"]]
    ones = _set([label for label in labels if verdict["model"][label] == 1])
    zeros = _set([label for label in labels if verdict["model"][label] == 0])
    head = "logically contextual" if verdict["contextual"] else "logically non-contextual"
    lines = [
        f"possibilistic model: value 1 on {ones}, value 0 on {zeros}",
        f"state {verdict['state']} on {doc['scenario']['name']}: {head}",
    ]
    if verdict["contextual"] and verdict["witness"] is not None:
        lines.append(f"witness: {verdict['witness']}")
        lines += [f"  event {_set(b['event'])} blocked by {b['blocker']}" for b in verdict["blockers"]]
    lines.append(f"marginal-distribution oracle agrees: {_yes(verdict['oracle_agrees'])}")
    return lines


def _states_text(search: dict) -> list[str]:
    lines = [f"logically contextual pure states ({len(search['states'])}):"]
    lines += [
        f"  {_vec(w['state'])}  [witness {w['witness']}, zero selection {_set(w['selection'])}]"
        for w in search["states"]
    ]
    if search["undetermined"]:
        lines.append("undetermined families (solution space dimension >= 2):")
        lines += [
            f"  witness {f['witness']} selection {_set(f['selection'])} nullity {f['nullity']}"
            for f in search["undetermined"]
        ]
    else:
        lines.append("undetermined families: none")
    return lines


def _mixed_text(mixed: dict) -> list[str]:
    triples = mixed["triples"]
    listed = f"{len(triples)} selection systems over {len({t['witness'] for t in triples})} basis-free witnesses"
    lines = [f"mixed-state analysis: {mixed.get('triples_skipped', listed)}"]
    if triples:
        lines.append(
            f"  minimum rank {min(t['rank'] for t in triples)},"
            f" maximum solution-space dimension {max(t['nullity'] for t in triples)}"
        )
    lines += [
        f"  blocking flat {_set(v['rays'])} meets every event of S_Λ({v['witness']})"
        for v in mixed["common_ray_violations"]
    ]
    lines.append(f"no logically contextual mixed states: {_yes(mixed['no_mixed_states'])}")
    return lines


def _state(state: list[str] | str) -> str:
    return state if isinstance(state, str) else _vec(state)


def _paradox_header(p: dict) -> str:
    zeros = "=".join(f"ρ({z})" for z in p["zeros"])
    return f"ρ({p['witness']})>0, {zeros}=0, SP={p['sp']} ({p['sp_percent']})"


def _paradoxes_text(doc: dict) -> list[str]:
    reason = _none_reason(doc)
    if reason is not None:
        return [f"paradoxes: none ({reason})"]
    return [f"paradoxes ({len(doc['paradoxes'])}):"] + [
        f"  paradox {p['index']} [state {_state(p['state'])}]: {_paradox_header(p)}" for p in doc["paradoxes"]
    ]


def _observable_text(o: dict) -> list[str]:
    lines = [
        f"observable {o['index']} [state {_state(o['state'])}, witness {o['witness']}]:"
        f" eigenvalues {','.join(o['eigenvalues'])}, orthogonalized from ({','.join(o['source_order'])})"
    ]
    lines += [f"  P{n} = {_matrix_text(p)}" for n, p in enumerate(_numbered(o["projectors"]), start=1)]
    lines.append("  verification: ok" if o["verified"] else "  verification: FAILED " + "; ".join(o["failures"]))
    return lines


def _observable_blocks(doc: dict) -> list[list[str]]:
    """One block per numbered paradox, in index order: its observable, or its skip line."""
    blocks = {o["index"]: _observable_text(o) for o in doc["observables"]}
    blocks.update((i, [f"observable {i}: skipped ({reason})"]) for i, reason in _skips(doc)[1].items())
    return [blocks[i] for i in sorted(blocks)]


def _crosscheck_text(check: dict) -> list[str]:
    lines = ["reference observable cross-check:"]
    for row in check["rows"]:
        matches = _numbered(row["matches"])
        marks = " ".join(f"P{n} {'match' if m else 'MISMATCH'}" for n, m in enumerate(matches, start=1))
        head = f"  row {row['row']} [state {_vec(row['state'])}, witness {row['witness']}]:"
        if row["consistent"]:
            lines.append(f"{head} consistent; {marks}")
            continue
        lines.append(f"{head} ERRATUM (fails {', '.join(row['failures'])}); {marks}")
        for n, matched in enumerate(matches, start=1):
            if not matched:
                lines.append(f"    printed P{n} = {_matrix_text(row['printed'][f'P{n}'])}")
                lines.append(f"    derived P{n} = {_matrix_text(row['derived'][f'P{n}'])}")
    lines.append(f"errata rows: {', '.join(map(str, check['errata_rows'])) or 'none'}")
    return lines


def _simulation_text(title: str, m: dict) -> list[str]:
    return [f"{title}: shots={m['shots']} seed={m['seed']} prng={m['prng']}"] + [
        f"  {o['name']}: count={o['count']} freq={o['frequency']:.6f}"
        f" exact={o['exact_probability']} ({float(Fraction(o['exact_probability'])):.6f})"
        f" stderr={o['std_error']:.6g}"
        for o in m["outcomes"]
    ]


def _observables_layout(doc: dict) -> list[list[str]]:
    reason = _none_reason(doc)
    lines = [] if reason is None else [f"observables: none ({reason})"]
    for block in _observable_blocks(doc):
        lines += block
    if "reference_crosscheck" in doc:
        lines += ["", *_crosscheck_text(doc["reference_crosscheck"])]
    return [lines]


_LAYOUTS = {
    "contexts": lambda doc: [_scenario_text(doc["scenario"]), _contexts_text(doc)],
    "assignments": lambda doc: [_assignments_text(doc)],
    "states": lambda doc: [
        _states_text(doc["search"])
        + [f"all witnesses basis-free: {_yes(doc['search']['witnesses_basis_free'])}"]
    ],
    "check": lambda doc: [_verdict_text(doc)],
    "paradoxes": lambda doc: [_paradoxes_text(doc)],
    "observables": _observables_layout,
    "simulate": lambda doc: [
        [f"paradox: {_paradox_header(doc['paradox'])}"]
        + _simulation_text("witness-event measurement", doc["witness_measurement"])
        + _simulation_text("witness-observable measurement", doc["observable_measurement"])
    ],
    "report": lambda doc: [
        _scenario_text(doc["scenario"]),
        _contexts_text(doc),
        _assignments_text(doc),
        _global_events_text(doc),
        _states_text(doc["states"]),
        _mixed_text(doc["mixed_analysis"]),
        _paradoxes_text(doc),
        *_observable_blocks(doc),
        *([_crosscheck_text(doc["reference_crosscheck"])] if "reference_crosscheck" in doc else []),
    ],
}


def render_text(document: dict) -> str:
    """The text report of one command's document: its blocks, one blank line between them."""
    blocks = _LAYOUTS[document["command"]](document)
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"
