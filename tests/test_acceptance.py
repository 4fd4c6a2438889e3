"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Each test prints a single pass line once its assertions hold, so running
``pytest -s tests/test_acceptance.py`` gives a one-line-per-criterion
summary of the toolkit's contract on the bundled 13-ray scenario.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from ctxkit import (
    ContextKind,
    ExactMatrix,
    KSAssignment,
    QuantumState,
    analyze_mixed_states,
    build_witness_observable,
    canonical_ray,
    check_witnesses_basis_free,
    crosscheck_reference_observables,
    derive_paradoxes,
    find_contextual_pure_states,
    is_logically_contextual,
    noncontextuality_oracle,
    rank1_projector,
    simulate_measurement,
    vec,
    verify_observable,
)
from ctxkit.cli import _build_parser, _cmd_report

from oracles import enumerate_assignments_by_basis_choices, support_labels, verify_assignment
from test_assignments import EXPECTED_SUPPORTS, GLOBAL_EVENT_SETS
from test_hardy import EXPECTED_PARADOXES
from test_scenario import PAIR_COMPLEMENTS


def _passed(number: int, text: str):
    print(f"[acceptance] criterion {number:2d}: {text}: PASS")


def test_criterion_01_contexts(yu_oh):
    contexts = yu_oh.contexts
    assert len(contexts) == 16
    bases = [c for c in contexts if c.kind is ContextKind.BASIS]
    pairs = [c for c in contexts if c.kind is ContextKind.DEFICIENT]
    assert len(bases) == 4
    assert len(pairs) == 12 and all(len(c.members) == 2 for c in pairs)
    for c in pairs:
        key = tuple(yu_oh.rays[i].label for i in c.members)
        assert c.complement == (canonical_ray(PAIR_COMPLEMENTS[key]),)
    _passed(1, "16 contexts with the twelve tabulated pair complements")


def test_criterion_02_assignments(yu_oh, yu_oh_assignments):
    assert len(yu_oh_assignments) == 24
    assert [support_labels(yu_oh, a) for a in yu_oh_assignments] == EXPECTED_SUPPORTS
    assert enumerate_assignments_by_basis_choices(yu_oh) == yu_oh_assignments.listing
    brute = [
        bits
        for bits in product((0, 1), repeat=len(yu_oh.rays))
        if verify_assignment(yu_oh, KSAssignment(bits))
    ]
    assert sorted(brute) == sorted(a.bits for a in yu_oh_assignments)
    _passed(2, "24 assignments; both enumerators and the exhaustive sweep agree")


def test_criterion_03_global_event_sets(yu_oh, yu_oh_assignments):
    for label, expected in GLOBAL_EVENT_SETS.items():
        events = yu_oh_assignments.holding(yu_oh.ray_index(label))
        assert [support_labels(yu_oh, a) for a in events] == expected
    _passed(3, "global-event sets of the four basis-free rays")


def test_criterion_04_pure_states(yu_oh, yu_oh_assignments):
    search = find_contextual_pure_states(yu_oh, yu_oh_assignments)
    expected = [vec(1, 1, 1), vec(1, -1, 1), vec(1, 1, -1), vec(-1, 1, 1)]
    assert [w.state for w in search.states] == [canonical_ray(v) for v in expected]
    assert search.undetermined == ()
    assert check_witnesses_basis_free(yu_oh, search)
    _passed(4, "exactly four contextual pure states, all witnesses basis-free")


def test_criterion_05_no_mixed_states(yu_oh, yu_oh_assignments, yu_oh_search):
    report = analyze_mixed_states(yu_oh, yu_oh_assignments, yu_oh_search)
    assert len(report.triples) == 4 * 27
    assert all(t.rank >= 2 for t in report.triples)
    assert all(t.nullity <= 1 for t in report.triples)
    assert report.common_ray_violations == ()
    assert report.no_mixed_states
    _passed(5, "all 4x27 selection systems have rank >= 2; no mixed states")


def test_criterion_06_twelve_paradoxes(yu_oh, yu_oh_assignments):
    seen = []
    for coords, expected in EXPECTED_PARADOXES.items():
        derivation = derive_paradoxes(yu_oh, QuantumState.pure(vec(*coords)), yu_oh_assignments)
        got = [
            (yu_oh.rays[p.witness].label, tuple(yu_oh.rays[z].label for z in p.zero_set))
            for p in derivation.paradoxes
        ]
        assert got == expected
        for p in derivation.paradoxes:
            assert p.sp == Fraction(1, 9)
        seen += list(derivation.paradoxes)
    assert len(seen) == 12
    _passed(6, "the twelve paradoxes, each with SP exactly 1/9")


def test_criterion_07_observables(yu_oh, yu_oh_assignments):
    identity = ExactMatrix.identity(3)
    for coords in EXPECTED_PARADOXES:
        derivation = derive_paradoxes(yu_oh, QuantumState.pure(vec(*coords)), yu_oh_assignments)
        for paradox in derivation.paradoxes:
            observable = build_witness_observable(yu_oh, paradox)
            p1, p2, p3 = observable.projectors
            for p in (p1, p2, p3):
                assert p.is_hermitian() and p @ p == p
            assert p1 + p2 + p3 == identity
            assert verify_observable(paradox, observable).ok
            assert p3 == rank1_projector(paradox.state.psi)
    check = crosscheck_reference_observables(yu_oh, yu_oh_assignments)
    by_row = {r.reference.row: r for r in check.rows}
    # first projector matches the reference tabulation on every row
    assert all(by_row[i].matches[0] for i in range(1, 13))
    # second and third projectors match wherever the printed row passes the
    # consistency oracle; the failing rows are exactly the errata
    assert check.errata == (4, 5, 6, 7)
    for i in range(1, 13):
        if by_row[i].consistent:
            assert by_row[i].matches == (True, True, True)
    assert {i for i in range(1, 13) if not by_row[i].matches[1]} == {7}
    assert {i for i in range(1, 13) if not by_row[i].matches[2]} == {4, 5, 6, 7}
    _passed(7, "observable identities exact; reference errata rows pinned as 4,5,6,7")


def test_criterion_08_oracle_equivalence(yu_oh, yu_oh_assignments):
    states = [QuantumState.pure(vec(*c)) for c in EXPECTED_PARADOXES]
    states += [QuantumState.pure(r.vector) for r in yu_oh.rays]
    rng = random.Random(20260808)
    while len(states) < 4 + 13 + 50:
        coords = [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(3)]
        if any(c != 0 for c in coords):
            states.append(QuantumState.pure(vec(*coords)))
    for state in states:
        verdict = is_logically_contextual(yu_oh, state, yu_oh_assignments)
        assert noncontextuality_oracle(yu_oh, state, yu_oh_assignments) == (not verdict.contextual)
    _passed(8, "verdict and marginal oracle agree on 67 states")


def test_criterion_09_simulation(yu_oh, yu_oh_assignments):
    state = QuantumState.pure(vec(1, 1, 1))
    witness = rank1_projector(yu_oh.rays[yu_oh.ray_index("vA")].vector)
    rest = ExactMatrix.identity(3) - witness
    result = simulate_measurement(state, [witness, rest], shots=100_000, seed=0)
    assert abs(result.frequencies[0] - 1 / 9) <= 0.003
    paradox = derive_paradoxes(yu_oh, state, yu_oh_assignments).paradoxes[0]
    observable = build_witness_observable(yu_oh, paradox)
    certain = simulate_measurement(state, list(observable.projectors), shots=100_000, seed=0)
    assert certain.counts == (0, 0, 100_000)
    _passed(9, "seed-0 witness frequency within 1/9 +- 0.003; certain outcome 100%")


def test_criterion_10_report_determinism():
    args = _build_parser().parse_args(["report", "--scenario", "yu-oh", "--format", "json", "--seed", "0"])
    from ctxkit.scenario import load_bundled

    first = _cmd_report(args, load_bundled("yu-oh"))
    second = _cmd_report(args, load_bundled("yu-oh"))
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
    _passed(10, "report generation is byte-identical across runs")
