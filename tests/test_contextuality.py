"""Possibilistic models, contextuality verdicts and the state search."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ctxkit import (
    DimensionMismatchError,
    ExactMatrix,
    InvalidDensityError,
    ParseError,
    QuantumState,
    Scenario,
    ValidationError,
    analyze_mixed_states,
    canonical_ray,
    check_witnesses_basis_free,
    enumerate_assignments,
    enumerate_contexts,
    find_contextual_pure_states,
    is_logically_contextual,
    load_scenario,
    mixture,
    noncontextuality_oracle,
    parse_density,
    parse_state,
    possibilistic_model,
    rank1_projector,
    vec,
)
from ctxkit.scenario import Ray

MAXIMALLY_MIXED = ExactMatrix.from_rows(
    [[Fraction(1, 3), 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(1, 3)]]
)

CONTEXTUAL_STATES = [vec(1, 1, 1), vec(1, -1, 1), vec(1, 1, -1), vec(-1, 1, 1)]


def model_by_label(scenario, state):
    model = possibilistic_model(scenario, state)
    return {scenario.rays[i].label: v for i, v in enumerate(model.values)}


# --- possibilistic models ---------------------------------------------------


def test_model_of_111(yu_oh):
    values = model_by_label(yu_oh, QuantumState.pure(vec(1, 1, 1)))
    assert {l for l, v in values.items() if v == 0} == {"v4", "v5", "v6"}


def test_model_of_basis_state(yu_oh):
    values = model_by_label(yu_oh, QuantumState.pure(vec(1, 0, 0)))
    assert values["v1"] == 1
    assert values["v2"] == values["v3"] == 0


def test_model_of_maximally_mixed(yu_oh):
    values = model_by_label(yu_oh, QuantumState.density(MAXIMALLY_MIXED))
    assert all(v == 1 for v in values.values())


def test_model_dimension_mismatch(yu_oh):
    with pytest.raises(DimensionMismatchError):
        possibilistic_model(yu_oh, QuantumState.pure(vec(1, 0, 0, 0)))


def test_pure_model_hits_every_basis_context(yu_oh):
    rng = random.Random(7)
    for _ in range(20):
        coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)]
        if all(c == 0 for c in coords):
            continue
        model = possibilistic_model(yu_oh, QuantumState.pure(vec(*coords)))
        for context in yu_oh.basis_contexts():
            assert any(model.value(i) == 1 for i in context.members)


# --- verdicts and the oracle ------------------------------------------------


def test_111_is_contextual_with_witness_vA(yu_oh, yu_oh_assignments):
    verdict = is_logically_contextual(yu_oh, QuantumState.pure(vec(1, 1, 1)), yu_oh_assignments)
    assert verdict.contextual
    assert yu_oh.rays[verdict.witness].label == "vA"
    events = [a for a in yu_oh_assignments if a.bits[verdict.witness] == 1]
    assert [event for event, _ in verdict.blockers] == events
    model = possibilistic_model(yu_oh, QuantumState.pure(vec(1, 1, 1)))
    for event, blocker in verdict.blockers:
        assert blocker in event.support
        assert blocker != verdict.witness
        assert model.value(blocker) == 0


def test_basis_state_not_contextual(yu_oh, yu_oh_assignments):
    verdict = is_logically_contextual(yu_oh, QuantumState.pure(vec(1, 0, 0)), yu_oh_assignments)
    assert not verdict.contextual
    assert verdict.witness is None and verdict.blockers == ()


def test_maximally_mixed_not_contextual(yu_oh, yu_oh_assignments):
    assert not is_logically_contextual(yu_oh, QuantumState.density(MAXIMALLY_MIXED), yu_oh_assignments)


def test_oracle_examples(yu_oh, yu_oh_assignments):
    assert not noncontextuality_oracle(yu_oh, QuantumState.pure(vec(1, 1, 1)), yu_oh_assignments)
    assert noncontextuality_oracle(yu_oh, QuantumState.pure(vec(1, 0, 0)), yu_oh_assignments)
    assert not noncontextuality_oracle(yu_oh, QuantumState.pure(vec(1, -1, 1)), yu_oh_assignments)


def random_rational_states(count, seed, dim=3, bound=10):
    rng = random.Random(seed)
    states = []
    while len(states) < count:
        coords = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(dim)]
        if any(c != 0 for c in coords):
            states.append(QuantumState.pure(vec(*coords)))
    return states


def test_oracle_agrees_with_verdict(yu_oh, yu_oh_assignments):
    states = [QuantumState.pure(v) for v in CONTEXTUAL_STATES]
    states += [QuantumState.pure(r.vector) for r in yu_oh.rays]
    states += random_rational_states(50, seed=20260808)
    for state in states:
        verdict = is_logically_contextual(yu_oh, state, yu_oh_assignments)
        oracle = noncontextuality_oracle(yu_oh, state, yu_oh_assignments)
        assert oracle == (not verdict.contextual)


# --- zero-sets of mixtures ---------------------------------------------------


def test_mixture_zero_iff_all_components_zero(yu_oh):
    rng = random.Random(424242)
    for _ in range(12):
        n = rng.randint(2, 3)
        pures = [
            vec(*[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)])
            for _ in range(n)
        ]
        if any(p.is_zero for p in pures):
            continue
        cuts = sorted(rng.randint(1, 9) for _ in range(n - 1))
        weights = [Fraction(b - a, 10) for a, b in zip([0, *cuts], [*cuts, 10])]
        if any(w == 0 for w in weights):
            continue
        rho = QuantumState.density(
            mixture([(w, rank1_projector(p)) for w, p in zip(weights, pures)])
        )
        mixed_model = possibilistic_model(yu_oh, rho)
        pure_models = [possibilistic_model(yu_oh, QuantumState.pure(p)) for p in pures]
        for i in range(len(yu_oh.rays)):
            all_zero = all(m.value(i) == 0 for m in pure_models)
            assert (mixed_model.value(i) == 0) == all_zero


# --- exhausting contextual pure states ---------------------------------------


def test_search_finds_exactly_four_states(yu_oh, yu_oh_assignments):
    search = find_contextual_pure_states(yu_oh, yu_oh_assignments)
    found = [w.state for w in search.states]
    assert found == [canonical_ray(v) for v in CONTEXTUAL_STATES]
    assert search.undetermined == ()


def test_search_records_witness_and_selection(yu_oh, yu_oh_assignments):
    search = find_contextual_pure_states(yu_oh, yu_oh_assignments)
    first = search.states[0]
    assert yu_oh.rays[first.witness].label == "vA"
    assert tuple(yu_oh.rays[i].label for i in first.selection) == ("v5", "v6")
    assert first.state == vec(1, 1, 1)


def test_search_states_are_contextual(yu_oh, yu_oh_assignments):
    search = find_contextual_pure_states(yu_oh, yu_oh_assignments)
    for w in search.states:
        assert is_logically_contextual(yu_oh, QuantumState.pure(w.state), yu_oh_assignments)


def test_witnesses_are_basis_free(yu_oh, yu_oh_assignments):
    search = find_contextual_pure_states(yu_oh, yu_oh_assignments)
    assert check_witnesses_basis_free(yu_oh, search)
    assert {yu_oh.rays[w.witness].label for w in search.states} <= {"vA", "vB", "vC", "vD"}


def test_search_on_single_basis_scenario():
    s = load_scenario("scenario basis dim 3 field rational\na: 1,0,0\nb: 0,1,0\nc: 0,0,1")
    enumerate_contexts(s)
    search = find_contextual_pure_states(s)
    assert search.states == ()
    assert check_witnesses_basis_free(s, search)


# --- mixed-state analysis -----------------------------------------------------


def test_mixed_analysis_yu_oh(yu_oh, yu_oh_assignments):
    report = analyze_mixed_states(yu_oh, yu_oh_assignments)
    assert len(report.triples) == 4 * 27
    witnesses = {yu_oh.rays[t.witness].label for t in report.triples}
    assert witnesses == {"vA", "vB", "vC", "vD"}
    for t in report.triples:
        assert len(t.picks) == 3
        assert t.rank >= 2
        assert t.nullity <= 1
        assert 2 <= len(t.selection) <= 3
    assert report.common_ray_violations == ()
    assert report.no_mixed_states


def test_mixed_analysis_spot_check(yu_oh, yu_oh_assignments):
    report = analyze_mixed_states(yu_oh, yu_oh_assignments)
    va = yu_oh.ray_index("vA")
    v5, v6 = yu_oh.ray_index("v5"), yu_oh.ray_index("v6")
    entry = next(t for t in report.triples if t.witness == va and t.picks == (v5, v6, v5))
    assert entry.selection == (v5, v6)
    assert entry.rank == 2 and entry.nullity == 1


def test_mixed_analysis_flags_large_solution_spaces():
    # Synthetic structure: a 4-dimensional basis plus one extra ray whose
    # edge set is doctored so only two global events contain it.  The lone
    # selection then has a 2-dimensional solution space, which must flip
    # no_mixed_states off and surface as an undetermined family.
    rays = (
        Ray("a", vec(1, 0, 0, 0)),
        Ray("b", vec(0, 1, 0, 0)),
        Ray("c", vec(0, 0, 1, 0)),
        Ray("d", vec(0, 0, 0, 1)),
        Ray("e", vec(1, 1, 1, 1)),
    )
    basis_edges = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    doctored = Scenario(
        name="doctored",
        dim=4,
        field="rational",
        rays=rays,
        edges=frozenset(basis_edges | {(1, 4), (2, 4)}),
    )
    enumerate_contexts(doctored)
    assignments = enumerate_assignments(doctored)
    supports = {tuple(doctored.rays[i].label for i in a.support) for a in assignments}
    assert ("a", "e") in supports and ("d", "e") in supports
    report = analyze_mixed_states(doctored, assignments)
    assert not report.no_mixed_states
    assert any(t.nullity >= 2 for t in report.triples)
    search = find_contextual_pure_states(doctored, assignments)
    assert any(f.nullity >= 2 for f in search.undetermined)


# --- state construction and parsing -------------------------------------------


def test_pure_states_compare_as_rays():
    assert QuantumState.pure(vec(2, 2, 2)) == QuantumState.pure(vec(1, 1, 1))
    assert QuantumState.pure(vec(-1, 1, 1)).psi == vec(1, -1, -1)


def test_pure_state_rejects_zero():
    with pytest.raises(ValidationError):
        QuantumState.pure(vec(0, 0, 0))


def test_density_state_is_validated():
    bad = ExactMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -1]])
    with pytest.raises(InvalidDensityError):
        QuantumState.density(bad)


def test_parse_state():
    state = parse_state("1,1,1", dim=3)
    assert state.psi == vec(1, 1, 1)
    with pytest.raises(ValidationError):
        parse_state("1,1", dim=3)
    with pytest.raises(ParseError):
        parse_state("1,x,1", dim=3)


def test_parse_density():
    text = "1/3 0 0\n0 1/3 0\n0 0 1/3\n"
    state = parse_density(text, dim=3)
    assert state.rho == MAXIMALLY_MIXED
    with pytest.raises(ValidationError):
        parse_density("1 0 0\n0 0 0\n", dim=3)
