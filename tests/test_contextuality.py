"""Possibilistic models, contextuality verdicts and the state search."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctxkit.contextuality
import ctxkit.hardy
import ctxkit.scenario
import oracles
from ctxkit import (
    DimensionMismatchError,
    ExactMatrix,
    ExactScalar,
    ExactVector,
    GlobalEvents,
    HardyParadox,
    InvalidDensityError,
    ParseError,
    PossibilisticModel,
    QuantumState,
    Scenario,
    ValidationError,
    analyze_mixed_states,
    canonical_ray,
    check_witnesses_basis_free,
    derive_paradoxes,
    enumerate_assignments,
    enumerate_contexts,
    find_contextual_pure_states,
    gram_schmidt,
    inner_product,
    is_logically_contextual,
    load_bundled,
    load_scenario,
    mixture,
    noncontextuality_oracle,
    nullspace,
    parse_density,
    parse_state,
    possibilistic_model,
    rank1_projector,
    replay_contradiction,
    vec,
)
from ctxkit.contextuality import _blocked_witnesses
from ctxkit.scenario import Ray
from test_assignments import box_scenario, box_subsets

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
            assert any(model.values[i] == 1 for i in context.members)


def test_model_is_computed_once_per_state_and_scenario(yu_oh):
    state = QuantumState.pure(vec(1, 1, 1))
    assert possibilistic_model(yu_oh, state) is possibilistic_model(yu_oh, state)


@cache
def dimension_3_scenarios():
    """yu-oh, its Gaussian image and the 32-ray box-d3-m2 prefix: three ray tuples of one dimension."""
    yu_oh = load_bundled("yu-oh")
    return yu_oh, load_scenario(gaussian_image_text(yu_oh)), box_d3_m2_prefix()[0]


small_gaussian_vectors = st.lists(
    st.builds(ExactScalar, st.integers(-2, 2), st.integers(-1, 1)), min_size=3, max_size=3
).map(lambda cs: ExactVector(tuple(cs)))


@st.composite
def dimension_3_states(draw):
    """A pure state or a mixture of up to three; the vectors are rays of the scenarios or small Gaussian vectors."""
    rays = [r.vector for s in dimension_3_scenarios() for r in s.rays]
    vectors = (st.sampled_from(rays) | small_gaussian_vectors).filter(lambda v: not v.is_zero)
    parts = draw(st.lists(vectors, min_size=1, max_size=3))
    if draw(st.booleans()):
        return QuantumState.pure(parts[0])
    weights = draw(st.lists(st.integers(1, 4), min_size=len(parts), max_size=len(parts)))
    return QuantumState.density(mixture([(Fraction(w, sum(weights)), rank1_projector(v)) for w, v in zip(weights, parts)]))


@settings(max_examples=60, deadline=None)
@given(dimension_3_states(), st.lists(st.integers(0, 2), min_size=2, max_size=6).filter(lambda o: len(set(o)) > 1))
def test_model_kept_on_the_state_is_the_born_model_of_each_scenario(state, order):
    # one state object, several ray tuples of its dimension, in any order and with repeats
    scenarios = dimension_3_scenarios()
    twin = QuantumState(state.dim, state.rho, state.psi)
    for i in order:
        assert possibilistic_model(scenarios[i], state) == oracles.born_model(scenarios[i], state)
    # the kept model changes neither equality, nor hash, nor repr
    assert state == twin and hash(state) == hash(twin) and repr(state) == repr(twin)


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
        assert model.values[blocker] == 0


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


# --- ray-mask event tests against the tuple and set oracles -------------------


def assert_event_tests_match_oracles(scenario, assignments, state):
    """Verdict, marginal oracle, paradoxes and their replays equal the tuple and set versions."""
    assert is_logically_contextual(scenario, state, assignments) == oracles.is_logically_contextual(
        scenario, state, assignments
    )
    assert noncontextuality_oracle(scenario, state, assignments) == oracles.noncontextuality_oracle(
        scenario, state, assignments
    )
    paradoxes = derive_paradoxes(scenario, state, assignments).paradoxes
    assert [(p.witness, p.zero_set, p.sp) for p in paradoxes] == oracles.derive_paradoxes(scenario, state, assignments)
    # replays of the paradoxes, of their shrunk zero sets, and of every ray against all impossible rays
    impossible = possibilistic_model(scenario, state).impossible()
    claims = [HardyParadox(p.state, p.witness, z, p.sp) for p in paradoxes for z in (p.zero_set, p.zero_set[1:], p.zero_set[:-1])]
    claims += [HardyParadox(state, k, impossible, state.probability(r.vector)) for k, r in enumerate(scenario.rays)]
    for claim in claims:
        assert replay_contradiction(assignments, claim) == oracles.replay_contradiction(assignments, claim)


def test_empty_event_makes_a_state_orthogonal_to_every_ray_non_contextual():
    # no basis, so the empty event is a global event; under 0,0,1 every ray is
    # impossible and that event alone reproduces the all-zero model
    s = load_scenario("scenario two dim 3 field rational\na: 1,0,0\nb: 0,1,0")
    enumerate_contexts(s)
    assignments = enumerate_assignments(s)
    assert [a.mask for a in assignments] == [0, 1, 2]
    state = QuantumState.pure(vec(0, 0, 1))
    assert noncontextuality_oracle(s, state, assignments)
    assert not is_logically_contextual(s, state, assignments)
    assert_event_tests_match_oracles(s, assignments, state)


def hyperplane_normals(scenario):
    """The normals of the hyperplanes spanned by ``dim - 1`` rays, in a fixed order."""
    vectors = [r.vector for r in scenario.rays]
    normals = {b[0] for rays in combinations(vectors, scenario.dim - 1) if len(b := nullspace(list(rays))) == 1}
    return sorted(normals, key=str)


@pytest.mark.parametrize("d, m", [(3, 2), (4, 1)])
def test_mask_event_tests_match_oracles_on_box_prefixes(d, m):
    # 32-ray prefixes: 1024 and 216 global events, and on box-d3-m2 eight rays in no event
    s = box_scenario(d, m, range(32))
    assignments = enumerate_assignments(s)
    for psi in [r.vector for r in s.rays] + hyperplane_normals(s)[::97]:
        assert_event_tests_match_oracles(s, assignments, QuantumState.pure(psi))


@settings(max_examples=100, deadline=None)
@given(box_subsets(), st.data())
def test_mask_event_tests_match_oracles_on_box_subsets(subset, data):
    s = box_scenario(*subset)
    assignments = enumerate_assignments(s)
    vectors = [r.vector for r in s.rays]
    states = data.draw(st.lists(st.sampled_from(vectors + hyperplane_normals(s)), min_size=1, max_size=4))
    states += nullspace(vectors)[:1]  # a state orthogonal to every ray, where the rays leave room for one
    for psi in states:
        assert_event_tests_match_oracles(s, assignments, QuantumState.pure(psi))


def assert_blocked_witnesses_match_the_oracle(scenario, assignments, zeros):
    """The column scan on the zero mask ``zeros`` equals the per-ray scan on the model it gives."""
    n = len(scenario.rays)
    model = PossibilisticModel(tuple(0 if zeros >> i & 1 else 1 for i in range(n)))
    events = GlobalEvents(assignments)
    got = []
    for k, column in _blocked_witnesses(events, zeros):
        held = list(compress(events, (column >> j & 1 for j in range(len(events)))))
        got.append((k, held, [{i for i in range(n) if (e.mask & zeros) >> i & 1} for e in held]))
    want = [(k, events, [set(hit) for hit in hits]) for k, events, hits in oracles.blocked_witnesses(model, assignments)]
    assert got == want


@settings(max_examples=100, deadline=None)
@given(box_subsets(), st.data())
def test_blocked_witnesses_match_the_oracle_on_any_zero_mask_of_box_subsets(subset, data):
    s = box_scenario(*subset)
    zeros = data.draw(st.integers(0, (1 << len(s.rays)) - 1))
    assert_blocked_witnesses_match_the_oracle(s, enumerate_assignments(s), zeros)


@cache
def box_d3_m2_prefix():
    s = box_scenario(3, 2, range(32))
    return s, enumerate_assignments(s)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 31)))
@example(set())
def test_blocked_witnesses_match_the_oracle_on_any_zero_mask_of_the_box_prefix(zero_rays):
    # eight rays of this prefix lie in no global event, so they are never witnesses
    s, assignments = box_d3_m2_prefix()
    assert_blocked_witnesses_match_the_oracle(s, assignments, sum(1 << i for i in zero_rays))


# a witness's hit list repeats a few masks many times; mask 0 is an event no ray can hit
repeated_masks = st.lists(st.integers(0, (1 << 10) - 1) | st.just(0), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40)
)


@given(st.lists(st.integers(1, (1 << 10) - 1), max_size=5) | repeated_masks)
def test_minimum_hitting_set_matches_the_set_oracle(masks):
    hit_lists = [[i for i in range(10) if mask >> i & 1] for mask in masks]
    if not masks or 0 in masks:
        with pytest.raises(AssertionError):
            oracles.hitting_set_of_masks(masks)
        return
    assert oracles.hitting_set_of_masks(masks) == oracles.minimum_hitting_set(hit_lists)


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
            all_zero = all(m.values[i] == 0 for m in pure_models)
            assert (mixed_model.values[i] == 0) == all_zero


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
    search = find_contextual_pure_states(s, enumerate_assignments(s))
    assert search.states == ()
    assert check_witnesses_basis_free(s, search)


# --- mixed-state analysis -----------------------------------------------------


def test_mixed_analysis_yu_oh(yu_oh, yu_oh_assignments, yu_oh_search):
    report = analyze_mixed_states(yu_oh, yu_oh_assignments, yu_oh_search)
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


def test_mixed_analysis_spot_check(yu_oh, yu_oh_assignments, yu_oh_search):
    report = analyze_mixed_states(yu_oh, yu_oh_assignments, yu_oh_search)
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
    search = find_contextual_pure_states(doctored, assignments)
    report = analyze_mixed_states(doctored, assignments, search)
    assert not report.no_mixed_states
    assert any(t.nullity >= 2 for t in report.triples)
    assert any(f.nullity >= 2 for f in search.undetermined)


# --- the flat scan against brute force and the per-selection search ----------------

# The per-selection search walks the product of a witness's global events;
# it runs only below this many picks.
SELECTION_BUDGET = 20_000


def check_flat_scan(scenario):
    assignments = enumerate_assignments(scenario)
    search = find_contextual_pure_states(scenario, assignments)
    states = {w.state for w in search.states}
    assert len(states) == len(search.states)
    assert states == oracles.hyperplane_states(scenario, assignments)
    assert search.states == tuple(sorted(search.states, key=lambda w: (w.witness, w.selection)))
    if oracles.selection_count(scenario, assignments) <= SELECTION_BUDGET:
        assert {psi for _, psi, _ in oracles.selection_search(scenario, assignments)[0]} <= states
    for family in search.undetermined:
        complement = gram_schmidt(oracles.nullspace([scenario.rays[i].vector for i in family.selection], scenario.dim))
        assert len(complement) == family.nullity >= 2
        rho = QuantumState.density(mixture([(Fraction(1, len(complement)), rank1_projector(u)) for u in complement]))
        assert possibilistic_model(scenario, rho).impossible() == family.selection
        assert is_logically_contextual(scenario, rho, assignments)
        assert not noncontextuality_oracle(scenario, rho, assignments)
    mixed = analyze_mixed_states(scenario, assignments, search)
    assert mixed.common_ray_violations == search.undetermined
    assert mixed.no_mixed_states == (not search.undetermined)


@settings(max_examples=30, deadline=None)
@given(box_subsets())
# rank-1 and rank-2 blocking flats, which random subsets seldom give; in the
# first, hyperplanes through the blocking ray r4 give states no selection spans
@example((3, 2, [2, 3, 4, 13, 14, 16, 19, 20, 21, 25]))
@example((4, 1, [0, 2, 5, 7, 8, 10, 17, 19, 22, 23, 25, 27, 29, 31]))
def test_flat_scan_matches_brute_force_on_box_subsets(subset):
    check_flat_scan(box_scenario(*subset))


def test_flat_scan_matches_brute_force_on_gaussian_yu_oh(yu_oh):
    scenario = load_scenario(gaussian_image_text(yu_oh))
    enumerate_contexts(scenario)
    check_flat_scan(scenario)


# --- a Gaussian-field image of yu-oh against the Fraction oracle ------------------

# A unitary over Q(i): its image of yu-oh has yu-oh's combinatorics but
# coordinates with genuine imaginary parts.
GAUSSIAN_UNITARY = ExactMatrix.from_rows(
    [
        [Fraction(3, 5), ExactScalar(0, Fraction(4, 5)), 0],
        [ExactScalar(0, Fraction(4, 5)), Fraction(3, 5), 0],
        [0, 0, 1],
    ]
)


def gaussian_image_text(scenario) -> str:
    lines = [f"scenario {scenario.name}-u dim 3 field gaussian"]
    for ray in scenario.rays:
        image = canonical_ray(oracles.apply(GAUSSIAN_UNITARY, ray.vector))
        lines.append(f"{ray.label}: " + ",".join(str(c) for c in image.coords))
    return "\n".join(lines) + "\n"


def run_pipeline(text):
    scenario = load_scenario(text)
    contexts = enumerate_contexts(scenario)
    assignments = enumerate_assignments(scenario)
    search = find_contextual_pure_states(scenario, assignments)
    return scenario, contexts, search, analyze_mixed_states(scenario, assignments, search)


def test_gaussian_image_matches_the_fraction_oracle(monkeypatch, yu_oh):
    assert GAUSSIAN_UNITARY @ GAUSSIAN_UNITARY.dagger() == ExactMatrix.identity(3)
    text = gaussian_image_text(yu_oh)
    scenario, contexts, search, mixed = run_pipeline(text)
    assert scenario.edges == yu_oh.edges
    assert any(c.im != 0 for ray in scenario.rays for c in ray.vector.coords)
    assert {s.state for s in search.states} == {
        canonical_ray(oracles.apply(GAUSSIAN_UNITARY, s.state))
        for s in find_contextual_pure_states(yu_oh, enumerate_assignments(yu_oh)).states
    }
    assert len(search.states) == 4
    assert len(mixed.triples) == 4 * 27 and mixed.no_mixed_states

    for module in (ctxkit.scenario, ctxkit.contextuality, ctxkit.hardy):
        for name, oracle in (
            ("rank", oracles.rank),
            ("nullspace", oracles.nullspace),
            ("orthogonal", lambda u, v: inner_product(u, v).is_zero),
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, oracle)
    oracle_scenario, *oracle_results = run_pipeline(text)
    assert oracle_scenario.edges == scenario.edges
    assert oracle_results == [contexts, search, mixed]


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
