"""Possibilistic models, contextuality verdicts and the state search."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ctxkit.contextuality
import ctxkit.exact
import ctxkit.hardy
import ctxkit.scenario
import oracles
from ctxkit import (
    DimensionMismatchError,
    ExactMatrix,
    ExactScalar,
    ExactVector,
    HardyParadox,
    InvalidDensityError,
    ParseError,
    PossibilisticModel,
    QuantumState,
    Scenario,
    ValidationError,
    analyze_mixed_states,
    canonical_ray,
    build_witness_observable,
    check_witnesses_basis_free,
    derive_paradoxes,
    enumerate_assignments,
    enumerate_contexts,
    find_contextual_pure_states,
    gram_schmidt,
    is_logically_contextual,
    load_bundled,
    load_scenario,
    mixture,
    noncontextuality_oracle,
    nullspace,
    parse_density,
    parse_state,
    possibilistic_model,
    rank,
    rank1_projector,
    replay_contradiction,
    simulate_measurement,
    vec,
    verify_observable,
)
from ctxkit.contextuality import _blocked_witnesses, _pass_probabilities, witness_blockers
from ctxkit.scenario import Ray, _rays
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


def gaussian_integer_vectors(dim):
    return st.lists(
        st.builds(ExactScalar, st.integers(-3, 3), st.integers(-3, 3)), min_size=dim, max_size=dim
    ).map(lambda cs: ExactVector(tuple(cs)))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("dim", [3, 4, 5])
def test_density_model_is_the_born_model_for_every_rank(dim, data):
    # rho = sum of w_k |v_k><v_k| / |v_k|^2 over r independent Gaussian-integer vectors, r = 1..dim;
    # the rays hold kernel vectors of rho, sums of two, a kernel vector plus some v_k, for each i the
    # vectors z with (rho z)_j = 0 for every j != i, so that each row of rho alone decides, and random vectors
    r = data.draw(st.integers(1, dim))
    parts = data.draw(st.lists(gaussian_integer_vectors(dim), min_size=r, max_size=r))
    assume(rank(parts, dim=dim) == r)
    weights = data.draw(st.lists(st.integers(1, 5), min_size=r, max_size=r))
    rho = mixture([(Fraction(w, sum(weights)), rank1_projector(v)) for w, v in zip(weights, parts)])
    kernel = nullspace(parts, dim=dim)
    vectors = kernel + [oracles.add_vectors(a, b) for a, b in combinations(kernel, 2)]
    vectors += [oracles.add_vectors(k, v) for k in kernel for v in parts]
    columns = [ExactVector(rho.entries[j::dim]) for j in range(dim)]
    vectors += [z for i in range(dim) for z in nullspace(columns[:i] + columns[i + 1 :], dim=dim)]
    vectors += parts + data.draw(st.lists(gaussian_integer_vectors(dim), max_size=6))
    rays = {canonical_ray(v): None for v in vectors if not v.is_zero}
    lines = [f"r{i}: " + ",".join(str(c) for c in v.coords) for i, v in enumerate(rays)]
    scenario = load_scenario("\n".join([f"scenario rho dim {dim} field gaussian", *lines]))
    state = QuantumState.density(rho)
    model = possibilistic_model(scenario, state)
    assert model == oracles.born_model(scenario, state)
    assert model.values == tuple(int(oracles.expectation(rho, ray.vector) != 0) for ray in scenario.rays)
    assert model.values[: len(kernel)] == (0,) * len(kernel)


@cache
def box_prefix(d):
    """The first 32 rays of box-d3-m2, box-d4-m1 or box-d5-m1."""
    return box_scenario(d, 2 if d == 3 else 1, range(32))


def gaussian_integers(bits):
    return st.integers(-(1 << bits), 1 << bits)


@st.composite
def states_with_zeros(draw, scenario):
    """A pure state or a mixture of up to ``dim`` parts, each part orthogonal to the same few rays.

    The parts combine a basis of those rays' orthogonal complement with Gaussian-integer
    coefficients of 1 to 100 bits, so that the state's integer rows cross the slot widths;
    a mixture of fewer than ``dim`` parts is rank-deficient.
    """
    d = scenario.dim
    picks = draw(st.lists(st.sampled_from([r.vector for r in scenario.rays]), max_size=d - 1))
    basis = nullspace(picks, dim=d)
    bits = draw(st.sampled_from([1, 4, 8, 20, 40, 41, 64, 100]))
    coefficient = st.builds(ExactScalar, gaussian_integers(bits), st.just(0) | gaussian_integers(bits))
    parts = []
    for _ in range(draw(st.integers(1, d))):
        v = basis[0]
        for b in basis:
            v = oracles.add_vectors(v, oracles.scale_vector(b, draw(coefficient)))
        parts.append(v if not v.is_zero else basis[0])
    if len(parts) == 1 and draw(st.booleans()):
        return QuantumState.pure(parts[0])
    weight = st.integers(1, 1 << draw(st.sampled_from([2, 50])))
    weights = draw(st.lists(weight, min_size=len(parts), max_size=len(parts)))
    return QuantumState.density(mixture([(Fraction(w, sum(weights)), rank1_projector(v)) for w, v in zip(weights, parts)]))


def assert_packed_model_is_the_per_ray_model(scenario, state):
    model = possibilistic_model(scenario, state)
    assert model == oracles.integer_model(scenario, state)
    assert model.zeros == PossibilisticModel(model.values).zeros
    # the same state from the bare constructor, with no model kept yet
    assert possibilistic_model(scenario, QuantumState(state.dim, state.rho, state.psi)) == model
    if state.rho is not None:
        # the model above came from the rows at the positive pivots alone; they number the rank of rho's rows
        d = state.dim
        kept = ctxkit.exact.validate_density(state.rho)
        assert len(kept) == rank([ExactVector(state.rho.row(i)) for i in range(d)], dim=d)
        assert state._rows == tuple(state.rho.nums[i * d : (i + 1) * d] for i in kept)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("d", [3, 4, 5])
def test_packed_model_matches_the_per_ray_model_on_box_prefixes(d, data):
    scenario = box_prefix(d)
    assert_packed_model_is_the_per_ray_model(scenario, data.draw(states_with_zeros(scenario)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_model_matches_the_per_ray_model_on_the_gaussian_image(data):
    scenario = dimension_3_scenarios()[1]
    assert any(c.im for r in scenario.rays for c in r.vector.coords)
    assert_packed_model_is_the_per_ray_model(scenario, data.draw(states_with_zeros(scenario)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_model_matches_the_per_ray_model_on_rays_of_many_bits(data):
    # random Gaussian-integer rays of up to 64 bits and the normals of pairs of them, whose parts reach about 130 bits
    bits = data.draw(st.sampled_from([3, 40, 64]))
    wide = gaussian_integer_vectors(3).map(lambda v: oracles.scale_vector(v, 1 + (1 << bits)))
    vectors = data.draw(st.lists(wide, min_size=2, max_size=5))
    vectors = [oracles.add_vectors(v, vec(1, 0, 0)) for v in vectors]
    vectors += [b[0] for u, v in combinations(vectors, 2) if len(b := nullspace([u, v], dim=3)) == 1]
    rays = {canonical_ray(v): None for v in vectors if not v.is_zero}
    lines = [f"r{i}: " + ",".join(str(c) for c in v.coords) for i, v in enumerate(rays)]
    scenario = load_scenario("\n".join(["scenario wide dim 3 field gaussian", *lines]))
    assert_packed_model_is_the_per_ray_model(scenario, data.draw(states_with_zeros(scenario)))


def scenario_of(scenario_key):
    """``box_prefix(d)`` for d = 3 or 4, yu-oh for ``"yu-oh"`` or its Gaussian image for ``"image"``."""
    if scenario_key in ("yu-oh", "image"):
        return dimension_3_scenarios()[scenario_key == "image"]
    return box_prefix(scenario_key)


@cache
def events_of(scenario_key):
    """The global events of ``scenario_of(scenario_key)``."""
    return enumerate_assignments(scenario_of(scenario_key))


def assert_pass_probabilities_are_the_born_probabilities(scenario, events, state):
    # every ray's probability read off the kept Born pass, against the per-ray slow paths
    possibilistic_model(scenario, state)
    rho = rank1_projector(state.psi) if state.rho is None else state.rho
    for ray, sp in zip(scenario.rays, _pass_probabilities(state, scenario, range(len(scenario.rays)))):
        assert sp == state.probability(ray.vector) == oracles.expectation(rho, ray.vector)
    for paradox in derive_paradoxes(scenario, state, events).paradoxes:
        assert paradox.sp == state.probability(scenario.rays[paradox.witness].vector)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("d", [3, 4])
def test_pass_probabilities_match_born_probabilities_on_box_prefixes(d, data):
    scenario = box_prefix(d)
    assert_pass_probabilities_are_the_born_probabilities(scenario, events_of(d), data.draw(states_with_zeros(scenario)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pass_probabilities_match_born_probabilities_on_the_gaussian_image(data):
    # 7-digit coordinates: the widest slots of the three scenarios
    scenario = dimension_3_scenarios()[1]
    state = data.draw(states_with_zeros(scenario))
    assert_pass_probabilities_are_the_born_probabilities(scenario, events_of("image"), state)


def test_pass_probabilities_of_the_gaussian_image_paradoxes():
    # the image's four contextual states, pure and as rank-1 densities: 12 paradoxes each way, every SP 1/9
    scenario = dimension_3_scenarios()[1]
    for as_density in (False, True):
        sps = []
        for found in find_contextual_pure_states(scenario, events_of("image")).states:
            state = QuantumState.density(rank1_projector(found.state)) if as_density else QuantumState.pure(found.state)
            assert_pass_probabilities_are_the_born_probabilities(scenario, events_of("image"), state)
            sps += [p.sp for p in derive_paradoxes(scenario, state, events_of("image")).paradoxes]
        assert sps == [Fraction(1, 9)] * 12


@st.composite
def real_or_complex_states(draw, dim):
    """A pure state, or a density of 1 to 3 rank-1 parts, of small Gaussian-integer vectors: all real, or complex
    as a rule, so that the densities' off-diagonal entries are imaginary too."""
    im = st.just(0) if draw(st.booleans()) else st.integers(-3, 3)
    vectors = st.lists(st.builds(ExactScalar, st.integers(-3, 3), im), min_size=dim, max_size=dim)
    parts = draw(st.lists(vectors.map(lambda cs: ExactVector(tuple(cs))).filter(lambda v: not v.is_zero), min_size=1,
                          max_size=3))
    if len(parts) == 1 and draw(st.booleans()):
        return QuantumState.pure(parts[0])
    weights = draw(st.lists(st.integers(1, 5), min_size=len(parts), max_size=len(parts)))
    return QuantumState.density(mixture([(Fraction(w, sum(weights)), rank1_projector(v)) for w, v in zip(weights, parts)]))


def complex_states_on_real_rays(dim):
    """(1, i, 0, ...) as a pure state, and the rank-2 density of it and (0, 1, i, 0, ...) in equal parts."""
    a, b = vec(1, ExactScalar(0, 1), *[0] * (dim - 2)), vec(0, 1, ExactScalar(0, 1), *[0] * (dim - 3))
    return [QuantumState.pure(a), QuantumState.density(mixture([(Fraction(1, 2), rank1_projector(v)) for v in (a, b)]))]


@pytest.mark.parametrize("scenario_key", ["yu-oh", "image", 4])
def test_pass_probabilities_of_complex_states(scenario_key):
    # a complex state on real rays, as (1, i, 0) on yu-oh, has complex products that the imaginary slot holds
    for state in complex_states_on_real_rays(scenario_of(scenario_key).dim):
        assert_pass_probabilities_are_the_born_probabilities(scenario_of(scenario_key), events_of(scenario_key), state)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("scenario_key", ["yu-oh", "image", 4])
def test_pass_probabilities_of_real_and_complex_states(scenario_key, data):
    # pure reads take the real and the imaginary slot; densities read one Hermitian form
    scenario = scenario_of(scenario_key)
    state = data.draw(real_or_complex_states(scenario.dim))
    assert_pass_probabilities_are_the_born_probabilities(scenario, events_of(scenario_key), state)


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_pass_probabilities_of_a_density_whose_kept_rows_are_narrower_than_den():
    # the kept block [[F49, F48], [F48, F47]] has determinant 1 (Cassini); the third row and column, (p, q) =
    # (F49, -F49) against it, are dependent, so N22 = (p, q) adj(block) (p, q)^T = F49^2 F51 and den = tr N.
    # The kept rows' parts have 33 bits, N22 and den 100: a Hermitian form packed at the kept rows' width overflows
    f47, f48, f49, f51 = map(fibonacci, (47, 48, 49, 51))
    entries = [f49, f48, f49, f48, f47, -f49, f49, -f49, f49 * f49 * f51]
    rho = ExactMatrix(3, 3, f49 + f47 + entries[-1], [(x, 0) for x in entries])
    assert ctxkit.exact.validate_density(rho) == [0, 1]
    state = QuantumState.density(rho)
    assert max(abs(x) for row in state._rows for z in row for x in z).bit_length() == 33
    assert entries[-1].bit_length() == rho.den.bit_length() == 100
    for key in ("yu-oh", 3):
        assert_pass_probabilities_are_the_born_probabilities(scenario_of(key), events_of(key), state)


def test_rows_of_one_byte_length_share_one_packing():
    scenario = box_scenario(3, 2, range(32))
    # rows of 1-, 2- and 7-bit parts need the same slot width
    for coords in [(1, 1, 1), (1, 2, 3), (100, 1, 7)]:
        possibilistic_model(scenario, QuantumState.pure(vec(*coords)))
    assert list(scenario._packings) == [1]
    possibilistic_model(scenario, QuantumState.pure(vec(256, 1, 1)))
    assert list(scenario._packings) == [1, 2]


@pytest.mark.parametrize("coords", [(1, 1, 1), (0, 1, 2), (1, 0, 0)])
def test_a_pure_check_builds_no_projector(monkeypatch, yu_oh, yu_oh_assignments, coords):
    from test_cli import count_calls

    state = QuantumState.pure(vec(*coords))
    assert state.rho is None
    # the observables are built first: their third projector is the one onto the state's ray
    derivation = derive_paradoxes(yu_oh, state, yu_oh_assignments)
    measured = [(p, build_witness_observable(yu_oh, p)) for p in derivation.paradoxes if len(p.zero_set) == 2]
    axes = [rank1_projector(vec(*row)) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    scenarios = ((yu_oh, yu_oh_assignments), box_d3_m2_prefix())
    built = count_calls(monkeypatch, ctxkit.exact.rank1_projector)
    # nor a scalar: rays and states are integer vectors, and a check reads only their integers
    scalars = []
    init = ExactScalar.__init__
    monkeypatch.setattr(ExactScalar, "__init__", lambda self, *args: scalars.append(args) or init(self, *args))
    for scenario, events in scenarios:
        fresh = QuantumState.pure(vec(*coords))
        is_logically_contextual(scenario, fresh, events)
        noncontextuality_oracle(scenario, fresh, events)
        derive_paradoxes(scenario, fresh, events)
    find_contextual_pure_states(yu_oh, yu_oh_assignments)
    assert scalars == []
    simulate_measurement(state, axes, shots=10, seed=0)
    for paradox, observable in measured:
        simulate_measurement(state, list(observable.projectors), shots=10, seed=0)
        assert verify_observable(paradox, observable)
    assert [args for args in built if canonical_ray(args[0]) == state.psi] == []
    assert bool(measured) == (coords == (1, 1, 1))


@settings(max_examples=60, deadline=None)
@given(dimension_3_states(), st.lists(small_gaussian_vectors.filter(lambda v: not v.is_zero), min_size=1, max_size=3))
def test_outcome_probability_is_the_trace_of_rho_p(state, vectors):
    # pure states against their projector, densities against the matrix; each P a projector or a mixture of them
    rho = rank1_projector(state.psi) if state.rho is None else state.rho
    projectors = [rank1_projector(v) for v in vectors]
    projectors.append(mixture([(Fraction(1, len(projectors)), p) for p in projectors]))
    for p in projectors:
        want = oracles.trace(ExactMatrix.from_rows(oracles.matmul(rho, p))).as_fraction()
        assert state.outcome_probability(p) == want


# --- verdicts and the oracle ------------------------------------------------


def test_111_is_contextual_with_witness_vA(yu_oh, yu_oh_assignments):
    verdict = is_logically_contextual(yu_oh, QuantumState.pure(vec(1, 1, 1)), yu_oh_assignments)
    assert verdict.contextual
    assert yu_oh.rays[verdict.witness].label == "vA"
    events = [a.mask for a in yu_oh_assignments if a.bits[verdict.witness] == 1]
    blockers = witness_blockers(yu_oh_assignments, verdict)
    assert [mask for mask, _ in blockers] == events
    model = possibilistic_model(yu_oh, QuantumState.pure(vec(1, 1, 1)))
    for mask, blocker in blockers:
        assert mask >> blocker & 1
        assert blocker != verdict.witness
        assert model.values[blocker] == 0


def test_basis_state_not_contextual(yu_oh, yu_oh_assignments):
    verdict = is_logically_contextual(yu_oh, QuantumState.pure(vec(1, 0, 0)), yu_oh_assignments)
    assert not verdict.contextual
    assert verdict.witness is None and witness_blockers(yu_oh_assignments, verdict) == ()


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
    """Verdict, its blockers, marginal oracle, paradoxes and their replays equal the tuple and set versions."""
    verdict = is_logically_contextual(scenario, state, assignments)
    assert verdict == oracles.is_logically_contextual(scenario, state, assignments)
    blockers = oracles.witness_blockers(scenario, state, assignments)
    assert witness_blockers(assignments, verdict) == tuple((event.mask, blocker) for event, blocker in blockers)
    assert noncontextuality_oracle(scenario, state, assignments) == oracles.noncontextuality_oracle(
        scenario, state, assignments
    )
    paradoxes = derive_paradoxes(scenario, state, assignments).paradoxes
    assert [(p.witness, p.zero_set, p.sp) for p in paradoxes] == oracles.derive_paradoxes(scenario, state, assignments)
    # replays of the paradoxes, of their shrunk zero sets, and of every ray against all impossible rays
    zeros = possibilistic_model(scenario, state).zeros
    impossible = tuple(i for i in range(len(scenario.rays)) if zeros >> i & 1)
    claims = [HardyParadox(p.state, p.witness, z, p.sp) for p in paradoxes for z in (p.zero_set, p.zero_set[1:], p.zero_set[:-1])]
    claims += [HardyParadox(state, k, impossible, state.probability(r.vector)) for k, r in enumerate(scenario.rays)]
    # one batch, whose paradoxes share zero sets
    assert replay_contradiction(assignments, claims) == [oracles.replay_contradiction(assignments, c) for c in claims]


def test_empty_event_makes_a_state_orthogonal_to_every_ray_non_contextual():
    # no basis, so the empty event is a global event; under 0,0,1 every ray is
    # impossible and that event alone reproduces the all-zero model
    s = load_scenario("scenario two dim 3 field rational\na: 1,0,0\nb: 0,1,0")
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
    """The column scan on the zero mask ``zeros`` equals the per-ray scan on the model it gives; the columns are over
    the core events, so each witness's events are walked with ``held`` and sorted."""
    n = len(scenario.rays)
    model = PossibilisticModel(tuple(0 if zeros >> i & 1 else 1 for i in range(n)))
    got = []
    for k, _ in _blocked_witnesses(assignments, zeros, assignments.missing(zeros)):
        held = sorted(assignments.held(k), key=_rays)
        got.append((k, held, [{i for i in range(n) if (mask & zeros) >> i & 1} for mask in held]))
    want = [
        (k, [e.mask for e in events], [set(hit) for hit in hits])
        for k, events, hits in oracles.blocked_witnesses(model, assignments)
    ]
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


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 31), st.integers(0, 31) | st.tuples(*[st.integers(-3, 3)] * 3))
@example(20, 6)  # (1,0,0) x (0,2,-1) = (0,1,2): 21 witnesses, four zero rays, two of them the zero sets
@example(21, 23)  # (1,0,1) x (1,1,-2) = (-1,3,1): 7 witnesses, three zero sets of two rays
def test_derived_paradoxes_match_the_oracle_on_states_orthogonal_to_a_box_ray(ray, other):
    # a state orthogonal to a ray of the prefix, often to a second ray too: the states whose
    # zero rays each block many witnesses, so one state's witnesses share its zero rays' columns
    s, assignments = box_d3_m2_prefix()
    rays = [tuple(int(c.re) for c in r.vector.coords) for r in s.rays]
    psi = cross(rays[ray], rays[other] if isinstance(other, int) else other)
    assume(any(psi))
    state = QuantumState.pure(vec(*psi))
    paradoxes = derive_paradoxes(s, state, assignments).paradoxes
    assert [(p.witness, p.zero_set, p.sp) for p in paradoxes] == oracles.derive_paradoxes(s, state, assignments)


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


@settings(max_examples=150, deadline=None)
@given(st.permutations(range(10)), st.integers(1, 3), st.integers(4, 7), st.data())
@example(list(range(10)), 1, 4, None)  # forced ray 0, then the tie {1, 3} or {2, 4} on the cycle 1-2-3-4
def test_forced_rays_merge_with_the_residual_search(rays, forced_count, cycle_length, data):
    # each forced ray alone hits one event; the rest of the events form a cycle on other rays, which the
    # forced ones never hit, so the residual search adds ceil(length / 2) >= 2 rays, with ties
    forced, cycle = rays[:forced_count], rays[forced_count : forced_count + cycle_length]
    masks = [1 << z for z in forced] + [1 << a | 1 << b for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    if data is not None:
        # events that a forced ray hits too, among others, leave the residual as it is
        masks += [m | 1 << data.draw(st.sampled_from(forced)) for m in data.draw(st.lists(st.integers(0, 1023)))]
        masks = data.draw(st.permutations(masks))
    got = oracles.hitting_set_of_masks(masks)
    assert got == oracles.minimum_hitting_set([[i for i in range(10) if mask >> i & 1] for mask in masks])
    assert set(forced) <= set(got) and len(got) == forced_count + (cycle_length + 1) // 2


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
    assignments = enumerate_assignments(doctored)
    supports = {tuple(doctored.rays[i].label for i in a.support) for a in assignments}
    assert ("a", "e") in supports and ("d", "e") in supports
    search = find_contextual_pure_states(doctored, assignments)
    report = analyze_mixed_states(doctored, assignments, search)
    assert not report.no_mixed_states
    assert any(t.nullity >= 2 for t in report.triples)
    assert any(f.nullity >= 2 for f in search.undetermined)


@pytest.mark.parametrize(
    "key, low, high", [("yu-oh", 108, 108), ((3, 2), 10**499, 10**500), ((4, 1), 10**45, 10**46), ((5, 1), 0, 0)]
)
def test_the_capped_selection_count_lists_as_the_full_product(monkeypatch, yu_oh, key, low, high):
    # the sum of the products of the pick-list lengths lies in [low, high]: yu-oh has 108 selections, which flip at
    # bounds 107 and 108; the products of the 32-ray box-d3-m2 and box-d4-m1 prefixes run to 500 and 46 digits; the
    # 32-ray box-d5-m1 prefix has one core event, the empty one, so {k} is an event and every product is 0
    scenario = yu_oh if key == "yu-oh" else box_scenario(*key, range(32))
    assignments = enumerate_assignments(scenario)
    search = find_contextual_pure_states(scenario, assignments)
    total = sum(
        math.prod(len(_rays(mask & ~(1 << k))) for mask in held)
        for k in _rays(scenario.free)
        if (held := sorted(assignments.held(k), key=_rays))
    )
    assert low <= total <= high
    full = analyze_mixed_states(scenario, assignments, search).triples if total <= 10_000 else None
    for bound in (0, 1, 107, 108, 10_000):
        monkeypatch.setattr(ctxkit.contextuality, "TRIPLE_LISTING_BOUND", bound)
        report = analyze_mixed_states(scenario, assignments, search)
        assert report.triples_listed == (total <= bound)
        assert report.triples == (full if total <= bound else ())


@pytest.mark.parametrize("key, listed", [((4, 2, 48), True), ((3, 3, 64), False)])
def test_the_mixed_analysis_sizes_the_listing_without_building_the_events(key, listed):
    # the 48-ray box-d4-m2 prefix has no basis, so its one core event is the empty one: each free ray k makes the
    # event {k}, whose pick list is empty, and no candidate lists a selection.  The 64-ray box-d3-m3 prefix has more
    # selections than the bound.  Building every event that holds each candidate took minutes and 1.6 GB on the
    # first and 4 s and 0.8 GB on the second; the sizes are read from the walk, and nothing it yields is kept
    scenario = box_scenario(*key[:2], range(key[2]))
    assignments = enumerate_assignments(scenario)
    search = find_contextual_pure_states(scenario, assignments)
    assert (assignments.core == (0,)) == listed
    tracemalloc.start()
    try:
        report = analyze_mixed_states(scenario, assignments, search)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.triples == () and report.triples_listed == listed
    assert report.no_mixed_states == (not search.undetermined)
    assert peak < 10 * 2**20


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
        assert possibilistic_model(scenario, rho).zeros == sum(1 << i for i in family.selection)
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
# d = 5, where the null test meets the normals of rank-2 and rank-3 flats
@example((5, 1, [7, 9, 10, 16, 23, 25, 26, 30, 32, 39, 69, 77, 80, 83]))
def test_flat_scan_matches_brute_force_on_box_subsets(subset):
    check_flat_scan(box_scenario(*subset))


def test_flat_scan_matches_brute_force_on_gaussian_yu_oh(yu_oh):
    scenario = load_scenario(gaussian_image_text(yu_oh))
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

    def narrow(normals, row):
        # span(N) and row^perp meet in the nullspace of a basis of N^perp and the row
        *spanning, row_vector = (ExactVector(tuple(ExactScalar(a, b) for a, b in z)) for z in [*normals, row])
        complement = oracles.nullspace(spanning, len(row))
        return [list(v.integer_form) for v in oracles.nullspace(complement + [row_vector], len(row))]

    substitutes = {
        "rank": oracles.rank,
        "nullspace": oracles.nullspace,
        "_narrow": narrow,
        "_edges": lambda rays, dim: frozenset(
            (i, j)
            for i in range(len(rays))
            for j in range(i + 1, len(rays))
            if oracles.inner_product(rays[i].vector, rays[j].vector).is_zero
        ),
    }
    patched = set()
    for module in (ctxkit.scenario, ctxkit.contextuality, ctxkit.hardy):
        for name, oracle in substitutes.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, oracle)
                patched.add(name)
    assert patched == set(substitutes), f"no module binds {set(substitutes) - patched}"
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


def test_the_bare_constructor_validates_its_density():
    # Hermitian with trace 1 but not PSD: its model would mark (1, 1, 0) possible at probability 0
    bad = ExactMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    messages = []
    for build in (lambda: QuantumState(3, bad, None), lambda: QuantumState.density(bad)):
        with pytest.raises(InvalidDensityError) as caught:
            build()
        messages.append(str(caught.value))
    assert messages == ["principal minor [0, 1] is negative: matrix is not PSD"] * 2
    # a valid density gets the same Born rows from either constructor
    assert QuantumState(3, MAXIMALLY_MIXED)._rows == QuantumState.density(MAXIMALLY_MIXED)._rows


def test_the_bare_constructor_refuses_a_density_of_another_dimension():
    # the Born pass would pair rho's 3 coordinates with a 4-dimensional scenario's 4
    with pytest.raises(DimensionMismatchError):
        QuantumState(4, MAXIMALLY_MIXED)


def test_the_bare_constructor_refuses_a_pure_state_of_another_dimension():
    with pytest.raises(DimensionMismatchError):
        QuantumState(4, None, vec(1, 0, 0))


def test_the_bare_constructor_needs_psi_or_rho():
    with pytest.raises(ValidationError) as caught:
        QuantumState(3, None)
    assert type(caught.value) is ValidationError


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
