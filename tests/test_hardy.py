"""Hardy-type paradoxes, witness observables and the reference cross-check."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxkit.hardy
import oracles
from ctxkit import (
    ExactMatrix,
    GlobalEvents,
    HardyParadox,
    LinearDependenceError,
    QuantumState,
    ValidationError,
    WitnessObservable,
    build_witness_observable,
    crosscheck_reference_observables,
    derive_paradoxes,
    enumerate_assignments,
    load_scenario,
    mixture,
    rank1_projector,
    replay_contradiction,
    vec,
    verify_observable,
)
from ctxkit.contextuality import witness_blockers
from ctxkit.exact import orthogonal
from ctxkit.hardy import REFERENCE_OBSERVABLES, ReferenceRow, percent

# (state, witness, zero set) for the twelve paradoxes of the bundled scenario
EXPECTED_PARADOXES = {
    (1, 1, 1): [("vA", ("v5", "v6")), ("vB", ("v4", "v6")), ("vC", ("v4", "v5"))],
    (-1, 1, 1): [("vB", ("v4", "v8")), ("vC", ("v4", "v9")), ("vD", ("v8", "v9"))],
    (1, -1, 1): [("vA", ("v5", "v7")), ("vC", ("v5", "v9")), ("vD", ("v7", "v9"))],
    (1, 1, -1): [("vA", ("v6", "v7")), ("vB", ("v6", "v8")), ("vD", ("v7", "v8"))],
}


def paradoxes_for(yu_oh, assignments, coords):
    state = QuantumState.pure(vec(*coords))
    return derive_paradoxes(yu_oh, state, assignments)


def as_labels(yu_oh, paradox):
    return (
        yu_oh.rays[paradox.witness].label,
        tuple(yu_oh.rays[z].label for z in paradox.zero_set),
    )


def all_twelve(yu_oh, assignments):
    out = []
    for coords in EXPECTED_PARADOXES:
        out += list(paradoxes_for(yu_oh, assignments, coords).paradoxes)
    return out


def test_each_state_yields_its_three_paradoxes(yu_oh, yu_oh_assignments):
    for coords, expected in EXPECTED_PARADOXES.items():
        derivation = paradoxes_for(yu_oh, yu_oh_assignments, coords)
        assert derivation.reason is None
        assert [as_labels(yu_oh, p) for p in derivation.paradoxes] == expected


def test_success_probability_is_one_ninth_everywhere(yu_oh, yu_oh_assignments):
    paradoxes = all_twelve(yu_oh, yu_oh_assignments)
    assert len(paradoxes) == 12
    for p in paradoxes:
        assert p.sp == Fraction(1, 9)
    witnesses = [yu_oh.rays[p.witness].label for p in paradoxes]
    assert {w: witnesses.count(w) for w in set(witnesses)} == {
        "vA": 3, "vB": 3, "vC": 3, "vD": 3,
    }


def test_percent_rendering():
    assert percent(Fraction(1, 9)) == "11.1%"
    assert percent(Fraction(1)) == "100%"
    assert percent(Fraction(1, 3)) == "33.3%"


def test_noncontextual_state_gives_reason(yu_oh, yu_oh_assignments):
    derivation = paradoxes_for(yu_oh, yu_oh_assignments, (1, 0, 0))
    assert derivation.paradoxes == ()
    assert "not logically contextual" in derivation.reason


def box_d3_m2_prefix():
    """The first 32 rays of the integer box {-2..2}^3 (primitive, leading entry positive)."""
    rays = [
        v
        for v in product(range(-2, 3), repeat=3)
        if any(v) and gcd(*v) == 1 and next(x for x in v if x) > 0
    ][:32]
    lines = [f"r{i}: {','.join(map(str, v))}" for i, v in enumerate(rays, start=1)]
    return load_scenario("\n".join(["scenario box-d3-m2-n32 dim 3 field rational", *lines]))


def test_paradoxes_exist_iff_state_is_contextual(yu_oh, yu_oh_assignments):
    # a paradox is exactly the witnessed contradiction, so the derivation is
    # non-empty precisely for logically contextual states
    from ctxkit import is_logically_contextual
    from test_contextuality import random_rational_states

    # on the box prefix 8 rays lie in no global event, so the verdict and the
    # derivation must both skip possible rays whose event set is empty
    box = box_d3_m2_prefix()
    box_assignments = enumerate_assignments(box)
    assert len(box_assignments) == 1024
    assert sum(1 for i in range(len(box.rays)) if not oracles.events_containing(box, box_assignments, i)) == 8

    yu_oh_states = [QuantumState.pure(vec(*c)) for c in EXPECTED_PARADOXES]
    yu_oh_states += [QuantumState.pure(r.vector) for r in yu_oh.rays]
    yu_oh_states += random_rational_states(40, seed=99173)
    box_states = [QuantumState.pure(r.vector) for r in box.rays]
    box_states += random_rational_states(12, seed=99173)
    contextual_on_box = 0
    for scenario, assignments, states in (
        (yu_oh, yu_oh_assignments, yu_oh_states),
        (box, box_assignments, box_states),
    ):
        for state in states:
            verdict = is_logically_contextual(scenario, state, assignments)
            derivation = derive_paradoxes(scenario, state, assignments)
            assert bool(derivation.paradoxes) == verdict.contextual
            assert (derivation.reason is None) == verdict.contextual
            if scenario is box and verdict.contextual:
                contextual_on_box += 1
                first = derivation.paradoxes[0]
                assert first.witness == verdict.witness
                for event, blocker in witness_blockers(assignments, verdict):
                    hits = [
                        i
                        for i in event.support
                        if i != first.witness and verdict.model.values[i] == 0
                    ]
                    assert blocker in hits
    assert contextual_on_box > 0


def test_replay_contradiction(yu_oh, yu_oh_assignments):
    assert replay_contradiction(yu_oh_assignments, all_twelve(yu_oh, yu_oh_assignments)) == [True] * 12
    # dropping one zero ray leaves an unblocked event, so the replay fails
    genuine = paradoxes_for(yu_oh, yu_oh_assignments, (1, 1, 1)).paradoxes[0]
    broken = HardyParadox(
        state=genuine.state,
        witness=genuine.witness,
        zero_set=genuine.zero_set[:1],
        sp=genuine.sp,
    )
    assert replay_contradiction(yu_oh_assignments, [genuine, broken]) == [True, False]


def test_minimum_hitting_set_prefers_small_then_lexicographic():
    # one event per mask, bit i standing for zero ray i
    assert oracles.hitting_set_of_masks([0b1100, 0b11000]) == (3,)
    assert oracles.hitting_set_of_masks([0b110, 0b1000]) == (1, 3)
    assert oracles.hitting_set_of_masks([1 << 5, 1 << 7]) == (5, 7)


def test_replay_is_independent_of_the_event_index(yu_oh, yu_oh_assignments):
    # vA's events are {v1,v5,v6,vA}, {v2,v6,v7,vA} and {v3,v5,v7,vA}; with the second
    # cleared from vA's column the columns give the zero set (v5,), which misses that
    # event, and the replay over the events themselves must reject it
    # (every event as its own core event, so bit j of a column is event j)
    events = oracles.full_events(yu_oh_assignments)
    columns = list(events.compatible)
    dropped = next(j for j, a in enumerate(events) if oracles.support_labels(yu_oh, a) == ("v2", "v6", "v7", "vA"))
    columns[yu_oh.ray_index("vA")] &= ~(1 << dropped)
    vars(events)["compatible"] = tuple(columns)
    with pytest.raises(AssertionError, match="^derived paradox failed the contradiction replay$"):
        paradoxes_for(yu_oh, events, (1, 1, 1))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_event_list_replays_alike_across_batches_and_event_lists(data):
    # one event list replayed in two batches with different zero sets, then a second list of another ray count
    for n in data.draw(st.lists(st.integers(2, 20), min_size=2, max_size=2, unique=True)):
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
        zero_sets = st.sets(st.integers(0, n - 1), min_size=1, max_size=3).map(sorted).map(tuple)
        first, second = data.draw(st.lists(zero_sets, min_size=2, max_size=2, unique=True))
        # block every event that holds ray 0 with the first zero set, so that accepted replays are drawn too
        masks = [m | 1 << first[0] if m & 1 else m for m in masks]
        events = GlobalEvents(n, masks, 0, ())
        for zero_set in (first, second):
            batch = [HardyParadox(None, witness, zero_set, Fraction(1, 9)) for witness in range(n)]
            assert replay_contradiction(events, batch) == [oracles.replay_contradiction(events, p) for p in batch]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("n", range(1, 41))
def test_packed_replay_agrees_with_the_set_replay(n, data):
    # a slot of n + 1 bits rounded up to bytes; n = 7, 8, 15, 16, 31, 32 and 33 put n + 1 on either side of a byte
    masks = data.draw(st.lists(st.just(0) | st.integers(0, (1 << n) - 1), max_size=12))
    witness = data.draw(st.integers(0, n - 1))
    zero_set = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=4)))
    if zero_set and data.draw(st.booleans()):
        # block every event that holds the witness, so that accepted replays are drawn too
        masks = [m | 1 << data.draw(st.sampled_from(zero_set)) if m >> witness & 1 else m for m in masks]
    sp = data.draw(st.sampled_from([Fraction(0), Fraction(1, 9), Fraction(1)]))
    events = GlobalEvents(n, masks, 0, ())
    paradox = HardyParadox(None, witness, tuple(zero_set), sp)
    assert replay_contradiction(events, [paradox]) == [oracles.replay_contradiction(events, paradox)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("n", [3, 8, 13, 33])
def test_one_replay_pass_agrees_with_the_set_replay_on_shared_zero_sets(n, data):
    # a batch drawn from at most three zero sets and their copies less one ray, so that
    # most paradoxes share their zero set with another and the rest differ from one by a ray
    pool = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=3))
    pool = [tuple(sorted(z)) for z in pool] + [tuple(sorted(z))[1:] for z in pool]
    claims = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(pool), st.booleans()), min_size=1, max_size=10)
    )
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    for witness, zero_set, block in claims:
        if block and zero_set:
            # block every event that holds the witness, so that accepted replays are drawn too
            masks = [m | 1 << data.draw(st.sampled_from(zero_set)) if m >> witness & 1 else m for m in masks]
    events = GlobalEvents(n, masks, 0, ())
    batch = [HardyParadox(None, witness, zero_set, Fraction(1, 9)) for witness, zero_set, _ in claims]
    assert replay_contradiction(events, batch) == [oracles.replay_contradiction(events, p) for p in batch]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("n", [3, 8, 33])
def test_a_zero_set_group_holds_a_passing_and_a_failing_paradox(n, data):
    # two witnesses share one zero set: every event holding the first meets it, and the event {second} misses it
    first, second, *rest = data.draw(st.permutations(range(n)))
    zero_set = tuple(sorted(data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=3))))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12)) + [1 << first, 1 << second]
    masks = [m | 1 << data.draw(st.sampled_from(zero_set)) if m >> first & 1 else m for m in masks]
    events = GlobalEvents(n, masks, 0, ())
    order = data.draw(st.permutations([first, second]))
    batch = mutated([HardyParadox(None, w, zero_set, Fraction(1, 9)) for w in order], n)
    replays = replay_contradiction(events, batch)
    assert replays == oracles.shift_replay(events, batch)
    assert replays[:2] == [w == first for w in order]


@pytest.mark.parametrize(
    "masks, witness, zero_set, sp, expected",
    [
        ([], 0, (1,), Fraction(1, 9), False),  # no events
        ([0b000, 0b011], 0, (1,), Fraction(1, 9), True),  # an all-zero event holds nothing
        ([0b001], 0, (), Fraction(1, 9), False),  # an empty zero set meets no event
        ([0b010, 0b110], 0, (1,), Fraction(1, 9), False),  # a witness in no event
        ([0b011, 0b101], 0, (1, 2), Fraction(0), False),  # an impossible witness
        ([0b011, 0b101], 0, (1, 2), Fraction(1, 9), True),
        ([0b011, 0b001], 0, (1, 2), Fraction(1, 9), False),
        # rays past the 3 of the scenario, which land in the next event's slot of 8 bits unless dropped
        ([0b010, 0b011], 8, (1,), Fraction(1, 9), False),
        ([0b010, 0b011], 0, (9,), Fraction(1, 9), False),
    ],
)
def test_packed_replay_on_the_edge_cases(masks, witness, zero_set, sp, expected):
    events = GlobalEvents(3, masks, 0, ())
    assert replay_contradiction(events, [HardyParadox(None, witness, zero_set, sp)]) == [expected]


def mutated(paradoxes, n):
    """Each paradox, then copies with a zero ray dropped, with sp 0, and moved to every witness below n + 2."""
    out = list(paradoxes)
    for p in paradoxes:
        for i in range(len(p.zero_set)):
            out.append(HardyParadox(p.state, p.witness, p.zero_set[:i] + p.zero_set[i + 1 :], p.sp))
        out.append(HardyParadox(p.state, p.witness, p.zero_set, Fraction(0)))
        out += [HardyParadox(p.state, k, p.zero_set, p.sp) for k in range(n + 2)]
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("n", [1, 7, 8, 13, 32, 33])
def test_folded_replay_matches_the_shift_replay(n, data):
    # up to 70 events in packed slots of 8 to 40 bits; the empty list is the scenario with no events.  The name
    # is kept from the OR-fold that this test held to the shift replay before the grouped test, and then the test
    # per paradox, replaced it
    masks = data.draw(st.lists(st.just(0) | st.integers(0, (1 << n) - 1), max_size=70))
    zero_sets = st.sets(st.integers(0, n + 1), max_size=4).map(sorted).map(tuple)
    pool = data.draw(st.lists(zero_sets, min_size=1, max_size=3))
    claims = data.draw(st.lists(st.tuples(st.integers(0, n + 1), st.sampled_from(pool)), min_size=1, max_size=6))
    for witness, zero_set in claims:
        if zero_set and witness < n and data.draw(st.booleans()):
            # block every event that holds the witness, so that accepted replays are drawn too
            masks = [m | 1 << data.draw(st.sampled_from(zero_set)) % n if m >> witness & 1 else m for m in masks]
    events = GlobalEvents(n, masks, 0, ())
    batch = mutated([HardyParadox(None, witness, zero_set, Fraction(1, 9)) for witness, zero_set in claims], n)
    replays = replay_contradiction(events, batch)
    assert replays == oracles.shift_replay(events, batch)
    # the set replay indexes the bits by witness, so it takes only the rays of the scenario
    assert [r for r, p in zip(replays, batch) if p.witness < n] == [
        oracles.replay_contradiction(events, p) for p in batch if p.witness < n
    ]


@pytest.mark.parametrize("d, m, prefix", [(3, 2, 32), (4, 1, 32), (4, 1, 40)])
def test_folded_replay_matches_the_shift_replay_on_box_scenarios(d, m, prefix):
    # box-d3-m2-n32 has eight rays in no event; the whole box-d4-m1 (40 rays) has no event at all
    from test_assignments import box_scenario
    from test_contextuality import hyperplane_normals

    s = box_scenario(d, m, range(prefix))
    events = enumerate_assignments(s)
    assert (len(events) == 0) == (prefix == 40)
    states = [QuantumState.pure(psi) for psi in hyperplane_normals(s)[::41]]
    paradoxes = [p for state in states for p in derive_paradoxes(s, state, events).paradoxes]
    if events:
        assert paradoxes
    else:
        # with no events there is nothing to derive, so the claims come from the 32-ray prefix
        prefix_scenario = box_scenario(d, m, range(32))
        paradoxes = derive_paradoxes(prefix_scenario, states[0], enumerate_assignments(prefix_scenario)).paradoxes
    batch = mutated(paradoxes, len(s.rays))
    assert replay_contradiction(events, batch) == oracles.shift_replay(events, batch)


@pytest.mark.parametrize("d, m", [(3, 2), (4, 1)])
def test_derived_paradoxes_match_the_oracle_on_box_prefixes(d, m):
    # the states of the check stream on the 32-ray prefixes: hyperplane normals, and 1/3, 2/3 mixtures of
    # two normals, some of them both orthogonal to one ray of the prefix
    from test_assignments import box_scenario
    from test_contextuality import hyperplane_normals

    s = box_scenario(d, m, range(32))
    events = enumerate_assignments(s)
    normals = hyperplane_normals(s)
    pairs = list(zip(normals[::19], normals[5::23]))
    for ray in s.rays[::3]:
        meeting = [n for n in normals if orthogonal(n, ray.vector)]
        pairs.append((meeting[0], meeting[-1]))
    pure = [QuantumState.pure(psi) for psi in normals[::17]]
    mixed = [
        QuantumState.density(mixture([(Fraction(1, 3), rank1_projector(a)), (Fraction(2, 3), rank1_projector(b))]))
        for a, b in pairs
    ]
    zero_sets = {}
    for state in pure + mixed:
        paradoxes = derive_paradoxes(s, state, events).paradoxes
        assert [(p.witness, p.zero_set, p.sp) for p in paradoxes] == oracles.derive_paradoxes(s, state, events)
        if state.rho is not None:
            # the oracle reads the SPs from the package; the Fraction expectation checks the density ones
            for p in paradoxes:
                assert p.sp == oracles.expectation(state.rho, s.rays[p.witness].vector)
        zero_sets.setdefault(state.rho is None, []).extend(p.zero_set for p in paradoxes)
    # both kinds of state yield paradoxes, and the pure states of d = 4 zero sets of up to three rays
    assert zero_sets[False] and max(map(len, zero_sets[True])) == (2 if d == 3 else 3)


def test_replay_packs_the_masks_on_first_use_and_leaves_the_index_unbuilt(yu_oh, yu_oh_assignments):
    events = enumerate_assignments(yu_oh)
    assert "rows" not in vars(events)
    fresh = oracles.full_events(events)
    paradox = paradoxes_for(yu_oh, yu_oh_assignments, (1, 1, 1)).paradoxes[0]
    assert replay_contradiction(fresh, [paradox]) == [True]
    assert "rows" in vars(fresh) and "listing" not in vars(fresh) and "compatible" not in vars(fresh)


# --- witness observables -----------------------------------------------------


def proj(*coords):
    return rank1_projector(vec(*coords))


def test_observable_for_first_paradox(yu_oh, yu_oh_assignments):
    paradox = paradoxes_for(yu_oh, yu_oh_assignments, (1, 1, 1)).paradoxes[0]
    observable = build_witness_observable(yu_oh, paradox)
    p1, p2, p3 = observable.projectors
    assert p1 == proj(1, 0, -1)
    assert p2 == proj(1, -2, 1)
    assert p3 == proj(1, 1, 1)
    assert observable.eigenvalues == (1, 2, 3)
    assert tuple(yu_oh.rays[i].label for i in observable.source_order) == ("v5", "v6", "vA")


def test_observable_for_fourth_paradox(yu_oh, yu_oh_assignments):
    # state (-1,1,1), witness vB, zeros {v4, v8}
    paradox = paradoxes_for(yu_oh, yu_oh_assignments, (-1, 1, 1)).paradoxes[0]
    observable = build_witness_observable(yu_oh, paradox)
    p1, p2, p3 = observable.projectors
    assert p1 == proj(0, 1, -1)
    assert p2 == proj(2, 1, 1)
    assert p3 == proj(1, -1, -1)


def test_observable_on_already_orthogonal_triple():
    s = load_scenario("scenario axes dim 3 field rational\na: 1,0,0\nb: 0,1,0\nc: 0,0,1")
    paradox = HardyParadox(
        state=QuantumState.pure(vec(0, 0, 1)),
        witness=2,
        zero_set=(0, 1),
        sp=Fraction(1),
    )
    observable = build_witness_observable(s, paradox)
    assert observable.projectors == (proj(1, 0, 0), proj(0, 1, 0), proj(0, 0, 1))


def test_third_projector_is_the_state_projector(yu_oh, yu_oh_assignments):
    for paradox in all_twelve(yu_oh, yu_oh_assignments):
        observable = build_witness_observable(yu_oh, paradox)
        assert observable.projectors[2] == rank1_projector(paradox.state.psi)


def test_verify_observable_accepts_all_twelve(yu_oh, yu_oh_assignments):
    for paradox in all_twelve(yu_oh, yu_oh_assignments):
        observable = build_witness_observable(yu_oh, paradox)
        verification = verify_observable(paradox, observable)
        assert verification.ok, verification.failures


def test_verify_observable_ignores_eigenvalue_relabeling(yu_oh, yu_oh_assignments):
    paradox = paradoxes_for(yu_oh, yu_oh_assignments, (1, 1, 1)).paradoxes[0]
    observable = build_witness_observable(yu_oh, paradox, eigenvalues=(7, 5, 3))
    assert observable.eigenvalues == (7, 5, 3)
    assert verify_observable(paradox, observable).ok


def test_verify_observable_names_failures(yu_oh, yu_oh_assignments):
    paradox = paradoxes_for(yu_oh, yu_oh_assignments, (1, 1, 1)).paradoxes[0]
    good = build_witness_observable(yu_oh, paradox)
    tampered = WitnessObservable(
        projectors=(good.projectors[0], proj(1, 2, 1), good.projectors[2]),
        eigenvalues=good.eigenvalues,
        source_order=good.source_order,
    )
    verification = verify_observable(paradox, tampered)
    assert not verification.ok
    assert verification.failures == ("P2*P3 = 0", "P1+P2+P3 = I", "tr(rho*P2) = 0")


small_int_vectors = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any).map(lambda cs: vec(*cs))


@settings(max_examples=100, deadline=None)
@given(small_int_vectors, st.lists(small_int_vectors, min_size=3, max_size=3), st.integers(0, 5))
def test_state_projector_failure_is_the_matrix_comparison(psi, vectors, pick):
    # Hermitian third projectors: the state's, other rank-1 ones, twice one, a sum and a mixture of two
    state = QuantumState.pure(psi)
    own, (u, v, w) = rank1_projector(psi), (rank1_projector(x) for x in vectors)
    p3 = [own, u, v, u.scale(2), u + own, mixture([(Fraction(1, 2), u), (Fraction(1, 2), w)])][pick]
    observable = WitnessObservable((v, w, p3), (1, 2, 3), (0, 1, 2))
    failures = verify_observable(HardyParadox(state, 2, (0, 1), Fraction(1)), observable).failures
    assert ("P3 = state projector" in failures) == (p3 != own)


def test_observable_requires_two_zero_rays(yu_oh, yu_oh_assignments):
    genuine = paradoxes_for(yu_oh, yu_oh_assignments, (1, 1, 1)).paradoxes[0]
    squeezed = HardyParadox(
        state=genuine.state, witness=genuine.witness, zero_set=genuine.zero_set[:1], sp=genuine.sp
    )
    with pytest.raises(ValidationError):
        build_witness_observable(yu_oh, squeezed)


def test_observable_requires_independent_rays(yu_oh):
    # v4, v7 and v2 all lie in the plane with first coordinate zero
    paradox = HardyParadox(
        state=QuantumState.pure(vec(0, 1, 0)),
        witness=1,
        zero_set=(yu_oh.ray_index("v4"), yu_oh.ray_index("v7")),
        sp=Fraction(1),
    )
    with pytest.raises(LinearDependenceError):
        build_witness_observable(yu_oh, paradox)


def test_observable_requires_distinct_eigenvalues(yu_oh, yu_oh_assignments):
    paradox = paradoxes_for(yu_oh, yu_oh_assignments, (1, 1, 1)).paradoxes[0]
    with pytest.raises(ValidationError):
        build_witness_observable(yu_oh, paradox, eigenvalues=(1, 1, 2))


# --- reference cross-check -----------------------------------------------------


def test_reference_rows_cover_all_paradoxes(yu_oh, yu_oh_assignments):
    derived = {
        (p.state.psi, *as_labels(yu_oh, p)) for p in all_twelve(yu_oh, yu_oh_assignments)
    }
    from ctxkit import canonical_ray

    listed = {
        (canonical_ray(vec(*row.state)), row.witness, tuple(sorted(row.zeros)))
        for row in REFERENCE_OBSERVABLES
    }
    fixed = {(s, w, tuple(sorted(z))) for s, w, z in derived}
    assert fixed == listed


def test_crosscheck_errata_and_matches(yu_oh, yu_oh_assignments):
    check = crosscheck_reference_observables(yu_oh, yu_oh_assignments)
    assert check.errata == (4, 5, 6, 7)
    by_row = {r.reference.row: r for r in check.rows}
    assert all(by_row[i].matches[0] for i in range(1, 13)), "first projector agrees everywhere"
    assert {i for i in range(1, 13) if not by_row[i].matches[1]} == {7}
    assert {i for i in range(1, 13) if not by_row[i].matches[2]} == {4, 5, 6, 7}
    for row in check.rows:
        if row.consistent:
            assert row.matches == (True, True, True)
            assert row.failures == ()
        else:
            assert row.failures
    # the printed errata fail these conditions, named in the order the check tests them
    assert {i: by_row[i].failures for i in check.errata} == {
        4: ("P2*P3 = 0", "P1+P2+P3 = I", "tr(rho*P3) = 1"),
        5: ("P2*P3 = 0", "P1+P2+P3 = I", "tr(rho*P3) = 1"),
        6: ("P3 idempotent", "tr(P3) = 1", "P1*P3 = 0", "P2*P3 = 0", "P1+P2+P3 = I", "tr(rho*P3) = 1"),
        7: ("tr(rho*P2) = 0", "tr(rho*P3) = 1"),
    }


def test_crosscheck_row_seven_fails_state_conditions(yu_oh, yu_oh_assignments):
    # the printed row 7 matrices sum to the identity but belong to a
    # different state: the probability conditions expose the mix-up
    check = crosscheck_reference_observables(yu_oh, yu_oh_assignments)
    row7 = next(r for r in check.rows if r.reference.row == 7)
    printed_sum = row7.reference.printed[0] + row7.reference.printed[1] + row7.reference.printed[2]
    assert printed_sum == ExactMatrix.identity(3)
    assert "tr(rho*P2) = 0" in row7.failures
    assert "tr(rho*P3) = 1" in row7.failures


def test_crosscheck_rows_failing_completeness(yu_oh, yu_oh_assignments):
    check = crosscheck_reference_observables(yu_oh, yu_oh_assignments)
    sum_failures = {
        r.reference.row for r in check.rows if "P1+P2+P3 = I" in r.failures
    }
    assert sum_failures == {4, 5, 6}


def test_crosscheck_derived_rows_always_verify(yu_oh, yu_oh_assignments):
    check = crosscheck_reference_observables(yu_oh, yu_oh_assignments)
    for row in check.rows:
        derived = row.derived
        total = derived.projectors[0] + derived.projectors[1] + derived.projectors[2]
        assert total == ExactMatrix.identity(3)


def test_each_reference_row_is_the_only_replaying_pair_of_its_witness(yu_oh, yu_oh_assignments):
    # the crosscheck accepts a printed pair when it replays; on yu-oh no other
    # set of at most two impossible rays replays for the row's witness, so the
    # printed pair is also the one derive_paradoxes picks
    for ref in REFERENCE_OBSERVABLES:
        state = QuantumState.pure(vec(*ref.state))
        witness = yu_oh.ray_index(ref.witness)
        sp = state.probability(yu_oh.rays[witness].vector)
        impossible = [i for i, r in enumerate(yu_oh.rays) if state.probability(r.vector) == 0]
        replaying = [
            zeros
            for size in (0, 1, 2)
            for zeros in combinations(impossible, size)
            if replay_contradiction(yu_oh_assignments, [HardyParadox(state, witness, zeros, sp)]) == [True]
        ]
        assert replaying == [tuple(sorted(yu_oh.ray_index(z) for z in ref.zeros))], ref.row


def test_crosscheck_rejects_a_row_whose_zeros_miss_a_witness_event(monkeypatch, yu_oh, yu_oh_assignments):
    # v4 and v5 are impossible under (1,1,1), but some global event containing vA meets neither
    row1 = REFERENCE_OBSERVABLES[0]
    assert (row1.witness, row1.zeros) == ("vA", ("v5", "v6"))
    moved = ReferenceRow(1, row1.state, "vA", ("v4", "v5"), row1.printed)
    monkeypatch.setattr(ctxkit.hardy, "REFERENCE_OBSERVABLES", (moved,) + REFERENCE_OBSERVABLES[1:])
    with pytest.raises(ValidationError, match="reference row 1 has no matching paradox"):
        crosscheck_reference_observables(yu_oh, yu_oh_assignments)


def test_crosscheck_rejects_foreign_rays_before_deriving(monkeypatch, yu_oh):
    # yu-oh's labels on rays whose last coordinate changed sign: row 1's zero
    # ray v5 = (1,0,1) is no longer orthogonal to its state (1,1,1)
    from test_cli import count_calls

    lines = ["scenario yu-oh-flipped dim 3 field rational"]
    for ray in yu_oh.rays:
        x, y, z = ray.vector.coords
        lines.append(f"{ray.label}: {x},{y},{-z}")
    flipped = load_scenario("\n".join(lines))
    derivations = count_calls(monkeypatch, ctxkit.hardy.derive_paradoxes)
    with pytest.raises(ValidationError, match="reference row 1 has no matching paradox"):
        crosscheck_reference_observables(flipped, enumerate_assignments(flipped))
    assert derivations == []
