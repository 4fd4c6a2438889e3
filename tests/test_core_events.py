"""The state checks on the core events, held to the same checks on every KS-assignment.

``enumerate_assignments`` returns the core events, the basis rays' labellings;
the verdict, the oracle, the derivation, the hitting sets and the replay
read them, and only ``listing`` and ``holding`` expand them into events.
``oracles.full_events`` hands the package every event's mask as its own
core event, so that every check runs on columns over all the events: the
path the core events replaced.  The scenarios are box prefixes with rays
in no basis.  Each ``GlobalEvents`` keeps the analysis of every zero mask
checked on it; the tests hold the kept answers to fresh event lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ctxkit import (
    HardyParadox,
    PossibilisticModel,
    QuantumState,
    derive_paradoxes,
    enumerate_assignments,
    find_contextual_pure_states,
    is_logically_contextual,
    noncontextuality_oracle,
    possibilistic_model,
    replay_contradiction,
    vec,
)
from ctxkit.assignments import GlobalEvents
from ctxkit.contextuality import _blocking_flats
from ctxkit.scenario import _rays
from test_assignments import box_scenario
from test_contextuality import hyperplane_normals, states_with_zeros
from test_hardy import mutated

# box-d3-m2 and box-d4-m1 prefixes of 13 to 40 rays; the 20-ray box-d5-m1 prefix, which has no basis, so its one
# core event is empty; and the 43-ray box-d3-m2 prefix, which is uncolourable: no core event
PREFIXES = [(3, 2, n) for n in range(13, 41)] + [(4, 1, n) for n in range(13, 41)] + [(5, 1, 20), (3, 2, 43)]


@cache
def prefix(d, m, n):
    """The scenario of the first ``n`` box rays, its events and the same events as :func:`oracles.full_events`."""
    s = box_scenario(d, m, range(n))
    events = enumerate_assignments(s)
    return s, events, oracles.full_events(events)


def fresh(events):
    """The same core events with no analysis kept."""
    return GlobalEvents(events.n, events.core, events.free, events.neighbours)


def at_zeros(scenario, zeros):
    """A pure state whose kept model has the zero mask ``zeros``: (1, 10, 100, ...), orthogonal to no ray of the
    prefix, so that every witness has a positive SP, with its model's zeros replaced.  The verdict, the oracle and
    the derivation read only the zeros and, for the SPs, the slots of the state's Born pass."""
    state = QuantumState.pure(vec(*[10**i for i in range(scenario.dim)]))
    assert possibilistic_model(scenario, state).zeros == 0
    rays, _, packing, products = state._model
    QuantumState._model.__set__(state, (rays, PossibilisticModel._of_zeros(zeros, len(rays)), packing, products))
    return state


def test_the_generated_prefixes_have_free_rays_and_the_edge_cases():
    assert all(prefix(*key)[0].free for key in [(3, 2, 13), (3, 2, 40), (4, 1, 13), (4, 1, 34), (5, 1, 20)])
    assert prefix(5, 1, 20)[1].core == (0,) and len(prefix(5, 1, 20)[1]) == 2370
    assert prefix(3, 2, 43)[1].core == () and prefix(3, 2, 43)[0].free
    # the 32-ray prefixes of the check stream: 1024 and 216 events over 8 and 18 core events
    counts = [(len(prefix(*key)[1]), len(prefix(*key)[1].core)) for key in [(3, 2, 32), (4, 1, 32)]]
    assert counts == [(1024, 8), (216, 18)]


@pytest.mark.parametrize("key", PREFIXES[::3] + PREFIXES[-2:])
def test_each_event_is_a_core_event_and_free_rays_none_of_its_neighbours(key):
    s, events, full = prefix(*key)
    core = set(events.core)
    assert len(core) == len(events.core)
    for event in events:
        ones = event.mask & ~s.free
        assert ones in core
        for f in _rays(event.mask & s.free):
            assert not s.neighbours[f] & event.mask
    # every core event with no free ray is an event, and a ray is in some event iff its column over the core isn't 0
    assert core <= {event.mask for event in events}
    assert [bool(column) for column in events.compatible] == [bool(column) for column in full.compatible]


@pytest.mark.parametrize("key", PREFIXES[1::3] + PREFIXES[-2:])
def test_compatible_bits_are_the_core_events_of_the_events_holding_each_ray(key):
    # bit j of compatible[i] iff some event whose core (mask less the free rays) is core[j] holds ray i, and
    # clear_of(f) packs a free ray f's column as bit n of slot j of rows; with no events every column is 0
    s, events, _ = prefix(*key)
    n, slot = len(s.rays), 8 * (len(s.rays) // 8 + 1)
    slots = {c: j for j, c in enumerate(events.core)}
    want = [0] * n
    for event in events:
        for i in _rays(event.mask):
            want[i] |= 1 << slots[event.mask & ~s.free]
    assert list(events.compatible) == want
    for f in _rays(s.free):
        packed = events.clear_of(f)
        assert [packed >> j * slot + n & 1 for j in range(len(events.core))] == [want[f] >> j & 1 for j in slots.values()]
        assert packed & ~sum(1 << j * slot + n for j in range(len(events.core))) == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PREFIXES), st.data())
def test_the_core_path_matches_the_full_event_path(key, data):
    s, events, full = prefix(*key)
    state = data.draw(states_with_zeros(s))
    verdict = is_logically_contextual(s, state, events)
    assert verdict == is_logically_contextual(s, state, full)
    assert noncontextuality_oracle(s, state, events) == noncontextuality_oracle(s, state, full)
    derivation = derive_paradoxes(s, state, events)
    assert derivation == derive_paradoxes(s, state, full)
    assert bool(derivation.paradoxes) == verdict.contextual
    # the derived paradoxes and their mutants, then claims whose zero sets hold free rays or the witness itself
    n, zeros = len(s.rays), _rays(possibilistic_model(s, state).zeros)
    batch = mutated(derivation.paradoxes, n)
    for _ in range(data.draw(st.integers(0, 6))):
        zero_set = data.draw(st.sets(st.sampled_from(zeros), max_size=4)) if zeros else set()
        witness = data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            zero_set.add(witness)
        batch.append(HardyParadox(state, witness, tuple(sorted(zero_set)), Fraction(1, 9)))
    assert replay_contradiction(events, batch) == replay_contradiction(full, batch)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PREFIXES), st.data())
def test_kept_analyses_answer_as_fresh_event_lists_and_the_full_events(key, data):
    # a few zero masks, each also with one free ray toggled, sent in a random order with repeats through one event
    # list: its kept answers equal those of a fresh event list and of the full events, each built for the one call
    s, core, full = prefix(*key)
    events, n = fresh(core), len(s.rays)
    masks = data.draw(st.lists(st.sets(st.integers(0, n - 1), max_size=6), min_size=1, max_size=4))
    masks = [sum(1 << i for i in rays) for rays in masks]
    if s.free:
        masks += [m ^ 1 << data.draw(st.sampled_from(_rays(s.free))) for m in masks]
    sent = data.draw(st.lists(st.sampled_from(masks), min_size=1, max_size=12))
    for zeros in sent:
        state = at_zeros(s, zeros)
        answers = [
            (is_logically_contextual(s, state, e), noncontextuality_oracle(s, state, e), derive_paradoxes(s, state, e))
            for e in (events, fresh(core), fresh(full))
        ]
        assert answers[0] == answers[1] == answers[2]
    assert sorted(events.analyses) == sorted(set(sent))


@pytest.mark.parametrize("key", [(3, 2, 22), (3, 2, 32), (3, 2, 40), (4, 1, 28), (4, 1, 34), (5, 1, 20), (3, 2, 43)])
def test_the_search_keeps_one_analysis_per_found_state_and_the_flat_scan_none(key):
    s, core, _ = prefix(*key)
    events = fresh(core)
    for _ in _blocking_flats(s, events):
        pass
    assert events.analyses == {}
    search = find_contextual_pure_states(s, events)
    kept = len(events.analyses)
    assert kept <= len(search.states)
    for found in search.states:
        # a found state's witness and selection are its first paradox's, derived on its own; deriving its paradoxes
        # on the searched events reads the kept analysis
        state = QuantumState.pure(found.state)
        first = derive_paradoxes(s, state, fresh(core)).paradoxes[0]
        assert (found.witness, found.selection) == (first.witness, first.zero_set)
        assert derive_paradoxes(s, state, events) == derive_paradoxes(s, state, fresh(core))
    assert len(events.analyses) == kept


def test_the_core_replay_draws_both_results_for_basis_and_free_witnesses():
    # box-d3-m2-n40 has free rays that no event holds as well as free rays that some event holds; the derived
    # paradoxes of every seventh hyperplane normal, their mutants and copies with the witness put in its own zero set
    s, events, full = prefix(3, 2, 40)
    n = len(s.rays)
    states = [QuantumState.pure(psi) for psi in hyperplane_normals(s)[::7]]
    batch = mutated([p for state in states for p in derive_paradoxes(s, state, events).paradoxes], n)
    batch += [HardyParadox(p.state, w, tuple(sorted({*p.zero_set, w})), p.sp) for p in batch if (w := p.witness) < n]
    replays = replay_contradiction(events, batch)
    assert replays == replay_contradiction(full, batch)
    # (free witness, witness in its zero set, result) over the claims with a positive SP and a ray of the scenario
    drawn = {
        (s.free >> p.witness & 1 == 1, p.witness in p.zero_set, r)
        for p, r in zip(batch, replays)
        if p.witness < n and p.sp
    }
    assert drawn == {(free, inside, r) for free in (False, True) for inside in (False, True) for r in (False, True)}


@pytest.mark.parametrize("key", [(3, 2, 22), (3, 2, 32), (3, 2, 40), (4, 1, 28), (4, 1, 34), (5, 1, 20), (3, 2, 43)])
def test_the_pure_state_search_on_the_core_events_matches_the_full_event_search(key):
    s, events, full = prefix(*key)
    assert find_contextual_pure_states(s, events) == find_contextual_pure_states(s, full)


@pytest.mark.parametrize("key", PREFIXES[::3] + PREFIXES[-2:])
def test_the_listing_is_the_basis_product_enumeration_and_holding_its_filter(key):
    s, events, _ = prefix(*key)
    assert events.listing == oracles.enumerate_assignments_by_basis_choices(s)
    for i in range(len(s.rays)):
        assert events.holding(i) == [a for a in events.listing if a.mask >> i & 1]


@pytest.mark.parametrize("key", PREFIXES[::3] + PREFIXES[-2:])
def test_the_checks_leave_the_events_unlisted(key):
    # a fresh enumeration per prefix, so that no earlier test has listed its events
    s = box_scenario(*key[:2], range(key[2]))
    events = enumerate_assignments(s)
    for psi in [ray.vector for ray in s.rays[::5]]:
        state = QuantumState.pure(psi)
        verdict = is_logically_contextual(s, state, events)
        noncontextuality_oracle(s, state, events)
        derivation = derive_paradoxes(s, state, events)
        assert bool(derivation.paradoxes) == verdict.contextual
        replay_contradiction(events, mutated(derivation.paradoxes, len(s.rays)))
    find_contextual_pure_states(s, events)
    assert "listing" not in vars(events)
