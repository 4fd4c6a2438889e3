"""KS-assignment enumeration and queries."""

from __future__ import annotations

import random
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkit import (
    GlobalEvents,
    KSAssignment,
    UnknownLabelError,
    ValidationError,
    enumerate_assignments,
    load_scenario,
)

from oracles import (
    enumerate_assignments_by_basis_choices,
    events_containing,
    full_events,
    support_labels,
    verify_assignment,
)

# the 24 supports of the bundled scenario, in enumeration order
EXPECTED_SUPPORTS = [
    ("v1", "v5", "v6"),
    ("v1", "v5", "v6", "vA"),
    ("v1", "v5", "v9"),
    ("v1", "v5", "v9", "vC"),
    ("v1", "v6", "v8"),
    ("v1", "v6", "v8", "vB"),
    ("v1", "v8", "v9"),
    ("v1", "v8", "v9", "vD"),
    ("v2", "v4", "v6"),
    ("v2", "v4", "v6", "vB"),
    ("v2", "v4", "v9"),
    ("v2", "v4", "v9", "vC"),
    ("v2", "v6", "v7"),
    ("v2", "v6", "v7", "vA"),
    ("v2", "v7", "v9"),
    ("v2", "v7", "v9", "vD"),
    ("v3", "v4", "v5"),
    ("v3", "v4", "v5", "vC"),
    ("v3", "v4", "v8"),
    ("v3", "v4", "v8", "vB"),
    ("v3", "v5", "v7"),
    ("v3", "v5", "v7", "vA"),
    ("v3", "v7", "v8"),
    ("v3", "v7", "v8", "vD"),
]

GLOBAL_EVENT_SETS = {
    "vA": [("v1", "v5", "v6", "vA"), ("v2", "v6", "v7", "vA"), ("v3", "v5", "v7", "vA")],
    "vB": [("v1", "v6", "v8", "vB"), ("v2", "v4", "v6", "vB"), ("v3", "v4", "v8", "vB")],
    "vC": [("v1", "v5", "v9", "vC"), ("v2", "v4", "v9", "vC"), ("v3", "v4", "v5", "vC")],
    "vD": [("v1", "v8", "v9", "vD"), ("v2", "v7", "v9", "vD"), ("v3", "v7", "v8", "vD")],
}


def test_yu_oh_assignment_supports(yu_oh, yu_oh_assignments):
    assert len(yu_oh_assignments) == 24
    assert [support_labels(yu_oh, a) for a in yu_oh_assignments] == EXPECTED_SUPPORTS


def test_support_sizes(yu_oh, yu_oh_assignments):
    assert {len(a.support) for a in yu_oh_assignments} == {3, 4}


def test_enumerators_agree_on_yu_oh(yu_oh, yu_oh_assignments):
    assert enumerate_assignments_by_basis_choices(yu_oh) == yu_oh_assignments.listing


def test_exhaustive_bitstring_sweep(yu_oh, yu_oh_assignments):
    # every bit string passing the oracle is enumerated, and vice versa
    accepted = [
        bits
        for bits in product((0, 1), repeat=len(yu_oh.rays))
        if verify_assignment(yu_oh, KSAssignment(bits))
    ]
    assert sorted(accepted) == sorted(a.bits for a in yu_oh_assignments)


def test_every_enumerated_assignment_verifies(yu_oh, yu_oh_assignments):
    assert all(verify_assignment(yu_oh, a) for a in yu_oh_assignments)


def test_exactly_one_per_basis(yu_oh, yu_oh_assignments):
    for a in yu_oh_assignments:
        for context in yu_oh.basis_contexts():
            assert sum(a.bits[i] for i in context.members) == 1


def test_supports_are_independent_sets(yu_oh, yu_oh_assignments):
    for a in yu_oh_assignments:
        sup = a.support
        for i in sup:
            for j in sup:
                if i < j:
                    assert not yu_oh.neighbours[i] >> j & 1


def test_verify_assignment_examples(yu_oh):
    labels = list(yu_oh.labels)

    def assignment_for(*names):
        return KSAssignment(tuple(1 if l in names else 0 for l in labels))

    assert verify_assignment(yu_oh, assignment_for("v1", "v8", "v9", "vD"))
    assert not verify_assignment(yu_oh, assignment_for())
    assert not verify_assignment(yu_oh, assignment_for("v1", "v4"))


def test_verify_assignment_requires_full_cover(yu_oh):
    with pytest.raises(ValidationError):
        verify_assignment(yu_oh, KSAssignment((1, 0)))
    with pytest.raises(ValidationError):
        KSAssignment((1, 2, 0))


def test_events_containing(yu_oh, yu_oh_assignments):
    for label, expected in GLOBAL_EVENT_SETS.items():
        events = yu_oh_assignments.holding(yu_oh.ray_index(label))
        assert [support_labels(yu_oh, a) for a in events] == expected
        assert events == events_containing(yu_oh, yu_oh_assignments, label)
    assert len(yu_oh_assignments.holding(yu_oh.ray_index("v1"))) == 8
    with pytest.raises(UnknownLabelError):
        events_containing(yu_oh, yu_oh_assignments, "vX")


def test_events_containing_preserves_order(yu_oh, yu_oh_assignments):
    events = yu_oh_assignments.holding(yu_oh.ray_index("v5"))
    positions = [yu_oh_assignments.listing.index(e) for e in events]
    assert positions == sorted(positions)


def test_single_basis_scenario():
    s = load_scenario("scenario basis dim 3 field rational\na: 1,0,0\nb: 0,1,0\nc: 0,0,1")
    assignments = enumerate_assignments(s)
    assert [support_labels(s, a) for a in assignments] == [("a",), ("b",), ("c",)]
    assert enumerate_assignments_by_basis_choices(s) == assignments.listing


def test_no_basis_scenario_allows_empty_support():
    # two non-orthogonal rays: no completeness constraint at all
    s = load_scenario("scenario free dim 3 field rational\na: 1,0,0\nb: 1,1,0")
    assignments = enumerate_assignments(s)
    assert [a.support for a in assignments] == [(), (0,), (0, 1), (1,)]
    assert enumerate_assignments_by_basis_choices(s) == assignments.listing


def test_enumerators_agree_on_collision_fixture():
    s = load_scenario("scenario coll dim 3 field rational\na: 1,0,0\nb: 0,1,0\nc: 1,1,0\nd: 1,-1,0")
    assert enumerate_assignments(s).listing == enumerate_assignments_by_basis_choices(s)


def test_orthogonal_rays_outside_every_basis():
    # r and s are orthogonal to each other but lie in no basis, so the
    # residual subgraph has an edge; at most one of them joins a support
    s = load_scenario(
        "scenario outer dim 3 field rational\n"
        "e1: 1,0,0\ne2: 0,1,0\ne3: 0,0,1\nr: 1,1,0\ns: 1,-1,2"
    )
    assignments = enumerate_assignments(s)
    assert [support_labels(s, a) for a in assignments] == [
        ("e1",), ("e1", "r"), ("e1", "s"),
        ("e2",), ("e2", "r"), ("e2", "s"),
        ("e3",), ("e3", "s"),
    ]
    assert enumerate_assignments_by_basis_choices(s) == assignments.listing


def test_extension_pairs_present(yu_oh, yu_oh_assignments):
    # a size-3 support and its one-ray extension both occur
    supports = [support_labels(yu_oh, a) for a in yu_oh_assignments]
    assert ("v1", "v5", "v6") in supports
    assert ("v1", "v5", "v6", "vA") in supports


def box_rays(d: int, m: int) -> list[tuple[int, ...]]:
    """The primitive integer rays of {-m..m}^d with leading entry positive."""
    return [
        v
        for v in product(range(-m, m + 1), repeat=d)
        if any(v) and gcd(*v) == 1 and next(x for x in v if x) > 0
    ]


def box_scenario(d: int, m: int, indices=None):
    """The box scenario, or its sub-scenario of the rays at ``indices``."""
    rays = box_rays(d, m)
    if indices is not None:
        rays = [rays[i] for i in indices]
    lines = [f"r{i}: {','.join(map(str, v))}" for i, v in enumerate(rays, start=1)]
    return load_scenario("\n".join([f"scenario box-d{d}-m{m} dim {d} field rational", *lines]))


@cache
def box_bases(d: int, m: int) -> list[tuple[int, ...]]:
    return [c.members for c in box_scenario(d, m).basis_contexts()]


@st.composite
def box_subsets(draw):
    """At most 14 rays of box-d3-m2 or box-d4-m1: a few whole bases first, then any rays."""
    d, m = draw(st.sampled_from([(3, 2), (4, 1)]))
    chosen = [i for b in draw(st.lists(st.sampled_from(box_bases(d, m)), max_size=4)) for i in b]
    chosen += draw(st.lists(st.integers(0, len(box_rays(d, m)) - 1), min_size=1, max_size=14))
    return d, m, sorted(list(dict.fromkeys(chosen))[:14])


@settings(max_examples=100, deadline=None)
@given(box_subsets())
def test_enumerators_and_sweep_agree_on_box_subsets(subset):
    s = box_scenario(*subset)
    assignments = enumerate_assignments(s)
    assert enumerate_assignments_by_basis_choices(s) == assignments.listing
    accepted = [
        bits for bits in product((0, 1), repeat=len(s.rays)) if verify_assignment(s, KSAssignment(bits))
    ]
    assert sorted(accepted) == sorted(a.bits for a in assignments)


@pytest.mark.parametrize("d, m, rays", [(5, 1, 121), (3, 3, 145), (4, 2, 272)])
def test_uncolourable_boxes_have_no_assignments(d, m, rays):
    # a ray-by-ray backtrack does not finish on these; the basis-first search
    # closes every branch within a few bases
    s = box_scenario(d, m)
    assert len(s.rays) == rays
    events = enumerate_assignments(s)
    assert events.core == () and events.listing == []
    # every column is 0, and no ray is held
    assert events.compatible == (0,) * rays
    assert all(events.holding(i) == [] for i in range(rays))


@settings(max_examples=100, deadline=None)
@given(box_subsets())
def test_holding_is_the_event_scan_on_box_subsets(subset):
    # on the core events and on every event as its own core event
    s = box_scenario(*subset)
    events = enumerate_assignments(s)
    full = full_events(events)
    for i in range(len(s.rays)):
        assert events.holding(i) == full.holding(i) == events_containing(s, events, i)


ray_counts_and_masks = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=80))
)


def events_of_masks(n, masks):
    return GlobalEvents(n, masks, 0, ())


@settings(max_examples=100, deadline=None)
@given(ray_counts_and_masks)
def test_holding_and_missing_match_the_event_scans(case):
    n, masks = case
    events = events_of_masks(n, masks)
    for i in range(n):
        assert events.holding(i) == [a for a in events if a.bits[i]]
    # each mask is its own core event, so bit j of a column or of ``missing`` is masks[j]
    columns = [sum(1 << j for j, m in enumerate(masks) if m >> i & 1) for i in range(n)]
    assert list(events.compatible) == columns
    # zero masks with bits past the last ray, which no event holds
    for zeros in (0, 1, (1 << n) - 1, 0b101 << n - 1, 1 << n + 2, sum(masks[:2]) | 1 << 40):
        assert events.missing(zeros) == sum(1 << j for j, m in enumerate(masks) if not m & zeros)
        assert events.columns(zeros) == [(z, column) for z, column in enumerate(columns) if zeros >> z & 1]


def test_holding_reads_a_column_over_thousands_of_events():
    # 3000 events over six rays; ray 5 is held by the last event only, so its column's one bit is the highest
    rng = random.Random(26)
    events = events_of_masks(6, [rng.getrandbits(5) for _ in range(2999)] + [1 << 5])
    for i in range(6):
        assert events.holding(i) == [a for a in events if a.bits[i]]
    assert events.holding(5) == [events[-1]]
    assert len(events.holding(0)) > 1000


def test_the_listing_is_built_on_first_use(yu_oh):
    # holding expands only the core events in the ray's column; iterating or len lists every event, once
    events = enumerate_assignments(yu_oh)
    assert isinstance(events, GlobalEvents) and "listing" not in vars(events)
    held = events.holding(yu_oh.ray_index("vA"))
    assert [support_labels(yu_oh, a) for a in held] == GLOBAL_EVENT_SETS["vA"]
    assert "listing" not in vars(events)
    assert len(events) == 24 and vars(events)["listing"] is events.listing
    assert list(events) == events.listing and events[-1] is events.listing[-1]
