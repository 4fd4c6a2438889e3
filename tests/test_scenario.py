"""Scenario parsing, exclusivity graphs and context enumeration."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkit import (
    ContextKind,
    ExactScalar,
    ExactVector,
    ParseError,
    UnknownLabelError,
    ValidationError,
    canonical_ray,
    check_distinct_complements,
    enumerate_contexts,
    load_scenario,
    nullspace,
    vec,
)
from ctxkit.exact import orthogonal
from ctxkit.scenario import _bits, _mask, _rays

import oracles
from test_assignments import box_scenario, box_subsets
from test_contextuality import gaussian_image_text

# complements of the twelve two-member contexts, keyed by member labels
PAIR_COMPLEMENTS = {
    ("v4", "vA"): vec(2, 1, 1),
    ("v8", "vA"): vec(-1, -2, 1),
    ("v9", "vA"): vec(1, -1, 2),
    ("v5", "vB"): vec(-1, -2, -1),
    ("v7", "vB"): vec(2, 1, -1),
    ("v9", "vB"): vec(1, -1, -2),
    ("v6", "vC"): vec(1, 1, 2),
    ("v7", "vC"): vec(-2, 1, -1),
    ("v8", "vC"): vec(-1, 2, 1),
    ("v4", "vD"): vec(2, -1, -1),
    ("v5", "vD"): vec(1, -2, 1),
    ("v6", "vD"): vec(-1, -1, 2),
}

BASES = [("v1", "v2", "v3"), ("v1", "v4", "v7"), ("v2", "v5", "v8"), ("v3", "v6", "v9")]


def scenario_from(*ray_lines: str, name: str = "test", dim: int = 3, field: str = "rational"):
    header = f"scenario {name} dim {dim} field {field}"
    return load_scenario("\n".join([header, *ray_lines]))


def test_bundled_yu_oh_shape(yu_oh):
    assert yu_oh.name == "yu-oh"
    assert yu_oh.dim == 3
    assert len(yu_oh.rays) == 13
    assert yu_oh.labels == ("v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "vA", "vB", "vC", "vD")
    assert len(yu_oh.edges) == 24


def test_edges_equal_exact_orthogonality(yu_oh):
    for i in range(len(yu_oh.rays)):
        for j in range(i + 1, len(yu_oh.rays)):
            expected = oracles.inner_product(yu_oh.rays[i].vector, yu_oh.rays[j].vector).is_zero
            assert ((i, j) in yu_oh.edges) == expected
            assert (yu_oh.neighbours[i] >> j & 1) == (yu_oh.neighbours[j] >> i & 1) == expected
    assert all(not yu_oh.neighbours[i] >> i & 1 for i in range(len(yu_oh.rays)))


# --- parsing and validation ------------------------------------------------


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        scenario_from("a: 1,0,0", "b: 0,1/0,0")
    assert err.value.line == 3
    assert err.value.column is not None


def test_header_errors():
    with pytest.raises(ParseError):
        load_scenario("scen x dim 3 field rational\na: 1,0,0")
    with pytest.raises(ParseError):
        load_scenario("scenario x dim three field rational\na: 1,0,0")
    with pytest.raises(ParseError):
        load_scenario("scenario x dim 3 field octonion\na: 1,0,0")
    with pytest.raises(ParseError):
        load_scenario("# only comments\n")


def test_rational_field_rejects_gaussian_coordinates():
    with pytest.raises(ParseError):
        scenario_from("a: 1,0,0", "b: 0,1+1i,0")
    s = scenario_from("a: 1,0,0", "b: 0,1+1i,0", field="gaussian")
    # (0, 1+i, 0) is the ray (0, 1, 0) after gcd reduction
    assert s.rays[1].vector == vec(0, 1, 0)


def test_duplicate_ray_rejected():
    with pytest.raises(ValidationError) as err:
        scenario_from("a: 1,0,0", "b: 2,0,0")
    assert "scalar multiple" in str(err.value)


def test_duplicate_label_rejected():
    with pytest.raises(ValidationError):
        scenario_from("a: 1,0,0", "a: 0,1,0")


def test_zero_vector_rejected():
    with pytest.raises(ValidationError):
        scenario_from("a: 1,0,0", "b: 0,0,0")


def test_coordinate_count_mismatch_rejected():
    with pytest.raises(ValidationError):
        scenario_from("a: 1,0,0", "b: 1,0")


def test_comments_and_blank_lines_ignored():
    s = load_scenario("# leading comment\n\nscenario t dim 3 field rational\n# mid\na: 1,0,0\n\nb: 0,1,0\n")
    assert len(s.rays) == 2


def test_rays_stored_canonically():
    s = scenario_from("a: -2,2,2")
    assert s.rays[0].vector == vec(1, -1, -1)


def test_unknown_label():
    s = scenario_from("a: 1,0,0", "b: 0,1,0")
    assert s.ray_index("b") == 1
    with pytest.raises(UnknownLabelError):
        s.ray_index("zz")
    with pytest.raises(UnknownLabelError):
        s.ray_index(5)


# --- context enumeration ----------------------------------------------------


def test_yu_oh_contexts(yu_oh):
    contexts = yu_oh.contexts
    assert len(contexts) == 16
    bases = [c for c in contexts if c.kind is ContextKind.BASIS]
    pairs = [c for c in contexts if c.kind is ContextKind.DEFICIENT]
    assert len(bases) == 4 and len(pairs) == 12
    base_labels = sorted(tuple(yu_oh.rays[i].label for i in c.members) for c in bases)
    assert base_labels == sorted(BASES)
    assert all(len(c.members) == 2 for c in pairs)
    assert all(c.complement == () for c in bases)


def test_yu_oh_pair_complements_match_reference(yu_oh):
    pairs = [c for c in yu_oh.contexts if c.kind is ContextKind.DEFICIENT]
    seen = {}
    for c in pairs:
        key = tuple(yu_oh.rays[i].label for i in c.members)
        assert len(c.complement) == 1
        seen[key] = c.complement[0]
    assert set(seen) == set(PAIR_COMPLEMENTS)
    for key, expected in PAIR_COMPLEMENTS.items():
        assert seen[key] == canonical_ray(expected)


def _conjugate_cross(u, v):
    a, b = oracles.conjugate_vector(u).coords, oracles.conjugate_vector(v).coords
    return ExactVector(
        (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
    )


def test_pair_complements_agree_with_cross_product(yu_oh):
    # independent route to the complement of a two-member context in dim 3
    for c in yu_oh.contexts:
        if c.kind is ContextKind.DEFICIENT:
            u, v = (yu_oh.rays[i].vector for i in c.members)
            assert canonical_ray(_conjugate_cross(u, v)) == c.complement[0]


def test_contexts_are_orthogonal_and_maximal(yu_oh):
    for c in yu_oh.contexts:
        members = list(c.members)
        for a in members:
            for b in members:
                if a < b:
                    assert yu_oh.neighbours[a] >> b & 1
        outside = set(range(len(yu_oh.rays))) - set(members)
        for o in outside:
            assert not all(yu_oh.neighbours[o] >> m & 1 for m in members)
        for comp in c.complement:
            for m in members:
                assert oracles.inner_product(yu_oh.rays[m].vector, comp).is_zero
        assert len(c.complement) == yu_oh.dim - len(c.members)


def test_contexts_sorted_deterministically(yu_oh):
    members = [c.members for c in yu_oh.contexts]
    assert members == sorted(members)


def assert_bases_and_free_match_the_basis_contexts(s):
    bases = s.basis_contexts()
    assert s.bases == tuple(sum(1 << i for i in c.members) for c in bases)
    in_a_basis = {i for c in bases for i in c.members}
    assert s.free == sum(1 << i for i in range(len(s.rays)) if i not in in_a_basis)


def test_classify_rays(yu_oh):
    at = yu_oh.ray_index
    in_bases = [sum(b >> i & 1 for b in yu_oh.bases) for i in range(len(yu_oh.rays))]
    assert in_bases[at("v1")] == in_bases[at("v2")] == in_bases[at("v3")] == 2
    assert all(in_bases[at(f"v{i}")] == 1 for i in range(4, 10))
    assert yu_oh.free == sum(1 << at(v) for v in ("vA", "vB", "vC", "vD"))
    assert_bases_and_free_match_the_basis_contexts(yu_oh)


@pytest.mark.parametrize("d, m, n", [(3, 2, 13), (3, 2, 26), (3, 2, 49), (4, 1, 32), (4, 1, 40)])
def test_bases_and_free_match_the_basis_contexts_on_box_prefixes(d, m, n):
    assert_bases_and_free_match_the_basis_contexts(box_scenario(d, m, range(n)))


MASKS = st.one_of(st.just(0), st.integers(0, 299).map(lambda i: 1 << i), st.integers(0, (1 << 300) - 1))


@settings(max_examples=200)
@given(MASKS)
def test_a_mask_survives_its_bits_and_its_rays(mask):
    bits = _bits(mask)
    assert bits == bytes(mask >> i & 1 for i in range(max(mask.bit_length(), 1)))
    assert _mask(bits) == _mask(bits + bytes(7)) == mask
    assert _rays(mask) == tuple(i for i in range(300) if mask >> i & 1)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 1), max_size=300))
def test_flags_survive_their_mask(flags):
    mask = _mask(bytes(flags))
    assert mask == sum(1 << i for i, flag in enumerate(flags) if flag)
    assert _bits(mask).rstrip(b"\0") == bytes(flags).rstrip(b"\0")


def assert_masks_match_oracles(s):
    for i, u in enumerate(s.rays):
        for j, v in enumerate(s.rays):
            assert (s.neighbours[i] >> j & 1) == orthogonal(u.vector, v.vector)
    assert [c.members for c in s.contexts] == oracles.maximal_cliques(s)


@settings(max_examples=100, deadline=None)
@given(box_subsets())
def test_neighbours_and_contexts_match_oracles_on_box_subsets(subset):
    assert_masks_match_oracles(box_scenario(*subset))


def test_neighbours_and_contexts_match_oracles_on_gaussian_yu_oh(yu_oh):
    assert_masks_match_oracles(load_scenario(gaussian_image_text(yu_oh)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_edges_match_orthogonal_on_rays_of_many_bits(data):
    # the edges come from one packed null test per ray, with slots as wide as the rays' own parts: Gaussian rays
    # of up to 64-bit parts, and the normals of pairs of them, which are orthogonal to both
    bits, dim = data.draw(st.sampled_from([3, 40, 64])), data.draw(st.sampled_from([3, 4]))
    part = st.integers(-(1 << bits), 1 << bits)
    vector = st.lists(st.builds(ExactScalar, part, st.just(0) | part), min_size=dim, max_size=dim)
    # plus a unit vector, so that no vector is zero
    vectors = [ExactVector((x + 1, *rest)) for x, *rest in data.draw(st.lists(vector, min_size=2, max_size=6))]
    vectors += [b[0] for us in combinations(vectors, dim - 1) if len(b := nullspace(list(us), dim=dim)) == 1]
    rays = {canonical_ray(v): None for v in vectors if not v.is_zero}
    lines = [f"r{i}: " + ",".join(str(c) for c in v.coords) for i, v in enumerate(rays)]
    s = load_scenario("\n".join([f"scenario wide dim {dim} field gaussian", *lines]))
    assert s.edges == {
        (i, j) for i, u in enumerate(s.rays) for j, v in enumerate(s.rays) if i < j and orthogonal(u.vector, v.vector)
    }


def test_singleton_scenario():
    s = scenario_from("a: 1,1,1")
    contexts = enumerate_contexts(s)
    assert len(contexts) == 1
    (c,) = contexts
    assert c.kind is ContextKind.DEFICIENT
    assert len(c.complement) == 2


def test_distinct_complements_yu_oh(yu_oh):
    check = check_distinct_complements(yu_oh)
    assert check.ok
    assert check.collisions == ()


def test_distinct_complements_collision_fixture():
    # both pair contexts span the xy-plane, hence share the complement (0,0,1)
    s = scenario_from("a: 1,0,0", "b: 0,1,0", "c: 1,1,0", "d: 1,-1,0")
    check = check_distinct_complements(s)
    assert not check.ok
    assert len(check.collisions) == 1
    first, second = check.collisions[0]
    assert first.complement[0] == vec(0, 0, 1)
    assert second.complement[0] == vec(0, 0, 1)
    members = sorted(tuple(s.rays[i].label for i in ctx.members) for ctx in (first, second))
    assert members == [("a", "b"), ("c", "d")]


def test_distinct_complements_requires_dim_3():
    s = load_scenario("scenario t dim 2 field rational\na: 1,0\nb: 0,1")
    with pytest.raises(ValidationError):
        check_distinct_complements(s)
