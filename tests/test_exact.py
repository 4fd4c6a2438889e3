"""Exact scalar, vector and matrix arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkit import (
    DimensionMismatchError,
    ExactMatrix,
    ExactScalar,
    ExactVector,
    InvalidDensityError,
    LinearDependenceError,
    ParseError,
    QuantumState,
    ValidationError,
    canonical_ray,
    gram_schmidt,
    inner_product,
    mixture,
    nullspace,
    parse_scalar,
    parse_vector,
    rank,
    rank1_projector,
    vec,
)

I = ExactScalar(0, 1)  # the imaginary unit

rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
)
scalars = st.builds(ExactScalar, rationals, rationals)
small_ints = st.integers(min_value=-6, max_value=6)
int_vectors = st.builds(lambda a, b, c: vec(a, b, c), small_ints, small_ints, small_ints)
nonzero_vectors = int_vectors.filter(lambda v: not v.is_zero)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero)


# --- scalar field ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("-1", ExactScalar(-1)),
        ("1/2", ExactScalar(Fraction(1, 2))),
        ("1/2+1/3i", ExactScalar(Fraction(1, 2), Fraction(1, 3))),
        ("0+1i", I),
        ("-2/3-5i", ExactScalar(Fraction(-2, 3), Fraction(-5))),
        ("0", ExactScalar(0)),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["1/0", "x", "1.5", "1 /2", "1+i", "+1", "1/-2", ""])
def test_parse_scalar_rejects(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_rational_field_rejects_gaussian_literal():
    with pytest.raises(ParseError):
        parse_scalar("1+2i", field="rational")


@given(scalars)
def test_scalar_format_round_trip(s):
    assert parse_scalar(str(s)) == s


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_conjugation_and_modulus(a):
    assert a.conjugate().conjugate() == a
    sq = a * a.conjugate()
    assert sq.is_real
    assert sq.re == a.abs2() >= 0


@given(scalars, nonzero_scalars)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a


def test_scalar_as_fraction():
    assert ExactScalar(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValidationError):
        I.as_fraction()


# --- vectors and inner products ------------------------------------------


def test_vector_dimension_floor():
    with pytest.raises(ValidationError):
        ExactVector((ExactScalar(1),))


def test_parse_vector():
    assert parse_vector("1,0,-1") == vec(1, 0, -1)
    with pytest.raises(DimensionMismatchError):
        parse_vector("1,0", dim=3)


def test_inner_product_examples():
    assert inner_product(vec(0, 1, -1), vec(-1, 1, 1)).is_zero
    assert inner_product(vec(1, 0, 0), vec(1, 0, 0)) == ExactScalar(1)
    assert inner_product(vec(1, 1, 1), vec(-1, 1, 1)) == ExactScalar(1)


def test_inner_product_conjugates_first_argument():
    u = ExactVector((I, ExactScalar(1), ExactScalar(0)))
    v = vec(1, 0, 0)
    assert inner_product(u, v) == ExactScalar(0, -1)
    assert inner_product(v, u) == I


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product(vec(1, 0), vec(1, 0, 0))


@given(int_vectors, int_vectors)
def test_inner_product_conjugate_symmetry(u, v):
    assert inner_product(u, v) == inner_product(v, u).conjugate()


# --- canonical rays -------------------------------------------------------


@pytest.mark.parametrize(
    "raw,canonical",
    [
        (vec(-1, -2, 1), vec(1, 2, -1)),
        (vec(0, -2, 2), vec(0, 1, -1)),
        (vec(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), vec(1, 1, 1)),
        (vec(-1, 1, 1), vec(1, -1, -1)),
    ],
)
def test_canonical_ray_examples(raw, canonical):
    assert canonical_ray(raw) == canonical


def test_canonical_ray_gaussian():
    v = ExactVector((I, ExactScalar(0, 2)))  # (i, 2i) ~ (1, 2)
    assert canonical_ray(v) == vec(1, 2)
    w = ExactVector((ExactScalar(1, 1), ExactScalar(1, -1)))  # (1+i, 1-i) ~ (1, -i)
    assert canonical_ray(w) == ExactVector((ExactScalar(1), ExactScalar(0, -1)))


@given(nonzero_vectors, nonzero_scalars)
def test_canonical_ray_scale_invariant(v, c):
    assert canonical_ray(v) == canonical_ray(v.scale(c))


def test_canonical_ray_rejects_zero():
    with pytest.raises(ValidationError):
        canonical_ray(vec(0, 0, 0))


# --- rank and nullspace ---------------------------------------------------


def test_nullspace_examples():
    assert nullspace([vec(1, 0, -1), vec(1, -1, 0)]) == [vec(1, 1, 1)]
    empty_basis = nullspace([], dim=3)
    assert len(empty_basis) == 3
    assert nullspace([vec(0, 1, -1), vec(1, 0, 1), vec(0, 1, 0)]) == []


def test_nullspace_needs_dim_when_empty():
    with pytest.raises(DimensionMismatchError):
        nullspace([])


def test_nullspace_gaussian_row():
    row = ExactVector((ExactScalar(1), I, ExactScalar(0)))
    basis = nullspace([row])
    assert len(basis) == 2
    for b in basis:
        assert inner_product(row, b).is_zero


def test_rank_examples():
    assert rank([vec(1, 0, -1), vec(1, -1, 0)]) == 2
    assert rank([vec(1, 0, 0), vec(1, 0, 0)]) == 1
    assert rank([vec(0, 1, -1), vec(1, 0, 1), vec(0, 1, 0)]) == 3


@given(st.lists(int_vectors, min_size=0, max_size=4))
def test_rank_nullity(rows):
    r = rank(rows, dim=3)
    basis = nullspace(rows, dim=3)
    assert r + len(basis) == 3
    for b in basis:
        for row in rows:
            assert inner_product(row, b).is_zero


# --- Gram-Schmidt ---------------------------------------------------------


def test_gram_schmidt_examples():
    assert gram_schmidt([vec(1, 0, -1), vec(1, -1, 0)]) == [vec(1, 0, -1), vec(1, -2, 1)]
    assert gram_schmidt([vec(1, 0, 0), vec(0, 1, 0)]) == [vec(1, 0, 0), vec(0, 1, 0)]
    assert gram_schmidt([vec(0, 1, -1), vec(1, 0, 1), vec(1, -1, 1)]) == [
        vec(0, 1, -1),
        vec(2, 1, 1),
        vec(1, -1, -1),
    ]


def test_gram_schmidt_detects_dependence():
    with pytest.raises(LinearDependenceError):
        gram_schmidt([vec(1, 0, 0), vec(0, 1, 0), vec(2, 1, 0)])


@given(st.lists(nonzero_vectors, min_size=1, max_size=3))
def test_gram_schmidt_orthogonality_and_span(vectors):
    if rank(vectors, dim=3) < len(vectors):
        with pytest.raises(LinearDependenceError):
            gram_schmidt(vectors)
        return
    out = gram_schmidt(vectors)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert inner_product(out[i], out[j]).is_zero
    # each input is exactly recovered from its projections onto the output
    for v in vectors:
        recovered = vec(*([0] * 3))
        for u in out:
            coef = inner_product(u, v) / ExactScalar(u.norm_sq())
            recovered = recovered + u.scale(coef)
        assert recovered == v


# --- projectors and Born probabilities ------------------------------------


def test_rank1_projector_examples():
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    assert rank1_projector(vec(1, 0, -1)) == ExactMatrix.from_rows(
        [[half, 0, -half], [0, 0, 0], [-half, 0, half]]
    )
    assert rank1_projector(vec(1, 0, 0)) == ExactMatrix.from_rows(
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    )
    assert rank1_projector(vec(1, 1, 1)) == ExactMatrix.from_rows([[third] * 3] * 3)


@given(nonzero_vectors)
def test_rank1_projector_invariants(v):
    p = rank1_projector(v)
    assert p.is_hermitian()
    assert p @ p == p
    assert p.trace() == ExactScalar(1)


def test_rank1_projector_gaussian_is_hermitian():
    p = rank1_projector(ExactVector((ExactScalar(1), I, ExactScalar(0))))
    assert p.is_hermitian()
    assert p @ p == p


def test_rank1_projector_rejects_zero():
    with pytest.raises(ValidationError):
        rank1_projector(vec(0, 0, 0))


def test_born_probability_examples():
    state = QuantumState.density(rank1_projector(vec(1, 1, 1)))
    assert state.probability(vec(-1, 1, 1)) == Fraction(1, 9)
    assert state.probability(vec(1, 0, -1)) == 0
    assert QuantumState.density(rank1_projector(vec(1, 0, 0))).probability(vec(1, 0, 0)) == 1


def test_born_probability_sums_to_one_over_basis():
    state = QuantumState.density(rank1_projector(vec(2, -3, 5)))
    basis = gram_schmidt([vec(1, 0, -1), vec(1, -1, 0), vec(-1, 1, 1)])
    total = sum((state.probability(b) for b in basis), Fraction(0))
    assert total == 1


def test_born_probability_validates_density():
    not_trace_one = ExactMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(InvalidDensityError):
        QuantumState.density(not_trace_one)
    not_hermitian = ExactMatrix.from_rows([[1, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidDensityError):
        QuantumState.density(not_hermitian)
    # leading principal minors are all >= 0 here, yet the matrix is not PSD
    indefinite = ExactMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -1]])
    with pytest.raises(InvalidDensityError):
        QuantumState.density(indefinite)


def test_mixture_validation():
    p1 = rank1_projector(vec(1, 0, 0))
    p2 = rank1_projector(vec(0, 1, 0))
    mixed = mixture([(Fraction(1, 2), p1), (Fraction(1, 2), p2)])
    assert mixed.trace() == ExactScalar(1)
    with pytest.raises(ValidationError):
        mixture([(Fraction(1, 2), p1)])
    with pytest.raises(ValidationError):
        mixture([(Fraction(-1, 2), p1), (Fraction(3, 2), p2)])


@settings(max_examples=25)
@given(nonzero_vectors, nonzero_vectors)
def test_born_probability_matches_pure_formula(u, psi):
    state = QuantumState.density(rank1_projector(psi))
    expected = inner_product(u, psi).abs2() / (u.norm_sq() * psi.norm_sq())
    assert state.probability(u) == expected
