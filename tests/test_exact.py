"""Exact scalar, vector and matrix arithmetic."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
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
    mixture,
    nullspace,
    parse_scalar,
    parse_vector,
    rank,
    rank1_projector,
    vec,
)
from ctxkit.exact import expectation, orthogonal, overlap, validate_density
from ctxkit.report import matrix_json

import oracles

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
    assert sq.im == 0
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


@settings(max_examples=100, deadline=None)
@given(st.lists(scalars, min_size=2, max_size=4))
def test_a_vector_holds_numerators_over_one_denominator_in_lowest_terms(coords):
    v = ExactVector(coords)
    assert v.den > 0 and gcd(v.den, *(part for z in v.nums for part in z)) == 1
    assert v.coords == tuple(coords)
    assert all(c == ExactScalar(Fraction(a, v.den), Fraction(b, v.den)) for c, (a, b) in zip(coords, v.nums))
    # the integer form, built directly, is the vector the constructor builds from the same ints
    ints, built = ExactVector._of_ints(v.integer_form), ExactVector([ExactScalar(a, b) for a, b in v.integer_form])
    assert (ints, ints.integer_form, ints.integer_norm) == (built, built.integer_form, built.integer_norm)
    assert v.coordinate_texts() == [str(c) for c in coords]
    assert str(v) == "(" + ",".join(v.coordinate_texts()) + ")"
    assert not hasattr(v, "__dict__")


def test_equality_and_the_integer_forms_build_no_scalar(monkeypatch):
    u = vec(Fraction(1, 2), 1, 0)
    v = ExactVector((ExactScalar(Fraction(2, 4)), ExactScalar(1), ExactScalar(0)))
    m = ExactMatrix.from_rows([[1, I], [-I, 2]])
    built = []
    init = ExactScalar.__init__
    monkeypatch.setattr(ExactScalar, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    assert u == v and u != vec(1, 2, 0) and u.dim == 3 and not u.is_zero
    assert canonical_ray(u) == vec(1, 2, 0) and u.integer_form == ((1, 0), (2, 0), (0, 0)) and u.integer_norm == 5
    assert orthogonal(u, vec(2, -1, 7)) and overlap(u, vec(1, 0, 0)) == Fraction(1, 5)
    assert built == []
    # a matrix entry builds the one scalar it returns
    assert m.entry(0, 1) == I and len(built) == 1
    assert not hasattr(m, "__dict__")


def test_equal_vectors_hash_alike_and_a_hash_builds_no_scalar(monkeypatch):
    # the same ray from ints, from Fractions over another denominator and from scalars
    a = vec(1, 2, 0)
    b = vec(Fraction(3, 6), Fraction(2, 2), 0)
    c = ExactVector((ExactScalar(Fraction(1, 2)), ExactScalar(1), ExactScalar(0)))
    built = []
    init = ExactScalar.__init__
    monkeypatch.setattr(ExactScalar, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    assert b == c and hash(b) == hash(c) and len({a, b, c}) == 2
    assert hash(a) == hash(vec(Fraction(2, 2), Fraction(4, 2), Fraction(0, 5))) and hash(a) != hash(b)
    assert hash(a) == hash((a.den, a.nums))
    assert built == []


def test_parse_vector():
    assert parse_vector("1,0,-1") == vec(1, 0, -1)
    with pytest.raises(DimensionMismatchError):
        parse_vector("1,0", dim=3)


# the inner product is the Fraction oracle's; these tests hold it to hand-worked values


def test_inner_product_examples():
    assert oracles.inner_product(vec(0, 1, -1), vec(-1, 1, 1)).is_zero
    assert oracles.inner_product(vec(1, 0, 0), vec(1, 0, 0)) == ExactScalar(1)
    assert oracles.inner_product(vec(1, 1, 1), vec(-1, 1, 1)) == ExactScalar(1)


def test_inner_product_conjugates_first_argument():
    u = ExactVector((I, ExactScalar(1), ExactScalar(0)))
    v = vec(1, 0, 0)
    assert oracles.inner_product(u, v) == ExactScalar(0, -1)
    assert oracles.inner_product(v, u) == I


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        oracles.inner_product(vec(1, 0), vec(1, 0, 0))


@given(int_vectors, int_vectors)
def test_inner_product_conjugate_symmetry(u, v):
    assert oracles.inner_product(u, v) == oracles.inner_product(v, u).conjugate()


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
    assert canonical_ray(v) == canonical_ray(oracles.scale_vector(v, c))


@given(nonzero_vectors, nonzero_scalars)
def test_canonical_ray_keeps_the_integer_form_a_fresh_vector_computes(v, c):
    # the canonical ray holds its integer form from construction; a copy of its coordinates computes it
    ray = canonical_ray(oracles.scale_vector(v, c))
    assert ray.integer_form == ExactVector(ray.coords).integer_form
    assert ray.integer_norm == oracles.norm_sq(ray)


@st.composite
def real_integer_vectors(draw):
    """A real integer vector of dimension 2 to 5 whose first entries may be zero and leading entry may be negative."""
    d = draw(st.integers(2, 5))
    zeros = draw(st.integers(0, d - 1))
    lead = draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1]))
    rest = draw(st.lists(st.integers(-12, 12), min_size=d - zeros - 1, max_size=d - zeros - 1))
    return vec(*([0] * zeros + [lead] + rest))


gaussian_units = st.builds(ExactScalar, st.integers(-5, 5), st.integers(1, 5) | st.integers(-5, -1))


@settings(max_examples=200, deadline=None)
@given(real_integer_vectors(), gaussian_units)
@example(vec(0, -4, 6), ExactScalar(1, 1))
@example(vec(0, 0, -3), ExactScalar(0, 1))
def test_canonical_ray_of_a_real_vector_matches_the_gaussian_euclid(v, c):
    # v times a non-real scalar has non-real entries, so its canonical ray goes through the Gaussian gcd
    scaled = oracles.scale_vector(v, c)
    assert any(z.im for z in scaled.coords)
    ray = canonical_ray(v)
    assert ray == canonical_ray(scaled)
    assert ray.integer_form == ExactVector(ray.coords).integer_form and ray.integer_norm == oracles.norm_sq(ray)


def test_canonical_ray_rejects_zero():
    with pytest.raises(ValidationError):
        canonical_ray(vec(0, 0, 0))


# --- rank and nullspace ---------------------------------------------------


def test_nullspace_examples():
    assert nullspace([vec(1, 0, -1), vec(1, -1, 0)]) == [vec(1, 1, 1)]
    empty_basis = nullspace([], dim=3)
    assert len(empty_basis) == 3
    assert nullspace([vec(0, 1, -1), vec(1, 0, 1), vec(0, 1, 0)]) == []
    # the first row's pivot is column 2, the second's column 0: the basis stays in column order
    assert nullspace([vec(0, 0, 1, 0), vec(1, 1, 0, 0)]) == [vec(1, -1, 0, 0), vec(0, 0, 0, 1)]


def test_nullspace_needs_dim_when_empty():
    with pytest.raises(DimensionMismatchError):
        nullspace([])


def test_nullspace_gaussian_row():
    row = ExactVector((ExactScalar(1), I, ExactScalar(0)))
    basis = nullspace([row])
    assert len(basis) == 2
    for b in basis:
        assert oracles.inner_product(row, b).is_zero


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
            assert oracles.inner_product(row, b).is_zero


# --- the integer core against the Fraction oracle --------------------------

ZERO_SCALAR = ExactScalar(0)
ONE_SCALAR = ExactScalar(1)
sparse_scalars = st.one_of(st.just(ZERO_SCALAR), scalars)


def gaussian_vectors(d):
    return st.lists(sparse_scalars, min_size=d, max_size=d).map(lambda cs: ExactVector(tuple(cs)))


@st.composite
def row_families(draw):
    """d in 2..6 and 0..8 Gaussian-rational rows: fresh, zero, rescaled repeats, combinations."""
    d = draw(st.integers(min_value=2, max_value=6))
    rows: list[ExactVector] = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combination"] if rows else ["fresh", "zero"]))
        if kind == "fresh":
            rows.append(draw(gaussian_vectors(d)))
        elif kind == "zero":
            rows.append(ExactVector((ZERO_SCALAR,) * d))
        elif kind == "repeat":
            rows.append(oracles.scale_vector(draw(st.sampled_from(rows)), draw(nonzero_scalars)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = oracles.scale_vector(a, draw(nonzero_scalars)), oracles.scale_vector(b, draw(nonzero_scalars))
            rows.append(oracles.add_vectors(a, b))
    return d, rows


@st.composite
def few_dependent_rows(draw):
    """d in {3, 4} and 1 to 4 rows: fresh, zero, rescaled repeats and combinations of earlier rows."""
    d = draw(st.sampled_from([3, 4]))
    rows = [draw(gaussian_vectors(d))]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(draw(st.one_of([
            gaussian_vectors(d),
            st.just(ExactVector((ZERO_SCALAR,) * d)),
            nonzero_scalars.map(lambda f: oracles.scale_vector(a, f)),
            st.tuples(nonzero_scalars, nonzero_scalars).map(
                lambda fs: oracles.add_vectors(oracles.scale_vector(a, fs[0]), oracles.scale_vector(b, fs[1]))
            ),
        ])))
    return d, rows


@settings(max_examples=300, deadline=None)
@given(few_dependent_rows())
@example((3, [vec(1, 0, 0), vec(2, 0, 0)]))
@example((4, [vec(1, 1, 0, 0), vec(0, 0, 1, 1), vec(1, 1, 1, 1)]))
def test_rank_tests_only_the_last_row_for_a_pivot_and_matches_the_fraction_oracle(family):
    d, rows = family
    assert rank(rows, dim=d) == oracles.rank(rows, dim=d)


@settings(max_examples=300, deadline=None)
@given(row_families())
def test_rank_and_nullspace_match_the_fraction_oracle(family):
    d, rows = family
    assert rank(rows, dim=d) == oracles.rank(rows, dim=d)
    assert nullspace(rows, dim=d) == oracles.nullspace(rows, dim=d)


def test_integer_form_is_a_positive_multiple_with_coprime_parts():
    v = ExactVector((ExactScalar(Fraction(2, 3), Fraction(-4, 3)), ExactScalar(Fraction(4, 9)), ZERO_SCALAR))
    assert v.integer_form == ((3, -6), (2, 0), (0, 0))
    assert ExactVector((ZERO_SCALAR, ZERO_SCALAR)).integer_form == ((0, 0), (0, 0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_orthogonal_and_overlap_match_the_inner_product(data):
    d = data.draw(st.integers(min_value=2, max_value=5))
    u = data.draw(gaussian_vectors(d).filter(lambda v: not v.is_zero))
    # half of the partners are drawn from u's orthogonal complement, rescaled
    partners = [data.draw(gaussian_vectors(d).filter(lambda v: not v.is_zero))]
    partners += [oracles.scale_vector(w, data.draw(nonzero_scalars)) for w in oracles.nullspace([u], dim=d)]
    v = data.draw(st.sampled_from(partners))
    assert orthogonal(u, v) == oracles.inner_product(u, v).is_zero
    assert orthogonal(v, u) == orthogonal(u, v)
    assert overlap(u, v) == oracles.inner_product(u, v).abs2() / (oracles.norm_sq(u) * oracles.norm_sq(v))


def test_overlap_and_born_probability_reject_another_dimension():
    with pytest.raises(DimensionMismatchError, match="^dimension mismatch: 2 vs 3$"):
        overlap(vec(1, 0), vec(1, 0, 0))
    with pytest.raises(DimensionMismatchError, match="^dimension mismatch: 3 vs 2$"):
        overlap(vec(1, 0, 0), vec(1, 0))
    for state in (QuantumState.pure(vec(1, 1, 1)), QuantumState.density(rank1_projector(vec(1, 1, 1)))):
        with pytest.raises(DimensionMismatchError):
            state.probability(vec(1, 1))
        with pytest.raises(DimensionMismatchError):
            state.probability(vec(1, 1, 1, 1))
        with pytest.raises(ValidationError):
            state.probability(vec(0, 0, 0))


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
            assert oracles.inner_product(out[i], out[j]).is_zero
    # each input is exactly recovered from its projections onto the output
    for v in vectors:
        recovered = vec(*([0] * 3))
        for u in out:
            coef = oracles.inner_product(u, v) / ExactScalar(oracles.norm_sq(u))
            recovered = oracles.add_vectors(recovered, oracles.scale_vector(u, coef))
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


@settings(max_examples=25, deadline=None)
@given(nonzero_vectors, nonzero_vectors)
def test_born_probability_matches_pure_formula(u, psi):
    expected = oracles.inner_product(u, psi).abs2() / (oracles.norm_sq(u) * oracles.norm_sq(psi))
    assert QuantumState.density(rank1_projector(psi)).probability(u) == expected
    assert QuantumState.pure(psi).probability(u) == expected


# --- integer matrices against the entrywise Fraction oracle ---------------


def gaussian_matrices(rows, cols):
    return st.lists(sparse_scalars, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: ExactMatrix.from_rows([es[i * cols : (i + 1) * cols] for i in range(rows)])
    )


def as_rows(m):
    return [list(m.row(i)) for i in range(m.rows)]


def same_matrix(m, oracle_rows):
    """Entry for entry, and structurally (== and hash) against a fresh build of the oracle's rows."""
    expected = ExactMatrix.from_rows(oracle_rows)
    return as_rows(m) == oracle_rows and m == expected and hash(m) == hash(expected)


def test_matrix_is_kept_in_lowest_terms():
    m = ExactMatrix(2, 2, 12, ((6, 0), (0, -4), (0, 4), (2, 2)))
    assert (m.den, m.nums) == (6, ((3, 0), (0, -2), (0, 2), (1, 1)))
    sixth = Fraction(1, 6)
    assert m == ExactMatrix.from_rows(
        [[3 * sixth, ExactScalar(0, -2 * sixth)], [ExactScalar(0, 2 * sixth), ExactScalar(sixth, sixth)]]
    )
    zero = ExactMatrix(2, 2, 7, ((0, 0),) * 4)
    assert (zero.den, zero.is_zero) == (1, True)
    with pytest.raises(ValidationError):
        ExactMatrix(2, 2, 0, ((0, 0),) * 4)
    with pytest.raises(ValidationError):
        ExactMatrix(2, 2, 1, ((0, 0),) * 3)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_operations_match_the_entrywise_oracle(data):
    d = data.draw(st.integers(min_value=2, max_value=5))
    a, b = data.draw(gaussian_matrices(d, d)), data.draw(gaussian_matrices(d, d))
    rect = data.draw(gaussian_matrices(d, data.draw(st.integers(min_value=2, max_value=5))))
    f = data.draw(scalars)
    assert same_matrix(a @ rect, oracles.matmul(a, rect))
    assert same_matrix(a @ b, oracles.matmul(a, b))
    assert same_matrix(a + b, oracles.add(a, b))
    assert same_matrix(a - b, oracles.sub(a, b))
    assert same_matrix(a.scale(f), oracles.scale(a, f))
    assert same_matrix(rect.dagger(), oracles.dagger(rect))
    assert a.trace() == oracles.trace(a)
    assert a.is_zero == all(e.is_zero for e in a.entries)
    assert a.is_hermitian() == (oracles.dagger(a) == oracles.rows_of(a))
    hermitian = a + a.dagger()
    assert hermitian.is_hermitian() and oracles.dagger(hermitian) == oracles.rows_of(hermitian)
    # == and hash do not depend on how a value was scaled on the way
    k = data.draw(st.integers(min_value=1, max_value=30))
    rescaled = ExactMatrix(a.rows, a.cols, a.den * k, tuple((x * k, y * k) for x, y in a.nums))
    assert rescaled == a and hash(rescaled) == hash(a)
    if not f.is_zero:
        round_trip = a.scale(f).scale(ONE_SCALAR / f)
        assert round_trip == a and hash(round_trip) == hash(a)
    assert (a == b) == (a.entries == b.entries)
    assert str(a) == "[" + "; ".join(",".join(str(x) for x in row) for row in oracles.rows_of(a)) + "]"
    assert matrix_json(a) == [[str(x) for x in row] for row in oracles.rows_of(a)]


def invalid_density_message(check, rho):
    try:
        check(rho)
    except InvalidDensityError as exc:
        return str(exc)
    return None


@st.composite
def pure_mixtures(draw, d):
    """A convex mixture of 1 to 3 rank-1 projectors with positive rational weights."""
    vectors = draw(st.lists(gaussian_vectors(d).filter(lambda v: not v.is_zero), min_size=1, max_size=3))
    weights = [draw(st.integers(min_value=1, max_value=5)) for _ in vectors]
    return mixture([(Fraction(w, sum(weights)), rank1_projector(v)) for w, v in zip(weights, vectors)])


@st.composite
def density_candidates(draw):
    """Mixtures and normalised Gram matrices (valid), Hermitian and arbitrary matrices (mostly not)."""
    d = draw(st.integers(min_value=2, max_value=5))
    kind = draw(st.sampled_from(["mixture", "gram", "hermitian", "arbitrary"]))
    if kind == "mixture":
        return kind, draw(pure_mixtures(d))
    a = draw(gaussian_matrices(d, d))
    m = {"gram": a @ a.dagger(), "hermitian": a + a.dagger(), "arbitrary": a}[kind]
    t = m.trace()
    if draw(st.booleans()) and not t.is_zero:
        m = m.scale(ONE_SCALAR / t)
    return kind, m


NOT_PSD = re.compile(r"principal minor (\[[0-9, ]+\]) is negative: matrix is not PSD")


@settings(max_examples=200, deadline=None)
@given(density_candidates())
# a zero pivot whose row is not zero; a negative Schur pivot under a positive
# diagonal; a zero pivot dropped before a negative one, which names [0, 2]
# where the first negative minor in subset order is [2]
@example(("hermitian", ExactMatrix.from_rows([[0, Fraction(1, 2)], [Fraction(1, 2), 1]])))
@example(("hermitian", ExactMatrix.from_rows([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])))
@example(("hermitian", ExactMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -1]])))
def test_validate_density_matches_the_cofactor_oracle(candidate):
    kind, rho = candidate
    message = invalid_density_message(validate_density, rho)
    expected = invalid_density_message(oracles.validate_density, rho)
    certificate = NOT_PSD.fullmatch(message or "")
    if certificate is None:
        # accepted, or a shape, Hermitian or trace failure
        assert message == expected
    else:
        # the oracle rejects too, and the named minor is negative by cofactors
        assert NOT_PSD.fullmatch(expected or "")
        idx = json.loads(certificate.group(1))
        x = oracles.rows_of(rho)
        minor = oracles._det([[x[i][j] for j in idx] for i in idx])
        assert minor.im == 0 and minor.re < 0
    if kind == "mixture":
        assert message is None


@st.composite
def near_densities(draw):
    """Hermitian matrices of trace 1 or not, with complex off-diagonals, and the same with one entry broken."""
    d = draw(st.integers(2, 4))
    a = draw(gaussian_matrices(d, d))
    m = a + a.dagger() if draw(st.booleans()) else a @ a.dagger()
    t = m.trace()
    if not t.is_zero and draw(st.booleans()):
        m = m.scale(ONE_SCALAR / t)
    if draw(st.booleans()):
        # break one entry: a diagonal entry gets an imaginary part, an off-diagonal one loses its mirror's conjugate
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        entries = list(m.entries)
        entries[i * d + j] = entries[i * d + j] + draw(nonzero_scalars)
        m = ExactMatrix.from_rows([entries[r * d : (r + 1) * d] for r in range(d)])
    return m


@settings(max_examples=300, deadline=None)
@given(near_densities())
@example(ExactMatrix.from_rows([[Fraction(1, 2), ExactScalar(0, 1)], [ExactScalar(0, 1), Fraction(1, 2)]]))
@example(ExactMatrix.from_rows([[Fraction(1, 2), ExactScalar(0, 1)], [ExactScalar(0, -1), 1]]))
@example(ExactMatrix.from_rows([[ExactScalar(1, 1), 0], [0, ExactScalar(0, -1)]]))
def test_hermitian_and_trace_checks_match_the_entrywise_oracles(m):
    # is_hermitian against the oracle's dagger; validate_density's messages against the cofactor oracle's,
    # which builds the dagger and the trace as scalars, up to the minor a PSD failure names
    assert m.is_hermitian() == (oracles.dagger(m) == oracles.rows_of(m))
    message = invalid_density_message(validate_density, m)
    expected = invalid_density_message(oracles.validate_density, m)
    if NOT_PSD.fullmatch(message or ""):
        assert NOT_PSD.fullmatch(expected or "")
    else:
        assert message == expected
    if m.is_hermitian() and oracles.trace(m) != ONE_SCALAR:
        assert message == f"density matrix must have trace 1, got {oracles.trace(m)}"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_expectation_matches_the_oracle_on_mixtures(data):
    d = data.draw(st.integers(min_value=2, max_value=5))
    rho = data.draw(pure_mixtures(d))
    v = data.draw(gaussian_vectors(d).filter(lambda v: not v.is_zero))
    validate_density(rho)
    assert expectation(rho, v) == oracles.expectation(rho, v)
    assert QuantumState.density(rho).probability(v) == oracles.expectation(rho, v)


@settings(max_examples=200, deadline=None)
@given(row_families())
def test_gram_schmidt_matches_the_fraction_oracle(family):
    _, vectors = family
    try:
        expected = oracles.gram_schmidt(vectors)
    except LinearDependenceError as exc:
        with pytest.raises(LinearDependenceError) as raised:
            gram_schmidt(vectors)
        assert str(raised.value) == str(exc)
        return
    assert gram_schmidt(vectors) == expected
