"""Exact scalar arithmetic and exact linear algebra over the Gaussian rationals.

Scalars are numbers ``a + b*i`` with ``a``, ``b`` rational, kept in lowest
terms by :class:`fractions.Fraction`, so every zero-test is decidable and
all field operations are exact.  No floating point enters this module.

Vectors representing quantum events are compared *as rays*: two non-zero
vectors are the same ray when one is a non-zero scalar multiple of the
other.  :func:`canonical_ray` maps every vector of a ray class to a unique
representative: clear denominators, divide by the Gaussian-integer gcd of
the entries, then rotate by a unit in ``{1, -1, i, -i}`` so the first
non-zero coordinate has positive real part (and non-negative imaginary
part).  Structural equality of canonical forms then decides ray equality.

The elimination routines use ordinary exact Gauss-Jordan reduction;
``Fraction`` keeps every intermediate in lowest terms, which bounds growth
at the small matrix sizes this toolkit works with.  The density-operator
validity check (Hermitian, unit trace, all principal minors non-negative)
enumerates subsets and is likewise intended for small dimensions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import (
    DimensionMismatchError,
    InvalidDensityError,
    LinearDependenceError,
    ParseError,
    ValidationError,
)

RationalLike = Union[int, Fraction]
ScalarLike = Union["ExactScalar", int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class ExactScalar:
    """A Gaussian rational ``re + im*i`` in canonical lowest terms."""

    re: Fraction
    im: Fraction = _ZERO

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    @staticmethod
    def coerce(value: ScalarLike) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        return ExactScalar(_as_fraction(value))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; error if it has an imaginary part."""
        if self.im != 0:
            raise ValidationError(f"scalar {self} is not real")
        return self.re

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus ``re**2 + im**2`` as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __add__(self, other: ScalarLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "ExactScalar":
        return ExactScalar.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        n = o.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return ExactScalar((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other: ScalarLike) -> "ExactScalar":
        return ExactScalar.coerce(other) / self

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return _format_fraction(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{_format_fraction(self.re)}{sign}{_format_fraction(abs(self.im))}i"

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


ZERO = ExactScalar(_ZERO)
ONE = ExactScalar(_ONE)


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# Literal grammar shared by all file formats: rational `[-]INT[/INT]`,
# Gaussian `RAT` or `RAT(+|-)RATi`, whitespace-free.
_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")
_SCALAR_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)i)?$")


def parse_scalar(text: str, field: str = "gaussian") -> ExactScalar:
    """Parse a scalar literal such as ``-1``, ``1/2`` or ``1/2+1/3i``.

    ``field`` is ``"rational"`` or ``"gaussian"``; rational rejects any
    literal carrying an imaginary part.
    """
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ParseError(f"invalid scalar literal {text!r}")
    re_text, sign, im_text = m.groups()
    if im_text is not None and field == "rational":
        raise ParseError(f"gaussian literal {text!r} not allowed in a rational context")
    try:
        re_part = Fraction(re_text)
        im_part = _ZERO
        if im_text is not None:
            im_part = Fraction(im_text)
            if sign == "-":
                im_part = -im_part
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in literal {text!r}") from None
    return ExactScalar(re_part, im_part)


@dataclass(frozen=True)
class ExactVector:
    """A vector over :class:`ExactScalar`, dimension at least 2."""

    coords: tuple[ExactScalar, ...]

    def __post_init__(self):
        coords = tuple(ExactScalar.coerce(c) for c in self.coords)
        if len(coords) < 2:
            raise ValidationError("vectors must have dimension >= 2")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> ExactScalar:
        return self.coords[i]

    def __add__(self, other: "ExactVector") -> "ExactVector":
        _require_same_dim(self, other)
        return ExactVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ExactVector") -> "ExactVector":
        _require_same_dim(self, other)
        return ExactVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, factor: ScalarLike) -> "ExactVector":
        f = ExactScalar.coerce(factor)
        return ExactVector(tuple(f * c for c in self.coords))

    def conjugate(self) -> "ExactVector":
        return ExactVector(tuple(c.conjugate() for c in self.coords))

    def norm_sq(self) -> Fraction:
        return sum((c.abs2() for c in self.coords), _ZERO)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def __repr__(self) -> str:
        return f"ExactVector{self}"


def vec(*coords: ScalarLike) -> ExactVector:
    """Convenience constructor: ``vec(1, 0, -1)``."""
    return ExactVector(tuple(ExactScalar.coerce(c) for c in coords))


def parse_vector(text: str, dim: int | None = None, field: str = "gaussian") -> ExactVector:
    """Parse a comma-separated coordinate list in the literal grammar."""
    parts = [p.strip() for p in text.split(",")]
    v = ExactVector(tuple(parse_scalar(p, field) for p in parts))
    if dim is not None and v.dim != dim:
        raise DimensionMismatchError(f"expected {dim} coordinates, got {v.dim}")
    return v


def _require_same_dim(u: ExactVector, v: ExactVector):
    if u.dim != v.dim:
        raise DimensionMismatchError(f"dimension mismatch: {u.dim} vs {v.dim}")


def inner_product(u: ExactVector, v: ExactVector) -> ExactScalar:
    """Hermitian inner product, conjugate-linear in the first argument."""
    _require_same_dim(u, v)
    total = ZERO
    for a, b in zip(u.coords, v.coords):
        total = total + a.conjugate() * b
    return total


def orthogonal(u: ExactVector, v: ExactVector) -> bool:
    return inner_product(u, v).is_zero


# ---------------------------------------------------------------------------
# canonical ray representatives
# ---------------------------------------------------------------------------

def _round_div(n: int, d: int) -> int:
    # nearest integer to n/d for d > 0, ties rounded up (deterministic)
    return (2 * n + d) // (2 * d)


def _gaussian_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    # Euclidean algorithm in Z[i] with nearest-integer quotients.
    while b != (0, 0):
        nb = b[0] * b[0] + b[1] * b[1]
        xr = a[0] * b[0] + a[1] * b[1]
        xi = a[1] * b[0] - a[0] * b[1]
        qr = _round_div(xr, nb)
        qi = _round_div(xi, nb)
        rr = a[0] - (qr * b[0] - qi * b[1])
        ri = a[1] - (qr * b[1] + qi * b[0])
        a, b = b, (rr, ri)
    return a


_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def canonical_ray(v: ExactVector) -> ExactVector:
    """The unique representative of the ray through ``v``.

    Multiply by the least common denominator, divide by the Gaussian-integer
    gcd of the entries, then rotate by the unit that puts the first non-zero
    coordinate into the half-open quadrant ``re > 0, im >= 0`` (exactly one
    unit does).  Two vectors are scalar multiples of each other iff their
    canonical forms are structurally equal.
    """
    if v.is_zero:
        raise ValidationError("the zero vector has no canonical ray form")
    lcd = 1
    for c in v.coords:
        for part in (c.re, c.im):
            lcd = lcd * part.denominator // gcd(lcd, part.denominator)
    ints = [(int(c.re * lcd), int(c.im * lcd)) for c in v.coords]
    g = (0, 0)
    for z in ints:
        if z != (0, 0):
            g = z if g == (0, 0) else _gaussian_gcd(g, z)
    ng = g[0] * g[0] + g[1] * g[1]
    reduced = []
    for (zr, zi) in ints:
        # z / g = z * conj(g) / |g|^2, exact by construction
        nr, ni = zr * g[0] + zi * g[1], zi * g[0] - zr * g[1]
        if nr % ng or ni % ng:
            raise AssertionError("gaussian gcd division was not exact")
        reduced.append((nr // ng, ni // ng))
    first = next(z for z in reduced if z != (0, 0))
    for (ur, ui) in _UNITS:
        fr, fi = first[0] * ur - first[1] * ui, first[0] * ui + first[1] * ur
        if fr > 0 and fi >= 0:
            unit = (ur, ui)
            break
    return ExactVector(
        tuple(
            ExactScalar(Fraction(zr * unit[0] - zi * unit[1]), Fraction(zr * unit[1] + zi * unit[0]))
            for (zr, zi) in reduced
        )
    )


# ---------------------------------------------------------------------------
# elimination: rank, nullspace, Gram-Schmidt
# ---------------------------------------------------------------------------

def _rref(m: list[list[ExactScalar]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns."""
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not m[i][c].is_zero), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _constraint_matrix(rows: Sequence[ExactVector]) -> list[list[ExactScalar]]:
    # <row|psi> = sum_j conj(row_j) psi_j, so the coefficient row is conj(row).
    return [[c.conjugate() for c in row.coords] for row in rows]


def _shared_dim(rows: Sequence[ExactVector], dim: int | None) -> int:
    if rows:
        d = rows[0].dim
        for row in rows[1:]:
            if row.dim != d:
                raise DimensionMismatchError("rows do not share a dimension")
        if dim is not None and dim != d:
            raise DimensionMismatchError(f"rows have dimension {d}, expected {dim}")
        return d
    if dim is None:
        raise DimensionMismatchError("dimension required for an empty row list")
    return dim


def rank(rows: Sequence[ExactVector], dim: int | None = None) -> int:
    """Exact rank of the row family."""
    _shared_dim(rows, dim)
    return len(_rref(_constraint_matrix(rows)))


def nullspace(rows: Sequence[ExactVector], dim: int | None = None) -> list[ExactVector]:
    """Exact basis of ``{psi : <row_i|psi> = 0 for all i}``.

    Basis vectors are returned in canonical ray form; an empty list means
    only the zero solution exists.  ``dim`` is required when ``rows`` is
    empty and must match the shared row dimension otherwise.
    """
    d = _shared_dim(rows, dim)
    m = _constraint_matrix(rows)
    pivots = _rref(m)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        coords = [ZERO] * d
        coords[fc] = ONE
        for i, pc in enumerate(pivots):
            coords[pc] = -m[i][fc]
        basis.append(canonical_ray(ExactVector(tuple(coords))))
    return basis


def gram_schmidt(ordered: Sequence[ExactVector]) -> list[ExactVector]:
    """Orthogonalize ``ordered`` in place-order, without normalization.

    Returns mutually orthogonal vectors spanning the same nested flags, in
    canonical ray form.  Raises :class:`LinearDependenceError` when a
    residual vanishes, i.e. the input family is linearly dependent.
    """
    out: list[ExactVector] = []
    for v in ordered:
        residual = v
        for u in out:
            coef = inner_product(u, residual) / ExactScalar(u.norm_sq())
            residual = residual - u.scale(coef)
        if residual.is_zero:
            raise LinearDependenceError(f"vector {v} is linearly dependent on its predecessors")
        out.append(canonical_ray(residual))
    return out


# ---------------------------------------------------------------------------
# matrices, projectors, Born probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactMatrix:
    """A dense matrix of :class:`ExactScalar`, row-major."""

    rows: int
    cols: int
    entries: tuple[ExactScalar, ...]

    def __post_init__(self):
        entries = tuple(ExactScalar.coerce(e) for e in self.entries)
        if self.rows <= 0 or self.cols <= 0 or len(entries) != self.rows * self.cols:
            raise ValidationError("matrix shape does not match entry count")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[ScalarLike]]) -> "ExactMatrix":
        data = [[ExactScalar.coerce(x) for x in row] for row in rows]
        if not data or any(len(r) != len(data[0]) for r in data):
            raise ValidationError("matrix rows must be non-empty and of equal length")
        return cls(len(data), len(data[0]), tuple(x for row in data for x in row))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> ExactScalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[ExactScalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        return ExactMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        return ExactMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, factor: ScalarLike) -> "ExactMatrix":
        f = ExactScalar.coerce(factor)
        return ExactMatrix(self.rows, self.cols, tuple(f * e for e in self.entries))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("matrix shapes do not compose")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, tuple(out))

    def apply(self, v: ExactVector) -> ExactVector:
        if self.cols != v.dim:
            raise DimensionMismatchError("matrix and vector dimensions do not match")
        return ExactVector(
            tuple(
                sum((self.entry(i, j) * v[j] for j in range(self.cols)), ZERO)
                for i in range(self.rows)
            )
        )

    def trace(self) -> ExactScalar:
        if self.rows != self.cols:
            raise DimensionMismatchError("trace of a non-square matrix")
        return sum((self.entry(i, i) for i in range(self.rows)), ZERO)

    def dagger(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j).conjugate() for j in range(self.cols) for i in range(self.rows)),
        )

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self == self.dagger()

    def _require_same_shape(self, other: "ExactMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix shapes differ")

    def __str__(self) -> str:
        return "[" + "; ".join(",".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


def rank1_projector(v: ExactVector) -> ExactMatrix:
    """The projector ``|v><v| / ||v||^2`` onto the ray through ``v``."""
    if v.is_zero:
        raise ValidationError("cannot project onto the zero vector")
    n = ExactScalar(v.norm_sq())
    return ExactMatrix(
        v.dim,
        v.dim,
        tuple(v[i] * v[j].conjugate() / n for i in range(v.dim) for j in range(v.dim)),
    )


def _det(entries: list[list[ExactScalar]]) -> ExactScalar:
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = entries[0][j] * _det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def validate_density(rho: ExactMatrix):
    """Check that ``rho`` is Hermitian, has unit trace and is PSD.

    Positive semidefiniteness is decided exactly by non-negativity of all
    principal minors (not only the leading ones, which is inconclusive for
    singular matrices).  Subset enumeration is exponential in the dimension
    and intended for small state spaces.
    """
    if rho.rows != rho.cols:
        raise InvalidDensityError("density matrix must be square")
    if not rho.is_hermitian():
        raise InvalidDensityError("density matrix must be Hermitian")
    if rho.trace() != ONE:
        raise InvalidDensityError(f"density matrix must have trace 1, got {rho.trace()}")
    n = rho.rows
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = [[rho.entry(i, j) for j in idx] for i in idx]
        minor = _det(sub)
        if not minor.is_real:
            raise InvalidDensityError("principal minor of a Hermitian matrix must be real")
        if minor.re < 0:
            raise InvalidDensityError(f"principal minor {idx} is negative: matrix is not PSD")


def mixture(parts: Sequence[tuple[RationalLike, ExactMatrix]]) -> ExactMatrix:
    """Convex mixture ``sum_i p_i rho_i``; weights must be positive and sum to 1."""
    if not parts:
        raise ValidationError("a mixture needs at least one component")
    weights = [_as_fraction(p) for p, _ in parts]
    if any(w <= 0 for w in weights):
        raise ValidationError("mixture weights must be positive")
    if sum(weights) != 1:
        raise ValidationError("mixture weights must sum to 1")
    acc = parts[0][1].scale(weights[0])
    for w, rho in parts[1:]:
        acc = acc + rho.scale(w)
    return acc
