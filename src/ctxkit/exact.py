"""Exact scalar arithmetic and exact linear algebra over the Gaussian rationals.

Scalars are numbers ``a + b*i`` with ``a``, ``b`` rational, kept in lowest
terms by :class:`fractions.Fraction`, so every zero-test is decidable and
all field operations are exact.  No floating point enters this module.

Vectors and matrices are stored alike: Gaussian-integer numerators as
``(re, im)`` int pairs over one positive denominator, in lowest terms.  A
vector also holds its :attr:`~ExactVector.integer_form`, the numerators
over the integer gcd of their parts, which spans the same ray.  Two
non-zero vectors are the same ray when one is a non-zero multiple of the
other; :func:`canonical_ray` picks the one integer vector of each ray whose
entries have Gaussian gcd 1 and whose first non-zero entry lies in the
quadrant ``re > 0, im >= 0``, so ``==`` decides ray equality.

Every subspace is found by one fraction-free step over Z[i],
:func:`_narrow`: it takes a Gaussian-integer basis of a subspace to one
of the vectors in it orthogonal to a row, and divides each new vector by
the integer gcd of its parts to limit growth.  :func:`nullspace` narrows
the unit vectors by each row, :func:`rank` counts what is left, and the
flat scan of :mod:`ctxkit.contextuality` narrows a flat's normals by one
ray to reach each flat above it.  Projectors, density states, their
products and traces are int arithmetic on the numerators.  ``Fraction``
values are built only where an exact value leaves this layer: Born
probabilities (:func:`overlap`, :func:`expectation`), traces, and
coordinates or entries read as :class:`ExactScalar`; printing writes them
from the ints.  The density-operator validity check (Hermitian, unit
trace, positive semidefinite) decides positivity by one symmetric
Bareiss elimination with diagonal pivots, names a negative principal minor
when it fails, and returns the positive pivots, whose rows span the range.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import attrgetter

from .errors import (
    DimensionMismatchError,
    InvalidDensityError,
    LinearDependenceError,
    ParseError,
    ValidationError,
)

_ZERO = Fraction(0)


def _as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class _Record:
    """Equality, hashing, ``repr`` and immutability of ctxkit's value records.

    A record names its constructor fields, in order, in ``_fields``, and
    may give the trailing ones defaults in ``_defaults = {"field": value}``.
    Unless the class writes its own ``__init__``, its constructor is
    generated from these two, as ``collections.namedtuple`` builds its
    ``__new__``: ``def __init__(self, f1, ..., fk=default)``, with one call
    of a slot's member descriptor ``__set__`` per field; a class with its
    own ``__init__`` gets ``_fill(self, s1, ..., sk)``, which sets its
    ``__slots__`` so.  Records of one class with equal fields are equal, the
    hash is that of the field tuple, and ``repr`` reads ``Name(field=value,
    ...)``, leaving out fields whose name starts with ``_``.  The fields are
    set once; assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields, slots = cls._fields, cls.__dict__["__slots__"]
        get = attrgetter(*fields)
        # attrgetter of one name returns the bare value; the key is always a tuple
        cls._key = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))
        name, names = ("_fill", slots) if "__init__" in cls.__dict__ else ("__init__", fields)
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in names)
        body = "".join(f"\n    _set_{f}(self, {f})" for f in names)
        namespace = {"_defaults": cls._defaults, "__name__": cls.__module__}
        namespace.update((f"_set_{f}", getattr(cls, f).__set__) for f in names)
        exec(f"def {name}(self, {params}):{body}", namespace)
        setattr(cls, name, namespace[name])
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild the record through its constructor
        return type(self), self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ExactScalar(_Record):
    """A Gaussian rational ``re + im*i`` in canonical lowest terms."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: int | Fraction, im: int | Fraction = _ZERO):
        self._fill(_as_fraction(re), _as_fraction(im))

    @staticmethod
    def coerce(value: ExactScalar | int | Fraction) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        return ExactScalar(_as_fraction(value))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

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

    def __add__(self, other: ExactScalar | int | Fraction) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ExactScalar | int | Fraction) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ExactScalar | int | Fraction) -> "ExactScalar":
        return ExactScalar.coerce(other) - self

    def __mul__(self, other: ExactScalar | int | Fraction) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        return ExactScalar(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: ExactScalar | int | Fraction) -> "ExactScalar":
        o = ExactScalar.coerce(other)
        n = o.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return ExactScalar((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other: ExactScalar | int | Fraction) -> "ExactScalar":
        return ExactScalar.coerce(other) / self

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


ONE = ExactScalar(1)


# Literal grammar shared by all file formats: rational `[-]INT[/INT]`,
# Gaussian `RAT` or `RAT(+|-)RATi`, whitespace-free.
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


def _over_common_denominator(values: Iterable[ExactScalar | int | Fraction]) -> tuple[int, tuple[tuple[int, int], ...]]:
    # (den, nums) with values[k] == nums[k] / den and den the least common denominator; ints and Fractions are real
    parts = [(v.re, v.im) if isinstance(v, ExactScalar) else (_as_fraction(v), _ZERO) for v in values]
    den = lcm(*(x.denominator for z in parts for x in z))
    return den, tuple((a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)) for a, b in parts)


def _lowest_terms(den: int, nums: tuple[tuple[int, int], ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    # nums and den > 0 divided by gcd(den, all parts): the one form of the values nums[k] / den
    g = gcd(den, *(part for z in nums for part in z))
    if g > 1:
        den //= g
        nums = tuple((a // g, b // g) for a, b in nums)
    return den, nums


def _scalar(z: tuple[int, int], den: int) -> ExactScalar:
    return ExactScalar(Fraction(z[0], den), Fraction(z[1], den))


def _ratio(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _scalar_text(z: tuple[int, int], den: int) -> str:
    """``str(_scalar(z, den))``, written from the ints."""
    a, b = z
    return _ratio(a, den) if b == 0 else f"{_ratio(a, den)}{'+' if b > 0 else '-'}{_ratio(abs(b), den)}i"


class ExactVector(_Record):
    """A Gaussian-rational vector ``nums[k] / den`` of dimension at least 2, stored as an :class:`ExactMatrix` is.

    ``==`` and hashing read ``(den, nums)``.  The constructor takes
    coordinates and sets :attr:`integer_form` and :attr:`integer_norm`;
    :attr:`coords` builds the coordinates back when read, and ``repr``,
    copy and pickle read them, as for a record of the one field ``coords``.
    """

    __slots__ = ("den", "nums", "integer_form", "integer_norm")
    _fields = ("coords",)

    def __init__(self, coords: Iterable[ExactScalar | int | Fraction]):
        den, nums = _lowest_terms(*_over_common_denominator(coords))
        self._hold(den, nums, _lowest_terms(0, nums)[1])  # nums over the integer gcd of their parts

    @classmethod
    def _of_ints(cls, form: Iterable[tuple[int, int]]) -> "ExactVector":
        """The Gaussian-integer vector ``form``, ``(re, im)`` int pairs whose parts have gcd 1, so that it is
        its own integer form: built without a scalar or a gcd."""
        vector = cls.__new__(cls)
        form = tuple(form)
        vector._hold(1, form, form)
        return vector

    def _hold(self, den: int, nums: tuple[tuple[int, int], ...], form: tuple[tuple[int, int], ...]):
        if len(nums) < 2:
            raise ValidationError("vectors must have dimension >= 2")
        self._fill(den, nums, form, sum(a * a + b * b for a, b in form))

    @property
    def coords(self) -> tuple[ExactScalar, ...]:
        """The coordinates as :class:`ExactScalar`; built on each read."""
        return tuple(_scalar(z, self.den) for z in self.nums)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self):
        return hash((self.den, self.nums))

    @property
    def dim(self) -> int:
        return len(self.nums)

    @property
    def is_zero(self) -> bool:
        return self.integer_norm == 0

    def coordinate_texts(self) -> list[str]:
        """``str`` of each coordinate, written from the ints: what reports and messages print."""
        return [_scalar_text(z, self.den) for z in self.nums]

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def __repr__(self) -> str:
        return f"ExactVector{self}"


def vec(*coords: ExactScalar | int | Fraction) -> ExactVector:
    """Convenience constructor: ``vec(1, 0, -1)``."""
    return ExactVector(coords)


def parse_vector(text: str, dim: int | None = None, field: str = "gaussian") -> ExactVector:
    """Parse a comma-separated coordinate list in the literal grammar."""
    parts = [p.strip() for p in text.split(",")]
    v = ExactVector(tuple(parse_scalar(p, field) for p in parts))
    if dim is not None and v.dim != dim:
        raise DimensionMismatchError(f"expected {dim} coordinates, got {v.dim}")
    return v


def _integer_inner(u: ExactVector, v: ExactVector) -> tuple[int, int]:
    # <u|v> on the integer forms: a positive rational multiple of <u|v>
    us, vs = u.integer_form, v.integer_form
    if len(us) != len(vs):
        raise DimensionMismatchError(f"dimension mismatch: {len(us)} vs {len(vs)}")
    re = im = 0
    for (a, b), (c, d) in zip(us, vs):
        re += a * c + b * d
        im += a * d - b * c
    return re, im


def orthogonal(u: ExactVector, v: ExactVector) -> bool:
    """Whether ``<u|v> = 0``, decided in integers."""
    return _integer_inner(u, v) == (0, 0)


def overlap(u: ExactVector, v: ExactVector) -> Fraction:
    """``|<u|v>|^2 / (||u||^2 ||v||^2)``: the Born probability of ray ``u`` in pure state ``v``."""
    re, im = _integer_inner(u, v)
    norm_u, norm_v = u.integer_norm, v.integer_norm
    if norm_u == 0 or norm_v == 0:
        raise ValidationError("the overlap of a zero vector is undefined")
    return Fraction(re * re + im * im, norm_u * norm_v)


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
    return _canonical_from_ints(v.integer_form)


def _canonical_from_ints(ints: Sequence[tuple[int, int]]) -> ExactVector:
    # canonical_ray of the non-zero Gaussian-integer vector ``ints``; its entries come out with Gaussian gcd 1
    if not any(zi for _, zi in ints):
        # the Gaussian gcd of real integers is their integer gcd up to a unit: the sign of the first non-zero entry
        g = gcd(*(zr for zr, _ in ints))
        g = g if next(zr for zr, _ in ints if zr) > 0 else -g
        return ExactVector._of_ints((zr // g, 0) for zr, _ in ints)
    g = reduce(_gaussian_gcd, ints, (0, 0))
    ng = g[0] * g[0] + g[1] * g[1]
    reduced = []
    for (zr, zi) in ints:
        # z / g = z * conj(g) / |g|^2, exact by construction
        nr, ni = zr * g[0] + zi * g[1], zi * g[0] - zr * g[1]
        if nr % ng or ni % ng:
            raise AssertionError("gaussian gcd division was not exact")
        reduced.append((nr // ng, ni // ng))
    fr, fi = next(z for z in reduced if z != (0, 0))
    ur, ui = next((ur, ui) for ur, ui in _UNITS if fr * ur - fi * ui > 0 and fr * ui + fi * ur >= 0)
    return ExactVector._of_ints((zr * ur - zi * ui, zr * ui + zi * ur) for zr, zi in reduced)


# ---------------------------------------------------------------------------
# subspaces: rank, nullspace, Gram-Schmidt
# ---------------------------------------------------------------------------

def _narrow(normals: list[list[tuple[int, int]]], row: Sequence[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """A Gaussian-integer basis of the vectors in ``span(normals)`` orthogonal to ``row``.

    With ``c_j = <row|n_j>`` and ``p`` the first ``j`` with ``c_j != 0``,
    the basis is ``c_p n_j - c_j n_p`` for every ``j != p``, divided by the
    integer gcd of its parts; ``n_j`` itself when ``c_j = 0``.  ``normals``
    is returned unchanged when every ``c_j`` is 0.  Narrowed from the unit
    vectors with the first ``p``, each normal stays non-zero at its own
    column and zero at the other normals' columns, so :func:`nullspace`
    gets multiples of the reduced row echelon null basis, in column order.
    """
    conj = [(a, -b) for a, b in row]
    cs = [_dot(conj, n) for n in normals]
    p = next((j for j, c in enumerate(cs) if c != (0, 0)), None)
    if p is None:
        return normals
    (pr, pi), pivot = cs[p], normals[p]
    out = []
    for j, ((cr, ci), n) in enumerate(zip(cs, normals)):
        if j == p:
            continue
        if cr or ci:
            n = [
                (pr * a - pi * b - cr * x + ci * y, pr * b + pi * a - cr * y - ci * x)
                for (a, b), (x, y) in zip(n, pivot)
            ]
            content = gcd(*(part for z in n for part in z))
            if content > 1:
                n = [(a // content, b // content) for a, b in n]
        out.append(n)
    return out


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


def _null_basis(rows: Sequence[ExactVector], dim: int | None) -> list[list[tuple[int, int]]]:
    """A Gaussian-integer basis of ``{psi : <row_i|psi> = 0 for all i}``: the unit vectors narrowed by each row."""
    d = _shared_dim(rows, dim)
    normals = [[(1, 0) if j == i else (0, 0) for j in range(d)] for i in range(d)]
    for row in rows:
        normals = _narrow(normals, row.integer_form)
    return normals


def rank(rows: Sequence[ExactVector], dim: int | None = None) -> int:
    """Exact rank of the row family: the dimension less the nullity of all rows but the last, plus 1 if the last
    row has a pivot, ``<row|n_j> != 0`` for some of their normals ``n_j``; its narrowed normals are never built."""
    d = _shared_dim(rows, dim)
    normals = _null_basis(rows[:-1], d)
    conj = [(a, -b) for a, b in rows[-1].integer_form] if rows else []
    return d - len(normals) + any(_dot(conj, n) != (0, 0) for n in normals)


def nullspace(rows: Sequence[ExactVector], dim: int | None = None) -> list[ExactVector]:
    """Exact basis of ``{psi : <row_i|psi> = 0 for all i}``.

    The canonical rays of :func:`_null_basis`, one per free column of the
    rows' reduced row echelon form, in column order; an empty list means
    only the zero solution exists.  ``dim`` is required when ``rows`` is
    empty and must match the shared row dimension otherwise.
    """
    return [_canonical_from_ints(z) for z in _null_basis(rows, dim)]


def gram_schmidt(ordered: Sequence[ExactVector]) -> list[ExactVector]:
    """Orthogonalize ``ordered`` in place-order, without normalization.

    Returns mutually orthogonal vectors spanning the same nested flags, in
    canonical ray form.  Raises :class:`LinearDependenceError` when a
    residual vanishes, i.e. the input family is linearly dependent.  Runs
    on integer forms: with ``L = lcm ||u||^2`` over the earlier outputs,
    ``L z - sum_u (L / ||u||^2) <u|z> u`` is a positive multiple of the
    rational residual of ``z``, so it has the same canonical ray.
    """
    out: list[ExactVector] = []
    norms: list[int] = []
    for v in ordered:
        big = lcm(*norms)
        residual = [(big * a, big * b) for a, b in v.integer_form]
        for u, norm in zip(out, norms):
            cr, ci = _integer_inner(u, v)
            f = big // norm
            cr, ci = cr * f, ci * f
            residual = [
                (x - (cr * a - ci * b), y - (cr * b + ci * a))
                for (x, y), (a, b) in zip(residual, u.integer_form)
            ]
        if all(z == (0, 0) for z in residual):
            raise LinearDependenceError(f"vector {v} is linearly dependent on its predecessors")
        u = _canonical_from_ints(residual)
        out.append(u)
        norms.append(u.integer_norm)
    return out


# ---------------------------------------------------------------------------
# matrices, projectors, Born probabilities
# ---------------------------------------------------------------------------

def _dot(xs: Iterable[tuple[int, int]], ys: Iterable[tuple[int, int]]) -> tuple[int, int]:
    # sum_k x_k y_k over Z[i], without conjugation
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


class ExactMatrix(_Record):
    """A dense Gaussian-rational matrix: ``nums[i * cols + j] / den``.

    ``nums`` holds row-major Gaussian-integer numerators as ``(re, im)``
    int pairs over one positive common denominator ``den``.  The
    constructor brings them to lowest terms (``gcd(den, all parts) == 1``),
    so ``==`` and ``hash`` are structural.  Every operation runs in ints;
    :meth:`entry`, :meth:`row` and :attr:`entries` build
    :class:`ExactScalar` values only when read.
    """

    __slots__ = _fields = ("rows", "cols", "den", "nums")

    def __init__(self, rows: int, cols: int, den: int, nums: Iterable[tuple[int, int]]):
        nums = tuple(nums)
        if rows <= 0 or cols <= 0 or len(nums) != rows * cols:
            raise ValidationError("matrix shape does not match entry count")
        if den <= 0:
            raise ValidationError("matrix denominator must be positive")
        self._fill(rows, cols, *_lowest_terms(den, nums))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[ExactScalar | int | Fraction]]) -> "ExactMatrix":
        data = [list(row) for row in rows]
        if not data or any(len(r) != len(data[0]) for r in data):
            raise ValidationError("matrix rows must be non-empty and of equal length")
        den, nums = _over_common_denominator(x for row in data for x in row)
        return cls(len(data), len(data[0]), den, nums)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, 1, tuple((1, 0) if i == j else (0, 0) for i in range(n) for j in range(n)))

    @property
    def entries(self) -> tuple[ExactScalar, ...]:
        """The entries as :class:`ExactScalar`, row-major; built on each read."""
        return tuple(_scalar(z, self.den) for z in self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(a or b for a, b in self.nums)

    def entry(self, i: int, j: int) -> ExactScalar:
        return _scalar(self.nums[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple[ExactScalar, ...]:
        return tuple(_scalar(z, self.den) for z in self.nums[i * self.cols : (i + 1) * self.cols])

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        # self + sign * other over the least common denominator
        self._require_same_shape(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return ExactMatrix(
            self.rows,
            self.cols,
            den,
            tuple((s * a + t * c, s * b + t * d) for (a, b), (c, d) in zip(self.nums, other.nums)),
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def scale(self, factor: ExactScalar | int | Fraction) -> "ExactMatrix":
        fden, ((fr, fi),) = _over_common_denominator((factor,))
        return ExactMatrix(
            self.rows,
            self.cols,
            self.den * fden,
            tuple((a * fr - b * fi, a * fi + b * fr) for a, b in self.nums),
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError("matrix shapes do not compose")
        n, m = self.cols, other.cols
        columns = [other.nums[j::m] for j in range(m)]
        return ExactMatrix(
            self.rows,
            m,
            self.den * other.den,
            tuple(_dot(self.nums[i * n : (i + 1) * n], col) for i in range(self.rows) for col in columns),
        )

    def trace(self) -> ExactScalar:
        if self.rows != self.cols:
            raise DimensionMismatchError("trace of a non-square matrix")
        re, im = map(sum, zip(*self.nums[:: self.cols + 1]))
        return _scalar((re, im), self.den)

    def dagger(self) -> "ExactMatrix":
        c = self.cols
        return ExactMatrix(c, self.rows, self.den, tuple((a, -b) for j in range(c) for a, b in self.nums[j::c]))

    def is_hermitian(self) -> bool:
        """Whether the matrix is square and equals :meth:`dagger`: each entry against its mirror's conjugate,
        in place."""
        n, nums = self.cols, self.nums
        mirrored = (z for j in range(n) for z in nums[j::n])
        return self.rows == n and all(a == c and b == -d for (a, b), (c, d) in zip(nums, mirrored))

    def _require_same_shape(self, other: "ExactMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix shapes differ")

    def __str__(self) -> str:
        return "[" + "; ".join(",".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


def rank1_projector(v: ExactVector) -> ExactMatrix:
    """The projector ``|v><v| / ||v||^2`` onto the ray through ``v``.

    Built from the integer form ``z``: numerators ``z_i conj(z_j)`` over
    ``||z||^2``.
    """
    if v.is_zero:
        raise ValidationError("cannot project onto the zero vector")
    z = v.integer_form
    return ExactMatrix(
        v.dim,
        v.dim,
        v.integer_norm,
        tuple((a * c + b * d, b * c - a * d) for a, b in z for c, d in z),
    )


def projector_failures(projectors: Sequence[ExactMatrix], dim: int, rank_one: bool = False) -> list[str]:
    """The conditions of a projective measurement that ``projectors`` fail, by name: each
    ``Pk`` a ``dim`` x ``dim`` Hermitian idempotent (of trace 1 if ``rank_one``), each
    ``Pa*Pb = 0``, the sum I.  A wrong shape is reported alone, as products need the shape."""
    names = [f"P{k}" for k in range(1, len(projectors) + 1)]
    failures = [f"{name} is {dim}x{dim}" for name, p in zip(names, projectors) if (p.rows, p.cols) != (dim, dim)]
    if failures:
        return failures
    for name, p in zip(names, projectors):
        if not p.is_hermitian():
            failures.append(f"{name} hermitian")
        if p @ p != p:
            failures.append(f"{name} idempotent")
        if rank_one and p.trace().as_fraction() != 1:
            failures.append(f"tr({name}) = 1")
    for (a, p), (b, q) in combinations(zip(names, projectors), 2):
        if not (p @ q).is_zero:
            failures.append(f"{a}*{b} = 0")
    if sum(projectors[1:], projectors[0]) != ExactMatrix.identity(dim):
        failures.append("+".join(names) + " = I")
    return failures


def validate_density(rho: ExactMatrix) -> list[int]:
    """Check that ``rho`` is Hermitian, has unit trace and is PSD; return the indices of its positive pivots.

    All three are decided on the numerators; the trace is 1 iff the
    diagonal sums to ``den + 0i``, and a scalar is built only for its message.
    Positive semidefiniteness is decided by one symmetric Bareiss
    elimination on the numerators (``den > 0``; Bareiss, Math. Comp. 22,
    565, 1968), pivoting on the diagonal in index order.  A positive pivot
    ``p`` replaces the rest by ``p a_ij - a_ik a_kj``, divided exactly by
    the previous positive pivot (1 before the first): by Sylvester's
    identity the rest then holds the minors ``det rho[K+i, K+j]`` of the
    numerators over the kept pivots ``K``, so no part grows beyond a minor
    and no gcd is taken.  A zero pivot with a zero row is dropped.  A
    negative pivot, or a zero pivot whose row is not zero, fails with a
    negative principal minor as its certificate: the positive pivots so far
    plus the failing index (and the column of the row's first non-zero entry).

    The returned pivots ``K`` number the rank of ``rho``, and ``rho[K, K]``
    is non-singular, so the rows of ``rho`` at ``K`` span its range: for the
    PSD ``rho``, ``rho z = 0`` iff each of them annihilates ``z``.
    """
    if rho.rows != rho.cols:
        raise InvalidDensityError("density matrix must be square")
    if not rho.is_hermitian():
        raise InvalidDensityError("density matrix must be Hermitian")
    n = rho.rows
    re, im = map(sum, zip(*rho.nums[:: n + 1]))
    if re != rho.den or im:
        raise InvalidDensityError(f"density matrix must have trace 1, got {rho.trace()}")
    m = [rho.nums[i * n : (i + 1) * n] for i in range(n)]
    rest, kept, last = list(range(n)), [], 1
    while m:
        (p, _), *row = m[0]
        k, *rest = rest
        if p <= 0:
            j = next((j for j, z in zip(rest, row) if z != (0, 0)), None)
            if p < 0 or j is not None:
                minor = kept + [k] + ([] if p < 0 else [j])
                raise InvalidDensityError(f"principal minor {minor} is negative: matrix is not PSD")
            m = [r[1:] for r in m[1:]]
            continue
        kept.append(k)
        # row i of the rest is (a_ik, a_ij...); row holds a_kj; each quotient is exact
        m = [
            [((p * c - a * e + b * f) // last, (p * d - a * f - b * e) // last) for (c, d), (e, f) in zip(r, row)]
            for (a, b), *r in m[1:]
        ]
        last = p
    return kept


def expectation(rho: ExactMatrix, v: ExactVector) -> Fraction:
    """``<v|rho|v> / ||v||^2``: the Born probability of ray ``v`` in the density state ``rho``.

    Computed on the integer form ``z`` of ``v`` as the integer
    ``<z|nums|z>`` over ``den ||z||^2``, in one pass over ``nums``.
    """
    if rho.rows != v.dim or rho.cols != v.dim:
        raise DimensionMismatchError("matrix and vector dimensions do not match")
    z = v.integer_form
    norm = v.integer_norm
    if norm == 0:
        raise ValidationError("events must be non-zero vectors")
    entries = iter(rho.nums)
    re = im = 0
    for a, b in z:
        # row i of nums times z, then times conj(z_i); z leads the zip, so no entry of the next row is drawn
        x = y = 0
        for (c, e), (p, q) in zip(z, entries):
            x += p * c - q * e
            y += p * e + q * c
        re += a * x + b * y
        im += a * y - b * x
    if im != 0:
        raise ValidationError("the expectation of a non-Hermitian matrix is not real")
    return Fraction(re, rho.den * norm)


def mixture(parts: Sequence[tuple[int | Fraction, ExactMatrix]]) -> ExactMatrix:
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
