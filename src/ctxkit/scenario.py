"""Quantum scenarios: ray sets, exclusivity graphs and context enumeration.

A scenario is a finite set of non-zero vectors ("rays"), no two of which
are scalar multiples of each other.  Its exclusivity graph joins exactly
the orthogonal pairs; a *context* is a maximal pairwise-orthogonal subset,
i.e. a maximal clique of that graph.  A context of full dimension is an
orthogonal basis (kind ``BASIS``); smaller ones are ``DEFICIENT`` and carry
an exact basis of their orthogonal complement.

A :class:`Scenario` is complete once built: its constructor keeps the
graph as one int mask of neighbours per ray, the contexts found on those
masks, each basis's mask and the rays in no basis.  This module owns ray
masks: their one decoder and the packed null test that answers with one.
:func:`load_scenario` finds the edges with that test, one pass per ray
over all the rays.

Scenario files are UTF-8 text: a header line

    scenario NAME dim D field (rational|gaussian)

followed by one ray per line, ``LABEL: c1,c2,...,cD``, with coordinates in
the literal grammar of :mod:`ctxkit.exact`.  Lines starting with ``#`` are
comments.  The 13-ray reference scenario ships as the bundled ``yu-oh``
file.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import reduce
from itertools import combinations, combinations_with_replacement, compress, count
from operator import or_

from .errors import ParseError, UnknownLabelError, ValidationError
from .exact import ExactVector, _Record, canonical_ray, nullspace, parse_scalar

# The bundled scenario files; read as plain files, since importlib.resources loads inspect on CPython 3.12+
_DATA = os.path.join(os.path.dirname(__file__), "data")
_LABEL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


class Ray(_Record):
    """A labelled quantum event, stored as a canonical ray representative."""

    __slots__ = _fields = ("label", "vector")


class ContextKind(Enum):
    BASIS = "basis"
    DEFICIENT = "deficient"


class Context(_Record):
    """A maximal pairwise-orthogonal subset, as sorted ray indices.

    ``complement`` is an exact basis of the orthogonal complement of the
    members' span, in canonical ray form; empty exactly for ``BASIS``.
    """

    __slots__ = _fields = ("members", "kind", "complement")


class Scenario(_Record):
    """A named vector set with its exclusivity graph, complete once built.

    The constructor derives the rest from ``edges``: bit j of
    ``neighbours[i]`` is set iff rays i and j are joined, ``contexts``
    are the maximal cliques (see :func:`enumerate_contexts`), ``bases``
    the member mask of each basis context, in context order, and ``free``
    the rays in no basis.  None is a field, so equality, hashing and
    ``repr`` read only the arguments.  ``_packings`` starts empty and keeps
    the packings :func:`_packed_rays` and :func:`_hermitian_pass` build.
    """

    __slots__ = ("name", "dim", "field", "rays", "edges", "neighbours", "contexts", "bases", "free", "_packings")
    _fields = ("name", "dim", "field", "rays", "edges")

    def __init__(self, name: str, dim: int, field: str, rays: tuple[Ray, ...], edges: frozenset[tuple[int, int]]):
        neighbours = [0] * len(rays)
        for i, j in edges:
            neighbours[i] |= 1 << j
            neighbours[j] |= 1 << i
        neighbours = tuple(neighbours)
        contexts = _contexts(dim, rays, neighbours)
        bases = tuple(sum(1 << i for i in c.members) for c in _basis_contexts(contexts))
        free = reduce(or_, bases, 0) ^ (1 << len(rays)) - 1
        self._fill(name, dim, field, rays, edges, neighbours, contexts, bases, free, {})

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rays)

    def ray_index(self, ray: "Ray | str | int") -> int:
        if isinstance(ray, int):
            if not 0 <= ray < len(self.rays):
                raise UnknownLabelError(f"ray index {ray} out of range")
            return ray
        label = ray.label if isinstance(ray, Ray) else ray
        for i, r in enumerate(self.rays):
            if r.label == label:
                return i
        raise UnknownLabelError(f"unknown ray label {label!r}")

    def basis_contexts(self) -> tuple[Context, ...]:
        return _basis_contexts(self.contexts)


def load_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and validate a scenario document.

    Raises :class:`ParseError` with line/column for grammar violations and
    :class:`ValidationError` for zero vectors, duplicate rays (scalar
    multiples of an earlier ray) and coordinate-count mismatches.
    """
    header: tuple[str, int, str] | None = None
    rays: list[Ray] = []
    seen_labels: dict[str, int] = {}
    seen_rays: dict[ExactVector, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = _parse_header(line, lineno)
            continue
        name, dim, field_kind = header
        label, vector = _parse_ray_line(raw, lineno, dim, field_kind)
        if label in seen_labels:
            raise ValidationError(f"duplicate label {label!r} (line {lineno})")
        canon = canonical_ray(vector)
        if canon in seen_rays:
            raise ValidationError(f"ray {label!r} (line {lineno}) is a scalar multiple of ray {seen_rays[canon]!r}")
        seen_labels[label] = lineno
        seen_rays[canon] = label
        rays.append(Ray(label, canon))
    if header is None:
        raise ParseError(f"no header line found in {source}")
    name, dim, field_kind = header
    if not rays:
        raise ValidationError(f"scenario {name!r} declares no rays")
    return Scenario(name=name, dim=dim, field=field_kind, rays=tuple(rays), edges=_edges(rays, dim))


def _read_text(path: str | os.PathLike) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def load_scenario_path(path: str | os.PathLike) -> Scenario:
    return load_scenario(_read_text(path), source=os.fspath(path))


def bundled_scenario_names() -> tuple[str, ...]:
    return tuple(sorted(n[: -len(".scenario")] for n in os.listdir(_DATA) if n.endswith(".scenario")))


def load_bundled(name: str = "yu-oh") -> Scenario:
    """Load one of the scenarios shipped with the package."""
    res = os.path.join(_DATA, f"{name}.scenario")
    if not os.path.isfile(res):
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return load_scenario(_read_text(res), source=f"bundled:{name}")


def _parse_header(line: str, lineno: int) -> tuple[str, int, str]:
    tokens = line.split()
    if len(tokens) != 6 or tokens[0] != "scenario" or tokens[2] != "dim" or tokens[4] != "field":
        raise ParseError("header must be 'scenario NAME dim D field (rational|gaussian)'", line=lineno)
    name = tokens[1]
    try:
        dim = int(tokens[3])
    except ValueError:
        raise ParseError(f"dimension {tokens[3]!r} is not an integer", line=lineno) from None
    if dim < 2:
        raise ValidationError(f"dimension must be at least 2, got {dim} (line {lineno})")
    field_kind = tokens[5]
    if field_kind not in ("rational", "gaussian"):
        raise ParseError(f"field must be 'rational' or 'gaussian', got {field_kind!r}", line=lineno)
    return name, dim, field_kind


def _parse_ray_line(raw: str, lineno: int, dim: int, field_kind: str) -> tuple[str, ExactVector]:
    if ":" not in raw:
        raise ParseError("ray line must be 'LABEL: c1,c2,...'", line=lineno, column=1)
    label_part, _, coord_part = raw.partition(":")
    label = label_part.strip()
    if not label or not set(label) <= _LABEL_CHARS:
        raise ParseError(f"invalid ray label {label_part.strip()!r}", line=lineno, column=1)
    pieces = coord_part.split(",")
    coords = []
    cursor = len(label_part) + 1
    for piece in pieces:
        stripped = piece.strip()
        column = cursor + piece.index(stripped) + 1 if stripped else cursor + 1
        try:
            coords.append(parse_scalar(stripped, field_kind))
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno, column=column) from None
        cursor += len(piece) + 1
    if len(coords) != dim:
        raise ValidationError(
            f"ray {label!r} has {len(coords)} coordinates, expected {dim} (line {lineno})"
        )
    vector = ExactVector(tuple(coords))
    if vector.is_zero:
        raise ValidationError(f"ray {label!r} is the zero vector (line {lineno})")
    return label, vector


# ---------------------------------------------------------------------------
# ray masks, the packed null test and context enumeration
# ---------------------------------------------------------------------------

# the bytes 0 and 1 as the characters "0" and "1", and back
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> bytes:
    """The bits of ``mask`` >= 0, lowest first, as the bytes 0 and 1, up to its highest set bit (``b"\\0"`` for 0)."""
    return bin(mask)[:1:-1].encode().translate(_BIT_VALUES)


def _mask(flags: bytes) -> int:
    """The mask with bit i set iff ``flags[i]`` is 1, for bytes 0 and 1: the inverse of :func:`_bits`."""
    return int(flags[::-1].translate(_BIT_CHARS) or b"0", 2)


def _rays(mask: int) -> tuple[int, ...]:
    """The set bits of a ray mask, ascending."""
    return tuple(compress(count(), _bits(mask)))


def _packed_rays(scenario: Scenario, row_bytes: int) -> tuple[int, int, list[tuple[int, int]], tuple[int, ...]]:
    """:func:`_packing` of the scenario's rays and their integer norms, built on first use and kept on the scenario,
    one packing per ``row_bytes``, so one per width."""
    packing = scenario._packings.get(row_bytes)
    if packing is None:
        vectors = [ray.vector for ray in scenario.rays]
        packing = _packing([v.integer_form for v in vectors], scenario.dim, row_bytes)
        packing = scenario._packings[row_bytes] = (*packing, tuple(v.integer_norm for v in vectors))
    return packing


def _packing(forms, dim: int, row_bytes: int) -> tuple[int, int, list[tuple[int, int]]]:
    """``(width, ones, columns)``: the integer forms ``forms`` packed for rows whose parts fit in ``row_bytes`` bytes.

    ``columns[j]`` holds the re and im parts of coordinate j of every
    ray's integer form, ray k's in the ``width``-bit slot k, as signed
    sums ``sum_k x_k << k * width``; ``ones`` has bit 0 of every slot set.
    ``width`` is ``row_bytes`` bytes more than the rays need, so that a
    row's product with any ray has parts below ``2 ** (width - 2)`` in
    absolute value.
    """
    ray_bits = max((abs(x) for z in forms for part in z for x in part), default=0).bit_length()
    # each part of sum_j a_j z_j is below 2d * 2 ** (row_bits + ray_bits) in absolute value
    width = 8 * (row_bytes + -(-(ray_bits + dim.bit_length() + 3) // 8))
    columns = [tuple(sum(z[j][part] << k * width for k, z in enumerate(forms)) for part in (0, 1)) for j in range(dim)]
    ones = sum(1 << k * width for k in range(len(forms)))
    return width, ones, columns


def _row_bytes(rows) -> int:
    """The bytes that the largest part of the Gaussian-integer rows ``rows`` needs."""
    return -(-max(abs(x) for row in rows for z in row for x in z).bit_length() // 8)


def _born_pass(scenario: Scenario, rows, row_bytes: int) -> tuple[int, list[tuple[int, int]], tuple]:
    """:func:`_pass` of the rows, whose parts fit in ``row_bytes`` bytes, over the scenario's kept packing for that
    byte length, and that packing."""
    packing = _packed_rays(scenario, row_bytes)
    return (*_pass(packing, len(scenario.rays), rows), packing)


def _pass(packing, n: int, rows) -> tuple[int, list[tuple[int, int]]]:
    """``(null, products)``: the mask of the ``n`` packed rays z with ``M z = 0`` for the Gaussian-integer rows ``M``,
    and each row's packed product with every ray, ``(re, im)``.

    Each row of ``M`` meets every ray in ``2d`` multiplies of its parts by
    the packed coordinates of :func:`_packing` (``4d`` for a row with
    imaginary parts).  A bias of ``2 ** (width - 2)`` in every slot keeps
    each slot's product in its own ``width`` bits, so slot k, less the bias,
    is ray k's product.  Exclusive-or with the bias leaves a slot zero iff
    its product is, and adding ``2 ** (width - 1) - 1`` to each slot then
    carries into its top bit iff it is not.  The slots' low bytes, one per
    ray, are then the flags that :func:`_mask` reads.
    """
    width, ones, columns = packing[:3]
    bias = ones << width - 2
    nonzero, products = 0, []
    for row in rows:
        re = im = bias
        for (a, b), (zr, zi) in zip(row, columns):
            if a:
                re += a * zr
                im += a * zi
            if b:
                re -= b * zi
                im += b * zr
        nonzero |= re ^ bias | im ^ bias
        products.append((re, im))
    null = ones ^ (nonzero + (bias << 1) - ones) >> width - 1 & ones
    step = width // 8
    return _mask(null.to_bytes(n * step, "little")[::step]), products


def _hermitian_pass(scenario: Scenario, width: int, nums) -> int:
    """``<z|N|z>`` of every ray z in the ``2 * width``-bit slot of its index, for the PSD Gaussian-integer numerators
    ``nums`` of a density ``N / den`` whose rows :func:`_pass` packed at ``width``: ``sum_{i<=j} Re(N_ij P_ij)`` over
    the kept pair packings ``P_ij`` of ``conj(z_i) z_j``, doubled for i < j.  Each slot is in ``[0, den ||z||^2]``, as
    ``tr N = den``: none borrows, and none overflows when the width was made for rows of ``den``'s bytes."""
    pairs = scenario._packings.get(("pairs", width))
    if pairs is None:
        d, w, forms = scenario.dim, 2 * width, [ray.vector.integer_form for ray in scenario.rays]
        pairs = scenario._packings["pairs", width] = []
        for i, j in combinations_with_replacement(range(d), 2):
            c, re, im = 1 + (i < j), 0, 0
            for k, z in enumerate(forms):
                (a, b), (x, y) = z[i], z[j]
                re += c * (a * x + b * y) << k * w
                im += c * (a * y - b * x) << k * w
            pairs.append((i * d + j, re, im))
    form = 0
    for ij, re, im in pairs:
        p, q = nums[ij]
        form += p * re - q * im if q else p * re
    return form


def _edges(rays: list[Ray], dim: int) -> frozenset[tuple[int, int]]:
    """The orthogonal pairs ``(i, j)``, ``i < j``: one :func:`_pass` per ray, with its conjugate as the one row,
    over a packing of the rays made for rows of their own byte length."""
    forms = [ray.vector.integer_form for ray in rays]
    packing = _packing(forms, dim, _row_bytes(forms))
    edges = []
    for i, z in enumerate(forms):
        later = _pass(packing, len(forms), [[(a, -b) for a, b in z]])[0] >> i + 1
        edges += [(i, i + 1 + j) for j in _rays(later)]
    return frozenset(edges)


def enumerate_contexts(scenario: Scenario) -> tuple[Context, ...]:
    """All maximal cliques of the exclusivity graph, as Context records, sorted by member tuples.

    The scenario's constructor finds them, by Bron-Kerbosch with pivoting
    on the ``neighbours`` masks, so the order is independent of the search
    path; this returns ``scenario.contexts``.
    """
    return scenario.contexts


def _basis_contexts(contexts: tuple[Context, ...]) -> tuple[Context, ...]:
    return tuple(c for c in contexts if c.kind is ContextKind.BASIS)


def _contexts(dim: int, rays: tuple[Ray, ...], neighbours: tuple[int, ...]) -> tuple[Context, ...]:
    cliques: list[int] = []
    _bron_kerbosch(neighbours, 0, (1 << len(rays)) - 1, 0, cliques)
    contexts = []
    for members in sorted(map(_rays, cliques)):
        if len(members) > dim:
            raise AssertionError("orthogonal clique larger than the dimension")
        complement = tuple(nullspace([rays[i].vector for i in members], dim=dim))
        kind = ContextKind.BASIS if len(members) == dim else ContextKind.DEFICIENT
        contexts.append(Context(members=members, kind=kind, complement=complement))
    return tuple(contexts)


def _bron_kerbosch(neighbours: tuple[int, ...], r: int, p: int, x: int, out: list[int]):
    """Each maximal clique that contains ``r``, draws from ``p`` and avoids ``x``, all ray masks."""
    if not p and not x:
        out.append(r)
        return
    pivot = max(_rays(p | x), key=lambda u: (p & neighbours[u]).bit_count())
    candidates = p & ~neighbours[pivot]
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        joined = neighbours[bit.bit_length() - 1]
        _bron_kerbosch(neighbours, r | bit, p & joined, x & joined, out)
        p ^= bit
        x |= bit


class ComplementCheck(_Record):
    """Result of :func:`check_distinct_complements`."""

    __slots__ = _fields = ("ok", "collisions")


def check_distinct_complements(scenario: Scenario) -> ComplementCheck:
    """Whether all two-member contexts have pairwise distinct complements.

    Only meaningful in dimension 3, where each two-member context has a
    one-dimensional complement; a collision means two different pair
    contexts determine the same completing ray, which breaks the usual
    argument that a 0/1 assignment extends to unique observable outcomes.
    """
    if scenario.dim != 3:
        raise ValidationError("complement distinctness check requires dimension 3")
    pairs = [
        c
        for c in scenario.contexts
        if c.kind is ContextKind.DEFICIENT and len(c.members) == 2
    ]
    collisions = [(a, b) for a, b in combinations(pairs, 2) if a.complement[0] == b.complement[0]]
    return ComplementCheck(ok=not collisions, collisions=tuple(collisions))
