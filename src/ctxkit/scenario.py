"""Quantum scenarios: ray sets, exclusivity graphs and context enumeration.

A scenario is a finite set of non-zero vectors ("rays"), no two of which
are scalar multiples of each other.  Its exclusivity graph joins exactly
the orthogonal pairs; a *context* is a maximal pairwise-orthogonal subset,
i.e. a maximal clique of that graph.  A context of full dimension is an
orthogonal basis (kind ``BASIS``); smaller ones are ``DEFICIENT`` and carry
an exact basis of their orthogonal complement.

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

from .errors import ParseError, UnknownLabelError, ValidationError
from .exact import ExactVector, _Record, canonical_ray, nullspace, orthogonal, parse_scalar

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
    """A named vector set with its exclusivity graph.

    ``contexts`` is ``None`` until :func:`enumerate_contexts` fills it;
    after that the object is treated as immutable.  The only record that
    can change, so it has no hash.
    """

    __slots__ = _fields = ("name", "dim", "field", "rays", "edges", "contexts", "_adjacency")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        name: str,
        dim: int,
        field: str,
        rays: tuple[Ray, ...],
        edges: frozenset[tuple[int, int]],
        contexts: tuple[Context, ...] | None = None,
        _adjacency: tuple[frozenset[int], ...] = (),
    ):
        self.name = name
        self.dim = dim
        self.field = field
        self.rays = rays
        self.edges = edges
        self.contexts = contexts
        if not _adjacency:
            adj = [set() for _ in rays]
            for i, j in edges:
                adj[i].add(j)
                adj[j].add(i)
            _adjacency = tuple(frozenset(a) for a in adj)
        self._adjacency = _adjacency

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

    def adjacent(self, i: int, j: int) -> bool:
        return j in self._adjacency[i]

    def neighbors(self, i: int) -> frozenset[int]:
        return self._adjacency[i]

    def require_contexts(self) -> tuple[Context, ...]:
        if self.contexts is None:
            enumerate_contexts(self)
        assert self.contexts is not None
        return self.contexts

    def basis_contexts(self) -> tuple[Context, ...]:
        return tuple(c for c in self.require_contexts() if c.kind is ContextKind.BASIS)


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
            raise ValidationError(
                f"ray {label!r} (line {lineno}) is a scalar multiple of ray {seen_rays[canon]!r}"
            )
        seen_labels[label] = lineno
        seen_rays[canon] = label
        rays.append(Ray(label, canon))
    if header is None:
        raise ParseError(f"no header line found in {source}")
    name, dim, field_kind = header
    if not rays:
        raise ValidationError(f"scenario {name!r} declares no rays")
    edges = frozenset(
        (i, j)
        for i in range(len(rays))
        for j in range(i + 1, len(rays))
        if orthogonal(rays[i].vector, rays[j].vector)
    )
    return Scenario(name=name, dim=dim, field=field_kind, rays=tuple(rays), edges=edges)


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
# context enumeration
# ---------------------------------------------------------------------------

def enumerate_contexts(scenario: Scenario) -> tuple[Context, ...]:
    """All maximal cliques of the exclusivity graph, as Context records.

    Uses Bron-Kerbosch with pivoting; output is sorted by member tuples, so
    the order is independent of the search path.  Results are cached on the
    scenario, which is immutable afterwards.
    """
    if scenario.contexts is not None:
        return scenario.contexts
    cliques: list[tuple[int, ...]] = []
    _bron_kerbosch(scenario, set(), set(range(len(scenario.rays))), set(), cliques)
    cliques.sort()
    contexts = []
    for members in cliques:
        if len(members) > scenario.dim:
            raise AssertionError("orthogonal clique larger than the dimension")
        vectors = [scenario.rays[i].vector for i in members]
        complement = tuple(nullspace(vectors, dim=scenario.dim))
        kind = ContextKind.BASIS if len(members) == scenario.dim else ContextKind.DEFICIENT
        contexts.append(Context(members=members, kind=kind, complement=complement))
    scenario.contexts = tuple(contexts)
    return scenario.contexts


def _bron_kerbosch(scenario: Scenario, r: set[int], p: set[int], x: set[int], out: list[tuple[int, ...]]):
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    pivot = max(sorted(p | x), key=lambda u: len(p & scenario.neighbors(u)))
    for v in sorted(p - scenario.neighbors(pivot)):
        _bron_kerbosch(
            scenario,
            r | {v},
            p & scenario.neighbors(v),
            x & scenario.neighbors(v),
            out,
        )
        p.remove(v)
        x.add(v)


def basis_membership(scenario: Scenario) -> tuple[int, ...]:
    """Number of basis contexts each ray belongs to, indexed by ray position."""
    counts = [0] * len(scenario.rays)
    for c in scenario.basis_contexts():
        for i in c.members:
            counts[i] += 1
    return tuple(counts)


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
        for c in scenario.require_contexts()
        if c.kind is ContextKind.DEFICIENT and len(c.members) == 2
    ]
    collisions = []
    for a_idx in range(len(pairs)):
        for b_idx in range(a_idx + 1, len(pairs)):
            a, b = pairs[a_idx], pairs[b_idx]
            if a.complement[0] == b.complement[0]:
                collisions.append((a, b))
    return ComplementCheck(ok=not collisions, collisions=tuple(collisions))
