"""Slow, obvious reference implementations the fast paths are tested against.

``rank`` and ``nullspace`` are exact Gauss-Jordan elimination over
``ExactScalar`` entries, with ``Fraction`` keeping every intermediate in
lowest terms.  They take the same arguments as :func:`ctxkit.exact.rank`
and :func:`ctxkit.exact.nullspace`, so tests can patch them in.

The matrix oracles work entry by entry on ``ExactMatrix.entries`` with
``ExactScalar`` arithmetic and return plain row lists (``list[list[ExactScalar]]``)
or scalars, never an ``ExactMatrix`` built by the code under test.
``validate_density`` expands every principal minor by cofactors,
``gram_schmidt`` subtracts ``Fraction`` projections and ``expectation`` is
``<v|rho v> / ||v||^2`` through the entrywise product.

``born_model`` computes the possibilistic model afresh from the Born
probabilities on every call, where the package keeps it on the state.
The global-event oracles test events as bit tuples, support tuples and
Python sets, where the package reads the ``GlobalEvents.by_ray`` columns.
``hitting_set_of_masks`` is no oracle: it hands the package's
``_minimum_hitting_set`` one event per zero mask, for the tests that state
hitting sets as plain masks.

``selection_search`` is the pure-state search the flat scan replaced: it
solves the orthogonality system of every pick of one non-witness ray per
global event of each ray, a product that grows exponentially with the
events.  ``hyperplane_states`` is the plainest complete answer: the
normal of every ``d - 1`` rays that span a hyperplane, kept when the
verdict calls it logically contextual.

``ReferenceXoshiro`` steps xoshiro256** one word per call through a
rotate helper, and ``sampled_counts`` draws one double per shot and
bisects the float cumulatives, capping the index at the last outcome:
the sampler the word-threshold lanes replaced.  ``xoshiro_charpoly``
finds the characteristic polynomial of the state update afresh, by
Berlekamp-Massey over 512 successive values of one state bit.

``dataclass_twin`` rebuilds a value record as the ``dataclasses`` class it
was declared as, from the field list in ``RECORD_FIELDS``: frozen (but
``Scenario``), with the same defaults and compare/repr flags, so that the
records' own ``==``, ``hash``, ``repr``, constructors and immutability can
be compared with what ``dataclasses`` generates.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import field, make_dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from ctxkit.assignments import GlobalEvents, KSAssignment
from ctxkit.contextuality import (
    ContextualityVerdict,
    MixedAnalysisReport,
    PossibilisticModel,
    PureStateSearch,
    QuantumState,
    TripleAnalysis,
    UndeterminedFamily,
    WitnessedState,
    _minimum_hitting_set,
)
from ctxkit.errors import (
    DimensionMismatchError,
    InvalidDensityError,
    LinearDependenceError,
    ValidationError,
)
from ctxkit.exact import ONE, ZERO, ExactMatrix, ExactScalar, ExactVector, canonical_ray, inner_product
from ctxkit.hardy import (
    HardyParadox,
    ObservableVerification,
    ParadoxDerivation,
    ReferenceCrossCheck,
    ReferenceRow,
    RowCrossCheck,
    WitnessObservable,
)
from ctxkit.sampling import SimulationResult, _splitmix64
from ctxkit.scenario import ComplementCheck, Context, Ray, Scenario


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


def rank(rows: Sequence[ExactVector], dim: int | None = None) -> int:
    return len(_rref(_constraint_matrix(rows)))


def nullspace(rows: Sequence[ExactVector], dim: int | None = None) -> list[ExactVector]:
    d = rows[0].dim if rows else dim
    m = _constraint_matrix(rows)
    pivots = _rref(m)
    basis = []
    for fc in (c for c in range(d) if c not in pivots):
        coords = [ZERO] * d
        coords[fc] = ONE
        for i, pc in enumerate(pivots):
            coords[pc] = -m[i][fc]
        basis.append(canonical_ray(ExactVector(tuple(coords))))
    return basis


# ---------------------------------------------------------------------------
# entrywise matrix algebra
# ---------------------------------------------------------------------------

def rows_of(m: ExactMatrix) -> list[list[ExactScalar]]:
    return [[m.entries[i * m.cols + j] for j in range(m.cols)] for i in range(m.rows)]


def matmul(a: ExactMatrix, b: ExactMatrix) -> list[list[ExactScalar]]:
    x, y = rows_of(a), rows_of(b)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                acc = acc + x[i][k] * y[k][j]
            row.append(acc)
        out.append(row)
    return out


def add(a: ExactMatrix, b: ExactMatrix) -> list[list[ExactScalar]]:
    return [[p + q for p, q in zip(r, s)] for r, s in zip(rows_of(a), rows_of(b))]


def sub(a: ExactMatrix, b: ExactMatrix) -> list[list[ExactScalar]]:
    return [[p - q for p, q in zip(r, s)] for r, s in zip(rows_of(a), rows_of(b))]


def scale(m: ExactMatrix, factor: ExactScalar) -> list[list[ExactScalar]]:
    return [[factor * e for e in row] for row in rows_of(m)]


def trace(m: ExactMatrix) -> ExactScalar:
    return sum((m.entries[i * m.cols + i] for i in range(m.rows)), ZERO)


def dagger(m: ExactMatrix) -> list[list[ExactScalar]]:
    x = rows_of(m)
    return [[x[i][j].conjugate() for i in range(m.rows)] for j in range(m.cols)]


def apply(m: ExactMatrix, v: ExactVector) -> ExactVector:
    return ExactVector(tuple(sum((e * c for e, c in zip(row, v.coords)), ZERO) for row in rows_of(m)))


def norm_sq(v: ExactVector) -> Fraction:
    return sum((c.abs2() for c in v.coords), Fraction(0))


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
    """Hermitian, unit trace, every principal minor (by cofactors) non-negative."""
    if rho.rows != rho.cols:
        raise InvalidDensityError("density matrix must be square")
    if dagger(rho) != rows_of(rho):
        raise InvalidDensityError("density matrix must be Hermitian")
    if trace(rho) != ONE:
        raise InvalidDensityError(f"density matrix must have trace 1, got {trace(rho)}")
    n = rho.rows
    x = rows_of(rho)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        minor = _det([[x[i][j] for j in idx] for i in idx])
        if minor.im != 0:
            raise InvalidDensityError("principal minor of a Hermitian matrix must be real")
        if minor.re < 0:
            raise InvalidDensityError(f"principal minor {idx} is negative: matrix is not PSD")


def expectation(rho: ExactMatrix, v: ExactVector) -> Fraction:
    if rho.cols != v.dim:
        raise DimensionMismatchError("matrix and vector dimensions do not match")
    if v.is_zero:
        raise ValidationError("events must be non-zero vectors")
    return inner_product(v, apply(rho, v)).as_fraction() / norm_sq(v)


def gram_schmidt(ordered: Sequence[ExactVector]) -> list[ExactVector]:
    out: list[ExactVector] = []
    for v in ordered:
        residual = v
        for u in out:
            coef = inner_product(u, residual) / ExactScalar(norm_sq(u))
            residual = residual - u.scale(coef)
        if residual.is_zero:
            raise LinearDependenceError(f"vector {v} is linearly dependent on its predecessors")
        out.append(canonical_ray(residual))
    return out


# ---------------------------------------------------------------------------
# global-event tests on bit tuples and sets
# ---------------------------------------------------------------------------

def born_model(scenario, state) -> PossibilisticModel:
    """1 for each ray of non-zero Born probability under ``state``, else 0."""
    return PossibilisticModel(tuple(1 if state.probability(r.vector) != 0 else 0 for r in scenario.rays))


def blocked_witnesses(model, assignments):
    """``(k, events, hits)`` per blocked witness, ``hits[j]`` listing the impossible rays of ``events[j]``."""
    for k in model.possible():
        events = [a for a in assignments if a.bits[k] == 1]
        hits = []
        for event in events:
            blocked = [i for i in event.support if i != k and model.values[i] == 0]
            if not blocked:
                break
            hits.append(blocked)
        else:
            if events:
                yield k, events, hits


def is_logically_contextual(scenario, state, assignments) -> ContextualityVerdict:
    model = born_model(scenario, state)
    for k, events, hits in blocked_witnesses(model, assignments):
        blockers = tuple((event, blocked[0]) for event, blocked in zip(events, hits))
        return ContextualityVerdict(contextual=True, witness=k, blockers=blockers, model=model)
    return ContextualityVerdict(contextual=False, witness=None, blockers=(), model=model)


def noncontextuality_oracle(scenario, state, assignments) -> bool:
    model = born_model(scenario, state)
    weight = {a: 1 if all(model.values[i] == 1 for i in a.support) else 0 for a in assignments}
    if not any(weight.values()):
        return False
    for i in range(len(scenario.rays)):
        marginal = 1 if any(weight[a] for a in assignments if a.bits[i] == 1) else 0
        if marginal != model.values[i]:
            return False
    return True


def minimum_hitting_set(hit_lists: list[list[int]]) -> tuple[int, ...]:
    universe = sorted({i for hits in hit_lists for i in hits})
    for size in range(1, len(universe) + 1):
        for candidate in combinations(universe, size):
            chosen = set(candidate)
            if all(chosen.intersection(hits) for hits in hit_lists):
                return candidate
    raise AssertionError("hitting-set search called with an un-hittable event")


def hitting_set_of_masks(masks: list[int], width: int = 10) -> tuple[int, ...]:
    """``_minimum_hitting_set`` on one event per zero mask, each also holding the witness ray ``width``."""
    events = GlobalEvents(KSAssignment([mask >> i & 1 for i in range(width)] + [1]) for mask in masks)
    return _minimum_hitting_set(events, events.by_ray[width] if events else 0, (1 << width) - 1)


def replay_contradiction(assignments, paradox) -> bool:
    if paradox.sp <= 0:
        return False
    zero = set(paradox.zero_set)
    witness_events = [a for a in assignments if a.bits[paradox.witness] == 1]
    if not witness_events:
        return False
    return all(zero.intersection(a.support) for a in witness_events)


def derive_paradoxes(scenario, state, assignments) -> list[tuple[int, tuple[int, ...], Fraction]]:
    """``(witness, zero_set, sp)`` of each paradox, each checked by :func:`replay_contradiction`."""
    out = []
    for k, _, hits in blocked_witnesses(born_model(scenario, state), assignments):
        paradox = HardyParadox(state, k, minimum_hitting_set(hits), state.probability(scenario.rays[k].vector))
        assert replay_contradiction(assignments, paradox)
        out.append((paradox.witness, paradox.zero_set, paradox.sp))
    return out


# ---------------------------------------------------------------------------
# contextual pure states by zero selections and by (d - 1)-subsets
# ---------------------------------------------------------------------------

def selection_count(scenario, assignments) -> int:
    """How many picks :func:`selection_search` walks."""
    return sum(
        math.prod(len(a.support) - 1 for a in assignments if a.bits[k] == 1)
        for k in range(len(scenario.rays))
        if any(a.bits[k] == 1 for a in assignments)
    )


def selection_search(scenario, assignments):
    """``(states, undetermined)`` as ``(witness, state, selection)`` and ``(witness, selection, nullity)``.

    A selection (the set of one pick per global event of the witness) with
    a 1-dimensional solution not orthogonal to the witness gives a state,
    kept once and re-checked by the verdict; one with a larger solution
    space is listed as undetermined.
    """
    states, undetermined, seen = [], [], set()
    for k in range(len(scenario.rays)):
        events = [a for a in assignments if a.bits[k] == 1]
        if not events:
            continue
        pick_lists = [[i for i in a.support if i != k] for a in events]
        for selection in dict.fromkeys(tuple(sorted(set(picks))) for picks in product(*pick_lists)):
            basis = nullspace([scenario.rays[i].vector for i in selection], dim=scenario.dim)
            if len(basis) >= 2:
                undetermined.append((k, selection, len(basis)))
            elif len(basis) == 1 and not inner_product(scenario.rays[k].vector, basis[0]).is_zero:
                psi = basis[0]
                if psi not in seen:
                    seen.add(psi)
                    assert is_logically_contextual(scenario, QuantumState.pure(psi), assignments)
                    states.append((k, psi, selection))
    return states, undetermined


def hyperplane_states(scenario, assignments) -> set[ExactVector]:
    normals = set()
    for rays in combinations(scenario.rays, scenario.dim - 1):
        basis = nullspace([r.vector for r in rays], dim=scenario.dim)
        if len(basis) == 1:
            normals.add(basis[0])
    return {psi for psi in normals if is_logically_contextual(scenario, QuantumState.pure(psi), assignments)}


_MASK64 = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class ReferenceXoshiro:
    """xoshiro256** 1.0 seeded through splitmix64, one output word per call."""

    def __init__(self, seed: int):
        sm, self._s = seed, []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            self._s.append(word)

    def next_uint64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53


def xoshiro_charpoly() -> int:
    """The update's characteristic polynomial, bit i the coefficient of x**i.

    Berlekamp-Massey over GF(2) finds the shortest recurrence of the low
    bit of ``s0``; its 512 values pin any recurrence of length up to 256.
    Read backwards, that recurrence divides the characteristic
    polynomial, so it is the polynomial when its length is 256.
    """
    rng = ReferenceXoshiro(1)
    bits = []
    for _ in range(512):
        bits.append(rng._s[0] & 1)
        rng.next_uint64()
    recurrence, previous, length, gap = 1, 1, 0, 1
    for n, bit in enumerate(bits):
        for i in range(1, length + 1):
            bit ^= recurrence >> i & bits[n - i]
        if not bit:
            gap += 1
            continue
        update = recurrence ^ previous << gap
        if 2 * length <= n:
            previous, length, gap = recurrence, n + 1 - length, 1
        else:
            gap += 1
        recurrence = update
    return int(format(recurrence, f"0{length + 1}b")[::-1], 2)


def sampled_counts(probabilities: Sequence[Fraction], shots: int, seed: int) -> tuple[int, ...]:
    """Inverse-CDF counts: each shot's double against the float cumulatives."""
    cumulative = []
    acc = Fraction(0)
    for p in probabilities:
        acc += p
        cumulative.append(float(acc))
    rng = ReferenceXoshiro(seed)
    counts = [0] * len(probabilities)
    last = len(probabilities) - 1
    for _ in range(shots):
        counts[min(bisect_right(cumulative, rng.random()), last)] += 1
    return tuple(counts)


_HIDDEN = {"init": False, "compare": False, "repr": False}

# each record's fields in constructor order, as its dataclass declared them:
# a name, or (name, keyword arguments of dataclasses.field)
RECORD_FIELDS: dict[type, tuple] = {
    ExactScalar: ("re", ("im", {"default": Fraction(0)})),
    ExactVector: ("coords",),
    ExactMatrix: ("rows", "cols", "den", "nums"),
    Ray: ("label", "vector"),
    Context: ("members", "kind", "complement"),
    Scenario: (
        "name",
        "dim",
        "field",
        "rays",
        "edges",
        ("contexts", {"default": None}),
        ("_adjacency", {"default": (), "repr": False}),
    ),
    ComplementCheck: ("ok", "collisions"),
    KSAssignment: ("bits", ("mask", _HIDDEN)),
    QuantumState: ("dim", "rho", ("psi", {"default": None}), ("_model", {"default": None, **_HIDDEN})),
    PossibilisticModel: ("values",),
    ContextualityVerdict: ("contextual", "witness", "blockers", "model"),
    WitnessedState: ("witness", "state", "selection"),
    UndeterminedFamily: ("witness", "selection", "nullity"),
    PureStateSearch: ("states", "undetermined"),
    TripleAnalysis: ("witness", "picks", "selection", "rank", "nullity"),
    MixedAnalysisReport: ("triples", "common_ray_violations", "no_mixed_states", ("triples_listed", {"default": True})),
    HardyParadox: ("state", "witness", "zero_set", "sp"),
    ParadoxDerivation: ("paradoxes", ("reason", {"default": None})),
    WitnessObservable: ("projectors", "eigenvalues", "source_order"),
    ObservableVerification: ("ok", "failures"),
    ReferenceRow: ("row", "state", "witness", "zeros", "printed"),
    RowCrossCheck: ("reference", "derived", "consistent", "failures", "matches"),
    ReferenceCrossCheck: ("rows", "errata"),
    SimulationResult: ("shots", "seed", "counts", "frequencies", "probabilities", "std_errors"),
}


def dataclass_twin(record: type) -> type:
    """The record as a dataclass of the same name and fields: frozen, but for ``Scenario``.

    A ``__repr__`` or ``__str__`` the record defines itself is copied into
    the twin, which ``dataclasses`` then keeps.
    """
    specs = [f if isinstance(f, str) else (f[0], object, field(**f[1])) for f in RECORD_FIELDS[record]]
    namespace = {name: value for name, value in vars(record).items() if name in ("__repr__", "__str__")}
    return make_dataclass(record.__name__, specs, namespace=namespace, frozen=record is not Scenario)
