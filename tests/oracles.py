"""Slow, obvious reference implementations the fast paths are tested against.

``inner_product``, ``add_vectors``, ``sub_vectors``, ``scale_vector`` and
``conjugate_vector`` are vector arithmetic on ``ExactVector.coords`` with
``ExactScalar`` arithmetic: the Fraction side of every orthogonality,
overlap and subspace test, and the generators' way to rescale and combine
vectors.  The package has no vector arithmetic; it decides on integer
forms.

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

``verify_assignment`` checks conditions (O) and (C) of one labelling
directly, and ``enumerate_assignments_by_basis_choices`` lists the
KS-assignments as one ray per basis times every independent set of the
rays outside all bases: the two checks the basis-first search is held to.

``maximal_cliques`` lists every clique of pairwise-orthogonal rays and
keeps those that no ray extends, where the package runs Bron-Kerbosch on
its neighbour masks.

``born_model`` computes the possibilistic model afresh from the Born
probabilities on every call, where the package keeps it on the state.
``integer_model`` is the per-ray integer model the packed Born pass
replaced: one ``orthogonal`` call per ray for a pure state, and for a
density ``rho`` one ``_dot`` of each numerator row with each ray's
integer form.
The global-event oracles test events as bit tuples, support tuples and
Python sets, where the package reads the columns over the core events;
``events_containing`` scans every event for a ray, where the package
walks the events of the core events in the ray's column as masks
(``GlobalEvents.held``), which the tests sort; ``mask_labels`` names the
rays of such a mask.
``hitting_set_of_masks`` is no oracle: it hands the package's
``_minimum_hitting_set`` the zero rays' columns (``compatible``) over one
event per zero mask, for the tests that state hitting sets as plain masks.

``full_events`` is the full-event path that the core events replaced:
``GlobalEvents(n, masks, 0, ())`` of every event's mask, each its own
core event, so that the package's verdict, oracle, derivation and replay
run on columns and packed masks over every KS-assignment.  ``shift_replay`` is the replay
that the OR-fold, then the test per zero set and then the test per
paradox on the core events replaced: per paradox, one shift of the
packed masks of every event marks the events that hold the witness,
against one word per zero set of the events that meet it.

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
was declared as, from the field list in ``RECORD_FIELDS``: frozen, with
the same defaults and compare/repr flags, so that the
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
from ctxkit.exact import (
    ONE,
    ExactMatrix,
    ExactScalar,
    ExactVector,
    _dot,
    canonical_ray,
    orthogonal,
)
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

ZERO = ExactScalar(0)


# ---------------------------------------------------------------------------
# vector arithmetic on ExactScalar coordinates
# ---------------------------------------------------------------------------

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


def add_vectors(u: ExactVector, v: ExactVector) -> ExactVector:
    _require_same_dim(u, v)
    return ExactVector(tuple(a + b for a, b in zip(u.coords, v.coords)))


def sub_vectors(u: ExactVector, v: ExactVector) -> ExactVector:
    _require_same_dim(u, v)
    return ExactVector(tuple(a - b for a, b in zip(u.coords, v.coords)))


def scale_vector(v: ExactVector, factor: ExactScalar | int | Fraction) -> ExactVector:
    f = ExactScalar.coerce(factor)
    return ExactVector(tuple(f * c for c in v.coords))


def conjugate_vector(v: ExactVector) -> ExactVector:
    return ExactVector(tuple(c.conjugate() for c in v.coords))


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
            residual = sub_vectors(residual, scale_vector(u, coef))
        if residual.is_zero:
            raise LinearDependenceError(f"vector {v} is linearly dependent on its predecessors")
        out.append(canonical_ray(residual))
    return out


# ---------------------------------------------------------------------------
# KS-assignments by conditions (O) and (C), and by basis choices
# ---------------------------------------------------------------------------

def verify_assignment(scenario: Scenario, assignment: KSAssignment) -> bool:
    """Check conditions (O) and (C) directly; the acceptance oracle."""
    bits = assignment.bits
    if len(bits) != len(scenario.rays):
        raise ValidationError("assignment must cover every ray")
    for i, j in scenario.edges:
        if bits[i] and bits[j]:
            return False
    for context in scenario.basis_contexts():
        if sum(bits[i] for i in context.members) != 1:
            return False
    return True


def enumerate_assignments_by_basis_choices(scenario: Scenario) -> list[KSAssignment]:
    """Independent enumerator built from per-basis choices; cross-check oracle.

    Exhaustive over the product of basis contexts, then over independent
    sets of the residual subgraph of rays outside every basis.  Both are
    grown one basis or one ray at a time, and a partial choice is dropped
    as soon as two of its rays are orthogonal, so that the work follows the
    events rather than the product; intended for small scenarios only.
    """
    n = len(scenario.rays)
    bases = [c.members for c in scenario.basis_contexts()]
    in_basis = set(i for members in bases for i in members)
    outside = [i for i in range(n) if i not in in_basis]

    def independent(rays: frozenset[int]) -> bool:
        return not any((i, j) in scenario.edges for i in rays for j in rays if j > i)

    # one pick per basis: a second pick in a basis is orthogonal to the first, so independence is "exactly one"
    base_sets = {frozenset()}
    for members in bases:
        base_sets = {s | {i} for s in base_sets for i in members if independent(s | {i})}
    residual_sets = [frozenset()]
    for i in outside:
        residual_sets += [s | {i} for s in residual_sets if independent(s | {i})]
    supports = {s | extra for s in base_sets for extra in residual_sets if independent(s | extra)}

    found = [
        KSAssignment(tuple(1 if i in s else 0 for i in range(n)))
        for s in supports
    ]
    found.sort(key=lambda a: a.support)
    return found


def maximal_cliques(scenario: Scenario) -> list[tuple[int, ...]]:
    """The maximal pairwise-orthogonal ray sets, sorted: every clique, grown in index order, that no ray extends."""
    n = len(scenario.rays)
    vectors = [ray.vector for ray in scenario.rays]
    joined = {(i, j) for i in range(n) for j in range(n) if i != j and inner_product(vectors[i], vectors[j]).is_zero}
    cliques, frontier = [], [()]
    while frontier:
        clique = frontier.pop()
        cliques.append(clique)
        start = clique[-1] + 1 if clique else 0
        frontier += [clique + (j,) for j in range(start, n) if all((i, j) in joined for i in clique)]
    return sorted(
        c for c in cliques if c and not any(all((i, j) in joined for i in c) for j in range(n) if j not in c)
    )


# ---------------------------------------------------------------------------
# global-event tests on bit tuples and sets
# ---------------------------------------------------------------------------

def events_containing(scenario, assignments, ray) -> list[KSAssignment]:
    """The assignments whose support holds ``ray`` (an index or a label), by a scan of every event."""
    bit = 1 << scenario.ray_index(ray)
    return [a for a in assignments if a.mask & bit]


def support_labels(scenario, assignment) -> tuple[str, ...]:
    return tuple(scenario.rays[i].label for i in assignment.support)


def mask_labels(scenario, mask: int) -> tuple[str, ...]:
    """The labels of the rays whose bits ``mask`` sets, in ray order."""
    return tuple(ray.label for i, ray in enumerate(scenario.rays) if mask >> i & 1)


def born_model(scenario, state) -> PossibilisticModel:
    """1 for each ray of non-zero Born probability under ``state``, else 0."""
    return PossibilisticModel(tuple(1 if state.probability(r.vector) != 0 else 0 for r in scenario.rays))


def integer_model(scenario, state) -> PossibilisticModel:
    """The model ray by ray: orthogonality to ``psi``, or a non-zero row product with ``rho``'s numerators."""
    if state.psi is not None:
        return PossibilisticModel(tuple(0 if orthogonal(r.vector, state.psi) else 1 for r in scenario.rays))
    d = state.dim
    rows = [state.rho.nums[i * d : (i + 1) * d] for i in range(d)]
    return PossibilisticModel(
        tuple(int(any(_dot(row, r.vector.integer_form) != (0, 0) for row in rows)) for r in scenario.rays)
    )


def blocked_witnesses(model, assignments):
    """``(k, events, hits)`` per blocked witness, ``hits[j]`` listing the impossible rays of ``events[j]``."""
    for k in [k for k, value in enumerate(model.values) if value == 1]:
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
    for k, _, _ in blocked_witnesses(model, assignments):
        return ContextualityVerdict(contextual=True, witness=k, model=model)
    return ContextualityVerdict(contextual=False, witness=None, model=model)


def witness_blockers(scenario, state, assignments) -> tuple:
    """``(event, blocker)`` for each event of the first blocked witness, the blocker its first impossible ray."""
    for _, events, hits in blocked_witnesses(born_model(scenario, state), assignments):
        return tuple((event, blocked[0]) for event, blocked in zip(events, hits))
    return ()


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
    """``_minimum_hitting_set`` on one event per zero mask, each also holding the witness ray ``width``:
    rays 0 .. width - 1 are the zero rays, each given with its column."""
    columns = GlobalEvents(width + 1, [mask | 1 << width for mask in masks], 0, ()).compatible
    return _minimum_hitting_set(list(enumerate(columns[:width])), columns[width])


def replay_contradiction(assignments, paradox) -> bool:
    if paradox.sp <= 0:
        return False
    zero = set(paradox.zero_set)
    witness_events = [a for a in assignments if a.bits[paradox.witness] == 1]
    if not witness_events:
        return False
    return all(zero.intersection(a.support) for a in witness_events)


def full_events(events: GlobalEvents) -> GlobalEvents:
    """Every event's mask as a core event, with ``free = 0``: the verdict, the oracle, the derivation and the
    replay then read columns and packed masks over every KS-assignment."""
    return GlobalEvents(events.n, [a.mask for a in events], 0, ())


def shift_replay(events: GlobalEvents, paradoxes) -> list[bool]:
    """One result per paradox: ``rows >> witness & ones`` marks the events that hold the witness,
    and adding 2^n - 1 to each slot's zero-set bits carries into its bit n iff the event meets the zero set."""
    (rows, ones), n = full_events(events).rows, events.n
    full = (1 << n) - 1
    met: dict[int, int] = {}
    replays = []
    for paradox in paradoxes:
        if paradox.sp <= 0 or paradox.witness >= n:
            replays.append(False)
            continue
        zeros = sum(1 << i for i in paradox.zero_set) & full
        if zeros not in met:
            met[zeros] = ((rows & zeros * ones) + ones * full) >> n
        held = rows >> paradox.witness & ones
        replays.append(held != 0 and held & met[zeros] == held)
    return replays


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
    Scenario: ("name", "dim", "field", "rays", "edges", ("neighbours", _HIDDEN), ("contexts", _HIDDEN)),
    ComplementCheck: ("ok", "collisions"),
    KSAssignment: ("bits", ("mask", _HIDDEN)),
    QuantumState: ("dim", "rho", ("psi", {"default": None}), ("_rows", _HIDDEN), ("_row_bytes", _HIDDEN), ("_model", _HIDDEN)),
    PossibilisticModel: ("values", ("zeros", _HIDDEN)),
    ContextualityVerdict: ("contextual", "witness", "model"),
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
    """The record as a frozen dataclass of the same name and fields.

    A ``__repr__`` or ``__str__`` the record defines itself is copied into
    the twin, which ``dataclasses`` then keeps.
    """
    specs = [f if isinstance(f, str) else (f[0], object, field(**f[1])) for f in RECORD_FIELDS[record]]
    namespace = {name: value for name, value in vars(record).items() if name in ("__repr__", "__str__")}
    return make_dataclass(record.__name__, specs, namespace=namespace, frozen=True)
