"""Logical (possibilistic) contextuality of quantum states on a scenario.

The possibilistic model of a state maps each ray to 1 exactly when its
Born probability is non-zero; with exact scalars this is decidable.  A
state is *logically contextual* when no 0/1 distribution over the global
events (KS-assignments) reproduces that model as marginals.  Events and
zero sets are ray bitmasks (``KSAssignment.mask``), so every event test
is one ``&``.  :func:`possibilistic_model` keeps the model on the
``QuantumState`` object, keyed by the scenario's ray tuple, so the
verdict, the oracle and the paradox derivation of one state object on
one scenario share a single Born pass.  Two decision procedures are
implemented:

* :func:`is_logically_contextual` searches for a witness ray ``v`` that is
  possible under the state while every global event containing ``v`` also
  contains an impossible ray (a "blocker").  Witnesses whose global-event
  set is empty are excluded: the universal condition would hold vacuously,
  and such rays cannot start the contradiction the verdict certifies.
  :func:`_blocked_witnesses` finds every such witness in one pass over
  the global events, as ``reached & ~covered & ~zeros``: the rays some
  event holds, less those held by an event that misses the zero set.  It
  is shared with :func:`ctxkit.hardy.derive_paradoxes`: the verdict
  reports its first witness, the derivation makes each one a paradox.
* :func:`noncontextuality_oracle` builds the canonical candidate
  distribution (an event is possible iff it misses every impossible ray)
  and checks the marginals: the possible events exist and cover exactly
  the possible rays.  It follows the definition.

They are not equivalent: the verdict skips a possible ray that lies in no
global event, and the oracle counts it as uncovered (an open defect,
ROADMAP.md item 1).  They disagree on every state of Peres 24, which is
KS-uncolourable, and on 68 of 200 random integer states on the 32-ray
box-d3-m2 prefix.

The zero set of every state is a flat of the rays (the rays inside a
span of some of them), and it alone decides logical contextuality.  So
:func:`_blocking_flats` tests each flat of rank at most ``d - 1`` once:
:func:`find_contextual_pure_states` takes the normals of the blocking
hyperplanes and keeps the blocking flats of lower rank as undetermined
families, each the zero set of contextual mixed states, which
:func:`analyze_mixed_states` reads from the search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from .assignments import KSAssignment, events_containing
from .errors import DimensionMismatchError, ValidationError
from .exact import (
    ExactMatrix,
    ExactVector,
    _Record,
    canonical_ray,
    expectation,
    nullspace,
    orthogonal,
    overlap,
    parse_scalar,
    rank,
    rank1_projector,
    validate_density,
)
from .scenario import Scenario, basis_membership


class QuantumState(_Record):
    """A pure or mixed state of known dimension.

    Pure states are stored as canonical rays; density operators are
    validated (Hermitian, trace 1, PSD) at construction.  ``_model`` holds
    the last :func:`possibilistic_model` as ``(rays, model)`` and is unset
    before the first; it is not a field, so equality, hashing and ``repr``
    ignore it.
    """

    __slots__ = ("dim", "rho", "psi", "_model")
    _fields = ("dim", "rho", "psi")
    _defaults = {"psi": None}

    @classmethod
    def pure(cls, vector: ExactVector) -> "QuantumState":
        if vector.is_zero:
            raise ValidationError("a pure state must be a non-zero vector")
        psi = canonical_ray(vector)
        return cls(dim=psi.dim, rho=rank1_projector(psi), psi=psi)

    @classmethod
    def density(cls, matrix: ExactMatrix) -> "QuantumState":
        validate_density(matrix)
        return cls(dim=matrix.rows, rho=matrix, psi=None)

    def probability(self, v: ExactVector) -> Fraction:
        """Exact Born probability of the event ``v`` under this state."""
        if v.dim != self.dim:
            raise DimensionMismatchError("state and event dimensions differ")
        if v.is_zero:
            raise ValidationError("events must be non-zero vectors")
        if self.psi is not None:
            return overlap(v, self.psi)
        return expectation(self.rho, v)

    def describe(self) -> str:
        return str(self.psi) if self.psi is not None else "density"


def parse_state(text: str, dim: int, field: str = "gaussian") -> QuantumState:
    """Parse a pure state from a coordinate list such as ``"1,1,1"``."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise ValidationError(f"state has {len(parts)} coordinates, expected {dim}")
    return QuantumState.pure(ExactVector(tuple(parse_scalar(p, field) for p in parts)))


def parse_density(text: str, dim: int, field: str = "gaussian") -> QuantumState:
    """Parse a density matrix file: ``dim`` lines of ``dim`` literals each."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries = [parse_scalar(tok, field) for tok in line.split()]
        if len(entries) != dim:
            raise ValidationError(f"density row has {len(entries)} entries, expected {dim}")
        rows.append(entries)
    if len(rows) != dim:
        raise ValidationError(f"density matrix has {len(rows)} rows, expected {dim}")
    return QuantumState.density(ExactMatrix.from_rows(rows))


class PossibilisticModel(_Record):
    """The 0/1 coarse-graining of Born probabilities, index-aligned."""

    __slots__ = _fields = ("values",)

    def possible(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v == 1)

    def impossible(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v == 0)


def possibilistic_model(scenario: Scenario, state: QuantumState) -> PossibilisticModel:
    """Map each ray to 1 iff its Born probability under ``state`` is non-zero.

    For a pure state that is the ray not being orthogonal to the state.
    The rays are the model's only input, so the model is kept on the state
    with the ``scenario.rays`` tuple it was computed from and returned
    again while the same tuple (by identity) is passed: every consumer of
    one state object on one scenario shares one Born pass.
    """
    if state.dim != scenario.dim:
        raise DimensionMismatchError("state dimension does not match the scenario")
    cached = getattr(state, "_model", None)
    if cached is not None and cached[0] is scenario.rays:
        return cached[1]
    if state.psi is not None:
        values = tuple(0 if orthogonal(r.vector, state.psi) else 1 for r in scenario.rays)
    else:
        values = tuple(0 if state.probability(r.vector) == 0 else 1 for r in scenario.rays)
    model = PossibilisticModel(values)
    # holding the rays keeps their identity from being reused by another tuple
    object.__setattr__(state, "_model", (scenario.rays, model))
    return model


class ContextualityVerdict(_Record):
    """Outcome of the witness search, with one blocker per global event.

    ``model`` is the possibilistic model the verdict was decided on, kept
    so that callers need not compute it again.
    """

    __slots__ = _fields = ("contextual", "witness", "blockers", "model")

    def __bool__(self) -> bool:
        return self.contextual


def _blocked_witnesses(scenario: Scenario, assignments: list[KSAssignment], zeros: int):
    """Each ray outside the zero mask whose global events are non-empty and all meet it.

    One pass ORs every event into ``reached`` and each event that misses
    ``zeros`` into ``covered``.  For each ray ``k`` of ``reached & ~covered
    & ~zeros``, in order, yields ``(k, events, hits)``: the global events of
    ``k`` and the mask of each one's zero rays, which never holds ``k``.
    """
    reached = covered = 0
    for a in assignments:
        reached |= a.mask
        if not a.mask & zeros:
            covered |= a.mask
    for k in _rays(reached & ~covered & ~zeros):
        events = events_containing(scenario, assignments, k)
        yield k, events, [event.mask & zeros for event in events]


def is_logically_contextual(
    scenario: Scenario, state: QuantumState, assignments: list[KSAssignment]
) -> ContextualityVerdict:
    """Witness-based contextuality decision.

    The state is logically contextual iff some ray ``v`` has model value 1,
    a non-empty set of global events containing it, and every such event
    contains a different ray with model value 0.  The first witness in ray
    order is reported together with the first blocker of each event.

    A possible ray in no global event is never a witness here, although
    it makes the state contextual by definition, so this verdict can miss
    what :func:`noncontextuality_oracle` finds (see the module docstring).
    """
    model = possibilistic_model(scenario, state)
    zeros = sum(1 << i for i in model.impossible())
    for k, events, hits in _blocked_witnesses(scenario, assignments, zeros):
        blockers = tuple((event, (hit & -hit).bit_length() - 1) for event, hit in zip(events, hits))
        return ContextualityVerdict(contextual=True, witness=k, blockers=blockers, model=model)
    return ContextualityVerdict(contextual=False, witness=None, blockers=(), model=model)


def noncontextuality_oracle(
    scenario: Scenario, state: QuantumState, assignments: list[KSAssignment]
) -> bool:
    """Direct marginal check of the canonical candidate distribution.

    Assign each global event the conjunction of its members' model values
    and test that (a) some event is possible and (b) the disjunctive
    marginal over each ray's events reproduces the model.  True means the
    state is logically non-contextual.
    """
    model = possibilistic_model(scenario, state)
    zeros = sum(1 << i for i in model.impossible())
    # a flag, not ``covered != 0``: the empty event is possible and covers nothing
    some_possible, covered = False, 0
    for a in assignments:
        if not a.mask & zeros:
            some_possible, covered = True, covered | a.mask
    return some_possible and covered == sum(1 << i for i in model.possible())


# ---------------------------------------------------------------------------
# the flats of the ray arrangement
# ---------------------------------------------------------------------------

def _rays(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _minimum_hitting_set(hits: list[int]) -> tuple[int, ...]:
    """The fewest rays meeting every ray mask in ``hits``; ties go to the lexicographically first."""
    # a witness's events repeat few zero masks; each candidate is tested once per mask
    distinct = set(hits)
    union = 0
    for hit in distinct:
        union |= hit
    universe = _rays(union)
    for size in range(1, len(universe) + 1):
        for candidate in combinations(universe, size):
            chosen = sum(1 << i for i in candidate)
            if all(chosen & hit for hit in distinct):
                return candidate
    raise AssertionError("hitting-set search called with an un-hittable event")


def _blocking_flats(scenario: Scenario, assignments: list[KSAssignment]):
    """Each flat of rank at most ``d - 1`` that blocks a witness, rank by rank.

    A flat of rank ``r + 1`` is the closure of one of rank ``r`` and a ray
    outside it, kept once per ray mask.  Yields ``(rank, flat, normals,
    blocked)``: ``normals`` span the flat's orthogonal complement and
    ``blocked`` is the first item of :func:`_blocked_witnesses` on ``flat``.
    """
    vectors = [ray.vector for ray in scenario.rays]
    max_rank = scenario.dim - 1
    layer = {0: ([], nullspace([], dim=scenario.dim))}
    for r in range(max_rank + 1):
        children: dict[int, tuple[list[int], list[ExactVector]]] = {}
        for flat, (spanning, normals) in layer.items():
            blocked = next(_blocked_witnesses(scenario, assignments, flat), None)
            if blocked:
                yield r, flat, normals, blocked
            # the flats covering ``flat`` partition the rays outside it, so the
            # closure with ray i only tests the later rays in no earlier child
            outside = ~flat if r < max_rank else 0
            for i in range(len(vectors)):
                if outside >> i & 1:
                    basis = nullspace([vectors[j] for j in spanning + [i]], dim=scenario.dim)
                    child = flat | 1 << i
                    for j in range(i + 1, len(vectors)):
                        if outside >> j & 1 and all(orthogonal(vectors[j], x) for x in basis):
                            child |= 1 << j
                    outside &= ~child
                    children.setdefault(child, (spanning + [i], basis))
        layer = children


# ---------------------------------------------------------------------------
# exhausting contextual pure states
# ---------------------------------------------------------------------------

class WitnessedState(_Record):
    """A contextual pure state, its first witness and that witness's minimum zero set."""

    __slots__ = _fields = ("witness", "state", "selection")


class UndeterminedFamily(_Record):
    """A blocking flat of rank at most ``d - 2``, its rays in ``selection``.

    Its generic states, a continuum, are logically contextual; ``nullity``
    is the dimension of the flat's orthogonal complement.
    """

    __slots__ = _fields = ("witness", "selection", "nullity")


class PureStateSearch(_Record):
    __slots__ = _fields = ("states", "undetermined")


def find_contextual_pure_states(
    scenario: Scenario, assignments: list[KSAssignment]
) -> PureStateSearch:
    """Exhaust the logically contextual pure states of the scenario.

    A state's zero set is a flat, which alone decides its contextuality.
    The normal of each blocking hyperplane (rank ``d - 1``) is a state,
    re-verified with :func:`is_logically_contextual`; each blocking flat of
    lower rank is an undetermined family.  States are sorted by witness
    and selection.
    """
    found: list[WitnessedState] = []
    undetermined: list[UndeterminedFamily] = []
    for r, flat, normals, blocked in _blocking_flats(scenario, assignments):
        k, _, hits = blocked
        if r < scenario.dim - 1:
            undetermined.append(UndeterminedFamily(k, _rays(flat), scenario.dim - r))
            continue
        psi = normals[0]
        if not is_logically_contextual(scenario, QuantumState.pure(psi), assignments):
            raise AssertionError(f"state {psi} emitted by the search failed the contextuality re-check")
        found.append(WitnessedState(witness=k, state=psi, selection=_minimum_hitting_set(hits)))
    found.sort(key=lambda w: (w.witness, w.selection))
    return PureStateSearch(states=tuple(found), undetermined=tuple(undetermined))


def check_witnesses_basis_free(scenario: Scenario, search: PureStateSearch) -> bool:
    """True iff every witness of the search lies in no basis context, as on yu-oh.

    A ray in a basis can be a witness: on the 26-ray prefix of box-d3-m2,
    every KS-assignment that gives ``r15`` the value 1 also gives ``r10`` 1.
    """
    counts = basis_membership(scenario)
    return all(counts[w.witness] == 0 for w in search.states)


# ---------------------------------------------------------------------------
# mixed-state analysis
# ---------------------------------------------------------------------------

TRIPLE_LISTING_BOUND = 10_000


class TripleAnalysis(_Record):
    """Rank/nullity record for one selection tuple of a witness candidate."""

    __slots__ = _fields = ("witness", "picks", "selection", "rank", "nullity")


class MixedAnalysisReport(_Record):
    """Whether some logically contextual state has rank 2 or more.

    Such a state's zero set is a flat of rank at most ``d - 2``, and each
    such flat is the zero set of a mixed state.  ``common_ray_violations``
    holds those flats that block a witness: the search's undetermined
    families.
    ``triples`` is the paper's rank/nullity listing over the basis-free
    witnesses and decides nothing; above :data:`TRIPLE_LISTING_BOUND`
    selections it is empty and ``triples_listed`` false.
    """

    __slots__ = _fields = ("triples", "common_ray_violations", "no_mixed_states", "triples_listed")
    _defaults = {"triples_listed": True}


def analyze_mixed_states(
    scenario: Scenario, assignments: list[KSAssignment], search: PureStateSearch
) -> MixedAnalysisReport:
    """Decide the mixed states by the search's undetermined families, and list the selections.

    The blocking flats of rank at most ``d - 2`` are those families.
    """
    violations = search.undetermined
    basis_free = [k for k, count in enumerate(basis_membership(scenario)) if count == 0]
    candidates = [(k, events) for k in basis_free if (events := events_containing(scenario, assignments, k))]
    if sum(math.prod(len(e.support) - 1 for e in events) for _, events in candidates) > TRIPLE_LISTING_BOUND:
        return MixedAnalysisReport((), violations, not violations, triples_listed=False)
    triples = []
    for k, events in candidates:
        # one pick of a non-witness ray per event; repeated picks collapse in the selection
        for picks in product(*([i for i in e.support if i != k] for e in events)):
            selection = tuple(sorted(set(picks)))
            r = rank([scenario.rays[i].vector for i in selection], dim=scenario.dim)
            triples.append(TripleAnalysis(k, picks, selection, r, scenario.dim - r))
    return MixedAnalysisReport(tuple(triples), violations, not violations)
