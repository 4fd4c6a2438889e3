"""Logical (possibilistic) contextuality of quantum states on a scenario.

The possibilistic model of a state maps each ray to 1 exactly when its
Born probability is non-zero; with exact scalars this is decidable.  A
state is *logically contextual* when no 0/1 distribution over the global
events (KS-assignments) reproduces that model as marginals.  Zero sets
are ray bitmasks, a model's impossible rays its ``zeros``.  The checks
read the core events (:mod:`ctxkit.assignments`): each ray's column
``GlobalEvents.compatible`` is one int over them, and ``miss``, the core
events that miss a zero set, is all core events less each basis zero
ray's column.
:func:`possibilistic_model` computes the model of a pure or a density
state in one pass on ints: ray ``z`` is impossible iff ``M z = 0`` for
the state's integer rows ``M``: the scenario's packed Born pass
(:func:`ctxkit.scenario._born_pass`) answers for every ray at once.
A pure state holds only its canonical ray; its ``rho`` is ``None``.  The
model is kept on the ``QuantumState`` object, keyed by the scenario's ray
tuple, with the pass's packing and products, so the verdict, the oracle
and the paradox derivation of one state object on one scenario share a
single Born pass.  The derivation reads each witness's probability from
one slot (:func:`_pass_probabilities`): of that pass for a pure state, of
one packed Hermitian form for a density.  ``GlobalEvents.missing`` keeps
its last ``miss``, so they compute it once.  Two decision
procedures are implemented:

* :func:`is_logically_contextual` searches for a witness ray ``v`` that is
  possible under the state while every global event containing ``v`` also
  contains an impossible ray (a "blocker").  Witnesses whose global-event
  set is empty are excluded: the universal condition would hold vacuously,
  and such rays cannot start the contradiction the verdict certifies.
  :func:`_blocked_witnesses` finds every such witness: a ray outside the
  zero set whose column is non-zero and disjoint from ``miss``.  It is
  shared with :func:`ctxkit.hardy.derive_paradoxes`: the verdict stops at
  its first witness, the derivation makes each one a paradox.  The
  verdict lists no events; :func:`witness_blockers` reads them, and the
  first blocker of each, from the witness's column over every event
  (``GlobalEvents.holding``) when a report asks.
* :func:`noncontextuality_oracle` builds the canonical candidate
  distribution (an event is possible iff it misses every impossible ray)
  and checks the marginals: ``miss`` is not empty and its core events
  cover exactly the possible rays, the complement of ``zeros``.  It
  follows the definition.

They are not equivalent: the verdict skips a possible ray that lies in no
global event, and the oracle counts it as uncovered (an open defect,
ROADMAP.md item 1).  They disagree on every state of Peres 24, which is
KS-uncolourable, and on 68 of 200 random integer states on the 32-ray
box-d3-m2 prefix.

The zero set of every state is a flat of the rays (the rays inside a
span of some of them), and it alone decides logical contextuality.  So
:func:`_blocking_flats` tests each flat of rank at most ``d - 1`` once,
narrowing its parent's integer normals by one ray and closing it with
the same null test over their conjugates (Oxley, *Matroid Theory*, 2011):
:func:`find_contextual_pure_states` takes the normals of the blocking
hyperplanes and keeps the blocking flats of lower rank as undetermined
families, each the zero set of contextual mixed states, which
:func:`analyze_mixed_states` reads from the search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, compress, product

from .assignments import GlobalEvents, KSAssignment
from .errors import DimensionMismatchError, ValidationError
from .exact import (
    ExactMatrix,
    ExactVector,
    _canonical_from_ints,
    _narrow,
    _null_basis,
    _Record,
    canonical_ray,
    expectation,
    overlap,
    parse_scalar,
    rank,
    validate_density,
)
from .scenario import Scenario, _bits, _born_pass, _hermitian_pass, _mask, _rays


class QuantumState(_Record):
    """A pure or mixed state of known dimension.

    A pure state is its canonical ray ``psi``, with ``rho = None``; a
    density operator ``rho`` is validated (Hermitian, trace 1, PSD) at
    construction, with ``psi = None``.  ``_model``, unset before the first
    :func:`possibilistic_model`, holds the last as ``(rays, model, packing,
    products)``, with the packing and products of its Born pass
    (:func:`ctxkit.scenario._born_pass`) that :func:`_pass_probabilities`
    reads; it is not a field, so equality, hashing and ``repr`` ignore it.
    """

    __slots__ = ("dim", "rho", "psi", "_model")
    _fields = ("dim", "rho", "psi")
    _defaults = {"psi": None}

    @classmethod
    def pure(cls, vector: ExactVector) -> "QuantumState":
        if vector.is_zero:
            raise ValidationError("a pure state must be a non-zero vector")
        return cls(vector.dim, None, canonical_ray(vector))

    @classmethod
    def density(cls, matrix: ExactMatrix) -> "QuantumState":
        validate_density(matrix)
        return cls(dim=matrix.rows, rho=matrix, psi=None)

    def probability(self, v: ExactVector) -> Fraction:
        """Exact Born probability of the event ``v`` under this state; ``overlap`` or ``expectation`` checks ``v``."""
        if self.psi is not None:
            return overlap(v, self.psi)
        return expectation(self.rho, v)

    def outcome_probability(self, p: ExactMatrix) -> Fraction:
        """``tr(rho P)``: the probability of the outcome with projector ``P``, no projector built for a pure state."""
        if self.psi is not None:
            return expectation(p, self.psi)
        return (self.rho @ p).trace().as_fraction()

    def describe(self) -> str:
        return "(" + ",".join(self.psi.coordinate_texts()) + ")" if self.psi is not None else "density"


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
    """The 0/1 coarse-graining of Born probabilities, index-aligned.

    ``zeros``, the impossible rays as a mask (bit i set iff ``values[i]``
    is 0), is derived from ``values`` by the constructor.
    """

    __slots__ = ("values", "zeros")
    _fields = ("values",)

    def __init__(self, values: tuple[int, ...]):
        self._fill(values, _mask(bytes(values)) ^ (1 << len(values)) - 1)

    @classmethod
    def _of_zeros(cls, zeros: int, n: int) -> "PossibilisticModel":
        """The model of ``n`` rays with the impossible rays ``zeros``; the marker bit n keeps the high ones."""
        model = cls.__new__(cls)
        model._fill(tuple(_bits(zeros ^ (2 << n) - 1)[:n]), zeros)
        return model


def _integer_rows(state: QuantumState) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The integer rows M of ``state``, ``M z = 0`` iff ray ``z`` is impossible: ``conj(psi)`` for a pure
    state or the numerator rows of a density's ``rho``."""
    if state.psi is not None:
        return (tuple((a, -b) for a, b in state.psi.integer_form),)
    d, nums = state.dim, state.rho.nums
    return tuple(nums[i * d : (i + 1) * d] for i in range(d))


def possibilistic_model(scenario: Scenario, state: QuantumState) -> PossibilisticModel:
    """Map each ray to 1 iff its Born probability under ``state`` is non-zero.

    Ray ``z`` is impossible iff ``M z = 0`` for the state's integer rows
    ``M`` (:func:`ctxkit.scenario._born_pass`): for a pure state that is ``z``
    orthogonal to the state; for a density operator ``rho``, which is PSD,
    ``<z|rho|z> = 0`` iff ``rho z = 0``.  The rays are the model's only
    input, so the model is kept on the state with the ``scenario.rays``
    tuple it was computed from, and the pass's packing and products, and
    returned again while the same tuple (by identity) is passed: every
    consumer of one state object on one scenario shares one Born pass.
    """
    if state.dim != scenario.dim:
        raise DimensionMismatchError("state dimension does not match the scenario")
    cached = getattr(state, "_model", None)
    if cached is not None and cached[0] is scenario.rays:
        return cached[1]
    zeros, products, packing = _born_pass(scenario, _integer_rows(state))
    model = PossibilisticModel._of_zeros(zeros, len(scenario.rays))
    # holding the rays keeps their identity from being reused by another tuple
    QuantumState._model.__set__(state, (scenario.rays, model, packing, products))
    return model


def _pass_probabilities(state: QuantumState, scenario: Scenario, witnesses) -> list[Fraction]:
    """:meth:`QuantumState.probability` of ray ``scenario.rays[k]`` for each ``k`` of ``witnesses``, one slot read
    each, over the norms ``||z||^2`` kept with the packing of the last :func:`possibilistic_model` call on ``state``.

    Pure: ``(a^2 + b^2) / (||psi||^2 ||z||^2)`` for ``(a, b) = <psi|z>`` in the slot of the Born pass's one row.
    Density ``N / den``: ``<z|N|z> / (den ||z||^2)``, the slot of one packed Hermitian form
    (:func:`ctxkit.scenario._hermitian_pass`)."""
    _, _, (width, _, _, norms), products = state._model
    if state.psi is not None:
        (re, im), norm, bias, mask = products[0], state.psi.integer_norm, 1 << width - 2, (1 << width) - 1
        pairs = []
        for k in witnesses:
            a, b = (re >> k * width & mask) - bias, (im >> k * width & mask) - bias
            pairs.append((a * a + b * b, norm * norms[k]))
    else:
        form, den, mask = _hermitian_pass(scenario, width, state.rho.nums), state.rho.den, (1 << 2 * width) - 1
        pairs = [(form >> 2 * k * width & mask, den * norms[k]) for k in witnesses]
    # the witnesses of a state share few SPs, and a Fraction's gcd is most of its cost: each pair is reduced once
    reduced = {pair: Fraction(*pair) for pair in dict.fromkeys(pairs)}
    return [reduced[pair] for pair in pairs]


class ContextualityVerdict(_Record):
    """Outcome of the witness search: its first witness, or ``None``.

    ``model`` is the possibilistic model the verdict was decided on, kept
    so that callers need not compute it again.
    """

    __slots__ = _fields = ("contextual", "witness", "model")

    def __bool__(self) -> bool:
        return self.contextual


def _blocked_witnesses(events: GlobalEvents, zeros: int):
    """Each ray outside the zero mask whose global events are non-empty and all meet it.

    Yields ``(k, compatible[k])`` in ray order for each column over the core events that is non-zero and disjoint
    from ``missing(zeros)``.
    """
    miss = events.missing(zeros)
    for k, column in enumerate(events.compatible):
        if column and not column & miss and not zeros >> k & 1:
            yield k, column


def is_logically_contextual(
    scenario: Scenario, state: QuantumState, assignments: GlobalEvents
) -> ContextualityVerdict:
    """Witness-based contextuality decision.

    The state is logically contextual iff some ray ``v`` has model value 1,
    a non-empty set of global events containing it, and every such event
    contains a different ray with model value 0.  The first witness in ray
    order is reported; :func:`witness_blockers` lists its events.

    A possible ray in no global event is never a witness here, although
    it makes the state contextual by definition, so this verdict can miss
    what :func:`noncontextuality_oracle` finds (see the module docstring).
    """
    model = possibilistic_model(scenario, state)
    k, _ = next(_blocked_witnesses(GlobalEvents(assignments), model.zeros), (None, 0))
    return ContextualityVerdict(contextual=k is not None, witness=k, model=model)


def witness_blockers(
    assignments: GlobalEvents, verdict: ContextualityVerdict
) -> tuple[tuple[KSAssignment, int], ...]:
    """Each global event holding the verdict's witness, in order, with its lowest impossible ray."""
    if verdict.witness is None:
        return ()
    blockers = []
    for event in GlobalEvents(assignments).holding(verdict.witness):
        hit = event.mask & verdict.model.zeros
        blockers.append((event, (hit & -hit).bit_length() - 1))
    return tuple(blockers)


def noncontextuality_oracle(
    scenario: Scenario, state: QuantumState, assignments: GlobalEvents
) -> bool:
    """Direct marginal check of the canonical candidate distribution.

    Assign each global event the conjunction of its members' model values
    and test that (a) some event is possible and (b) the disjunctive
    marginal over each ray's events reproduces the model.  True means the
    state is logically non-contextual.
    """
    model = possibilistic_model(scenario, state)
    events = GlobalEvents(assignments)
    # a mask over the events, not over the rays: the empty event is possible and covers nothing
    miss = events.missing(model.zeros)
    # no zero ray's column meets ``miss``, so the marginals hold iff each possible ray's column meets it
    possible = ~model.zeros & (1 << len(model.values)) - 1
    return miss != 0 and all(column & miss for column in compress(events.compatible, _bits(possible)))


# ---------------------------------------------------------------------------
# the flats of the ray arrangement
# ---------------------------------------------------------------------------

def _minimum_hitting_set(zero_columns: list[tuple[int, int]], column: int) -> tuple[int, ...]:
    """The fewest zero rays whose columns cover ``column``; ties go to the lexicographically first.

    ``zero_columns`` holds ``(z, compatible[z])`` for each basis zero ray in order (``GlobalEvents.columns``; a
    free zero ray is in no minimum hitting set), read once for all of a state's witnesses; the pass that keeps
    the rays meeting ``column`` returns the first that covers it alone.
    That pass also marks the core events hit ``once`` and ``twice``: a ray that holds an event of
    ``once & ~twice`` is its only zero ray, so it is *forced* into every hitting set.  The forced rays,
    if they cover ``column``, are the unique minimum; otherwise the ``combinations`` search runs over the
    other rays and the events the forced ones leave, and the forced rays are merged in.  Adding one set
    to every candidate keeps their lexicographic order, so the ties come out as in a search over all
    the rays (``tests/oracles.py`` keeps that search).
    """
    universe = []
    once = twice = 0
    for z, held in zero_columns:
        if meet := held & column:
            if meet == column:
                return (z,)
            universe.append((z, meet))
            twice |= once & meet
            once |= meet
    if not column or column & ~once:
        raise AssertionError("hitting-set search called with an un-hittable event")
    sole, forced, rest, unhit = once & ~twice, [], [], column
    for z, meet in universe:
        if meet & sole:
            forced.append(z)
            unhit &= ~meet
        else:
            rest.append((z, meet))
    if not unhit:
        return tuple(forced)
    for size in range(1, len(rest) + 1):
        for candidate in combinations(rest, size):
            left = unhit
            for _, meet in candidate:
                left &= ~meet
            if not left:
                return tuple(sorted(forced + [z for z, _ in candidate]))
    raise AssertionError("hitting-set search found no cover of a hittable event")


def _blocking_flats(scenario: Scenario, events: GlobalEvents):
    """Each flat of rank at most ``d - 1`` that blocks a witness, rank by rank.

    A flat of rank ``r + 1`` is the closure of one of rank ``r`` and a ray
    outside it, kept once per ray mask.  Its normals are the parent's
    narrowed by that ray (:func:`ctxkit.exact._narrow`), and it holds the
    rays that meet none of them, by the null test over ``conj(normals)``.
    Yields ``(rank, flat, normals, blocked)``: ``normals``, a
    Gaussian-integer basis of the flat's orthogonal complement, and
    ``blocked``, the first item of :func:`_blocked_witnesses` on ``flat``.
    """
    forms = [ray.vector.integer_form for ray in scenario.rays]
    full, max_rank = (1 << len(forms)) - 1, scenario.dim - 1
    layer = {0: _null_basis([], scenario.dim)}
    for r in range(max_rank + 1):
        children: dict[int, list[list[tuple[int, int]]]] = {}
        for flat, normals in layer.items():
            blocked = next(_blocked_witnesses(events, flat), None)
            if blocked:
                yield r, flat, normals, blocked
            # the flats covering ``flat`` partition the rays outside it
            outside = full & ~flat if r < max_rank else 0
            while outside:
                # the lowest ray outside is in its own child, so each pass clears it
                basis = _narrow(normals, forms[(outside & -outside).bit_length() - 1])
                child = _born_pass(scenario, [[(a, -b) for a, b in n] for n in basis])[0]
                outside &= ~child
                children.setdefault(child, basis)
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
    scenario: Scenario, assignments: GlobalEvents
) -> PureStateSearch:
    """Exhaust the logically contextual pure states of the scenario.

    A state's zero set is a flat, which alone decides its contextuality.
    The normal of each blocking hyperplane (rank ``d - 1``) is a state,
    re-verified with :func:`is_logically_contextual`; each blocking flat of
    lower rank is an undetermined family.  States are sorted by witness
    and selection.
    """
    events = GlobalEvents(assignments)
    found: list[WitnessedState] = []
    undetermined: list[UndeterminedFamily] = []
    for r, flat, normals, (k, column) in _blocking_flats(scenario, events):
        if r < scenario.dim - 1:
            undetermined.append(UndeterminedFamily(k, _rays(flat), scenario.dim - r))
            continue
        psi = _canonical_from_ints(normals[0])
        if not is_logically_contextual(scenario, QuantumState.pure(psi), events):
            raise AssertionError(f"state {psi} emitted by the search failed the contextuality re-check")
        found.append(WitnessedState(witness=k, state=psi, selection=_minimum_hitting_set(events.columns(flat), column)))
    found.sort(key=lambda w: (w.witness, w.selection))
    return PureStateSearch(states=tuple(found), undetermined=tuple(undetermined))


def check_witnesses_basis_free(scenario: Scenario, search: PureStateSearch) -> bool:
    """True iff every witness of the search lies in no basis context, as on yu-oh.

    A ray in a basis can be a witness: on the 26-ray prefix of box-d3-m2,
    every KS-assignment that gives ``r15`` the value 1 also gives ``r10`` 1.
    """
    return all(scenario.free >> w.witness & 1 for w in search.states)


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
    scenario: Scenario, assignments: GlobalEvents, search: PureStateSearch
) -> MixedAnalysisReport:
    """Decide the mixed states by the search's undetermined families, and list the selections.

    The blocking flats of rank at most ``d - 2`` are those families.
    """
    violations = search.undetermined
    events = GlobalEvents(assignments)
    candidates = [(k, held) for k in _rays(scenario.free) if (held := events.holding(k))]
    if sum(math.prod(len(e.support) - 1 for e in held) for _, held in candidates) > TRIPLE_LISTING_BOUND:
        return MixedAnalysisReport((), violations, not violations, triples_listed=False)
    triples = []
    # picks repeat selections (71 distinct among yu-oh's 108), so each selection is ranked once
    ranks: dict[tuple[int, ...], int] = {}
    for k, held in candidates:
        # one pick of a non-witness ray per event; repeated picks collapse in the selection
        for picks in product(*([i for i in e.support if i != k] for e in held)):
            selection = tuple(sorted(set(picks)))
            if (r := ranks.get(selection)) is None:
                r = ranks[selection] = rank([scenario.rays[i].vector for i in selection], dim=scenario.dim)
            triples.append(TripleAnalysis(k, picks, selection, r, scenario.dim - r))
    return MixedAnalysisReport(tuple(triples), violations, not violations)
