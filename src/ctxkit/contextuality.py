"""Logical (possibilistic) contextuality of quantum states on a scenario.

The possibilistic model of a state maps each ray to 1 exactly when its
Born probability is non-zero; with exact scalars this is decidable.  A
state is *logically contextual* when no 0/1 distribution over the global
events (KS-assignments) reproduces that model as marginals.  Events and
zero sets are ray bitmasks (``KSAssignment.mask``), so every event test
is one ``&``.  Two equivalent decision procedures are implemented:

* :func:`is_logically_contextual` searches for a witness ray ``v`` that is
  possible under the state while every global event containing ``v`` also
  contains an impossible ray (a "blocker").  Witnesses whose global-event
  set is empty are excluded: the universal condition would hold vacuously,
  and such rays cannot start the contradiction the verdict certifies.
  The scan for such witnesses, :func:`_blocked_witnesses`, is shared with
  :func:`ctxkit.hardy.derive_paradoxes`: the verdict reports its first
  witness, the derivation turns every witness into a paradox.
* :func:`noncontextuality_oracle` builds the canonical candidate
  distribution (an event is possible iff it misses every impossible ray)
  and checks the marginals: the possible events exist and cover exactly
  the possible rays.  It must equal the negation of the verdict.

On top of the decision procedure, :func:`find_contextual_pure_states`
exhausts the logically contextual pure states of a scenario by solving
the orthogonality systems drawn from the global-event sets, and
:func:`analyze_mixed_states` records the rank/nullity bookkeeping that
rules out logically contextual mixed states whenever every zero-selection
system has solution-space dimension at most 1 and no foreign ray lies in
every event of a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .assignments import KSAssignment, events_containing
from .errors import DimensionMismatchError, ValidationError
from .exact import (
    ExactMatrix,
    ExactVector,
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


@dataclass(frozen=True)
class QuantumState:
    """A pure or mixed state of known dimension.

    Pure states are stored as canonical rays; density operators are
    validated (Hermitian, trace 1, PSD) at construction.
    """

    dim: int
    rho: ExactMatrix
    psi: ExactVector | None = None

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

    @property
    def is_pure(self) -> bool:
        return self.psi is not None

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


@dataclass(frozen=True)
class PossibilisticModel:
    """The 0/1 coarse-graining of Born probabilities, index-aligned."""

    values: tuple[int, ...]

    def value(self, i: int) -> int:
        return self.values[i]

    def possible(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v == 1)

    def impossible(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v == 0)


def possibilistic_model(scenario: Scenario, state: QuantumState) -> PossibilisticModel:
    """Map each ray to 1 iff its Born probability under ``state`` is non-zero.

    For a pure state that is the ray not being orthogonal to the state.
    """
    if state.dim != scenario.dim:
        raise DimensionMismatchError("state dimension does not match the scenario")
    if state.psi is not None:
        return PossibilisticModel(
            tuple(0 if orthogonal(r.vector, state.psi) else 1 for r in scenario.rays)
        )
    return PossibilisticModel(
        tuple(0 if state.probability(r.vector) == 0 else 1 for r in scenario.rays)
    )


@dataclass(frozen=True)
class ContextualityVerdict:
    """Outcome of the witness search, with one blocker per global event.

    ``model`` is the possibilistic model the verdict was decided on, kept
    so that callers need not compute it again.
    """

    contextual: bool
    witness: int | None
    blockers: tuple[tuple[KSAssignment, int], ...]
    model: PossibilisticModel

    def __bool__(self) -> bool:
        return self.contextual


def _blocked_witnesses(
    scenario: Scenario, model: PossibilisticModel, assignments: list[KSAssignment]
):
    """Each possible ray whose global events are non-empty and all blocked.

    Yields ``(k, events, hits)`` in ray order: ``events`` are the global
    events containing ray ``k`` and ``hits[j]`` is the mask of the
    impossible rays of ``events[j]``, which never holds the possible ``k``.
    """
    zeros = sum(1 << i for i in model.impossible())
    for k in model.possible():
        events = events_containing(scenario, assignments, k)
        hits = [event.mask & zeros for event in events]
        if events and all(hits):
            yield k, events, hits


def is_logically_contextual(
    scenario: Scenario, state: QuantumState, assignments: list[KSAssignment]
) -> ContextualityVerdict:
    """Witness-based contextuality decision.

    The state is logically contextual iff some ray ``v`` has model value 1,
    a non-empty set of global events containing it, and every such event
    contains a different ray with model value 0.  The first witness in ray
    order is reported together with the first blocker of each event.
    """
    model = possibilistic_model(scenario, state)
    for k, events, hits in _blocked_witnesses(scenario, model, assignments):
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
# exhausting contextual pure states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessedState:
    """A contextual pure state with the witness and zero-selection that found it."""

    witness: int
    state: ExactVector
    selection: tuple[int, ...]


@dataclass(frozen=True)
class UndeterminedFamily:
    """A zero-selection whose solution space has dimension 2 or more.

    Such families are reported, not classified: the rank argument that
    excludes mixed states does not cover them.
    """

    witness: int
    selection: tuple[int, ...]
    nullity: int


@dataclass(frozen=True)
class PureStateSearch:
    states: tuple[WitnessedState, ...]
    undetermined: tuple[UndeterminedFamily, ...]


def _selections(events: list[KSAssignment], k: int):
    """Each pick of one non-witness ray per event, with its collapsed selection."""
    pick_lists = [[i for i in e.support if i != k] for e in events]
    for picks in product(*pick_lists):
        yield picks, tuple(sorted(set(picks)))


def find_contextual_pure_states(
    scenario: Scenario, assignments: list[KSAssignment]
) -> PureStateSearch:
    """Exhaust the logically contextual pure states of the scenario.

    For every ray with a non-empty global-event set, solve the
    orthogonality system of every selection of one non-witness ray per
    event (repeated picks collapse, as the selections are multisets over
    distinct rays); a selection shared by several witnesses is solved
    once.  One-dimensional solution rays not orthogonal to the witness are
    collected, deduplicated by canonical form and re-verified with
    :func:`is_logically_contextual`.
    """
    found: list[WitnessedState] = []
    undetermined: list[UndeterminedFamily] = []
    seen_states: set[ExactVector] = set()
    bases: dict[tuple[int, ...], list[ExactVector]] = {}
    for k in range(len(scenario.rays)):
        events = events_containing(scenario, assignments, k)
        if not events:
            continue
        witness_vector = scenario.rays[k].vector
        for selection in dict.fromkeys(s for _, s in _selections(events, k)):
            if selection not in bases:
                bases[selection] = nullspace([scenario.rays[i].vector for i in selection], dim=scenario.dim)
            basis = bases[selection]
            if len(basis) >= 2:
                undetermined.append(UndeterminedFamily(k, selection, len(basis)))
                continue
            if len(basis) != 1:
                continue
            psi = basis[0]
            if orthogonal(witness_vector, psi):
                continue
            if psi in seen_states:
                continue
            seen_states.add(psi)
            state = QuantumState.pure(psi)
            if not is_logically_contextual(scenario, state, assignments):
                raise AssertionError(
                    f"state {psi} emitted by the search failed the contextuality re-check"
                )
            found.append(WitnessedState(witness=k, state=psi, selection=selection))
    return PureStateSearch(states=tuple(found), undetermined=tuple(undetermined))


def check_witnesses_basis_free(scenario: Scenario, search: PureStateSearch) -> bool:
    """True iff every witness of the search lies in no basis context.

    Rays inside basis contexts always admit a fully possible global event
    once they are possible themselves, so any witness outside the
    basis-free class would be a counterexample worth flagging.
    """
    counts = basis_membership(scenario)
    return all(counts[w.witness] == 0 for w in search.states)


# ---------------------------------------------------------------------------
# mixed-state analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleAnalysis:
    """Rank/nullity record for one selection tuple of a witness candidate."""

    witness: int
    picks: tuple[int, ...]
    selection: tuple[int, ...]
    rank: int
    nullity: int


@dataclass(frozen=True)
class MixedAnalysisReport:
    """Evidence that no mixed state is logically contextual on the scenario.

    ``no_mixed_states`` holds iff every selection system has nullity at
    most 1 and no candidate witness has a foreign ray lying in all of its
    global events.  Candidates are the basis-free rays with a non-empty
    global-event set.
    """

    triples: tuple[TripleAnalysis, ...]
    common_ray_violations: tuple[tuple[int, tuple[int, ...]], ...]
    no_mixed_states: bool


def analyze_mixed_states(
    scenario: Scenario, assignments: list[KSAssignment]
) -> MixedAnalysisReport:
    counts = basis_membership(scenario)
    triples: list[TripleAnalysis] = []
    violations: list[tuple[int, tuple[int, ...]]] = []
    rank_cache: dict[tuple[int, ...], int] = {}
    for k in range(len(scenario.rays)):
        if counts[k] != 0:
            continue
        events = events_containing(scenario, assignments, k)
        if not events:
            continue
        common = ~(1 << k)
        for event in events:
            common &= event.mask
        if common:
            violations.append((k, tuple(i for i in range(common.bit_length()) if common >> i & 1)))
        for picks, selection in _selections(events, k):
            if selection not in rank_cache:
                rank_cache[selection] = rank(
                    [scenario.rays[i].vector for i in selection], dim=scenario.dim
                )
            r = rank_cache[selection]
            triples.append(
                TripleAnalysis(
                    witness=k,
                    picks=picks,
                    selection=selection,
                    rank=r,
                    nullity=scenario.dim - r,
                )
            )
    ok = not violations and all(t.nullity <= 1 for t in triples)
    return MixedAnalysisReport(
        triples=tuple(triples),
        common_ray_violations=tuple(violations),
        no_mixed_states=ok,
    )
