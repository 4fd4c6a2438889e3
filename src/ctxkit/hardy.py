"""Hardy-type paradoxes and their single-observable witnesses.

A logically contextual state on a scenario yields finite sets of
possibilistic conditions of the form

    p(witness) > 0,   p(z) = 0 for every z in a zero set,

where the zero set hits every global event containing the witness.  No
0/1 distribution over global events can satisfy such conditions, so each
one is a Hardy-type paradox; its *success probability* is the exact Born
probability of the witness ray.

For a paradox whose zero set has exactly two rays, a single observable
certifies the conditions: Gram-Schmidt the triple (low zero ray, high
zero ray, witness ray) and take the three rank-1 projectors, so that the
first two projectors have probability 0 and the third probability 1
under the state.  The third orthogonalized ray always lands on the state
ray itself, which makes the construction easy to audit.

The module also ships a reference tabulation of the twelve observables
for the bundled 13-ray scenario and a cross-check that re-derives each
row.  Reference rows that fail the exact consistency oracle (projector
algebra, completeness, and the probability conditions under the row's
own state) are reported as errata rather than matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .assignments import KSAssignment, enumerate_assignments
from .contextuality import QuantumState, is_logically_contextual, possibilistic_model
from .errors import LinearDependenceError, ValidationError
from .exact import ExactMatrix, gram_schmidt, rank, rank1_projector, vec
from .scenario import Scenario


@dataclass(frozen=True)
class HardyParadox:
    """One paradox: a witness ray, a minimal zero set and the exact SP."""

    state: QuantumState
    witness: int
    zero_set: tuple[int, ...]
    sp: Fraction


@dataclass(frozen=True)
class ParadoxDerivation:
    """All paradoxes of a state, or the reason why there are none."""

    paradoxes: tuple[HardyParadox, ...]
    reason: str | None = None


def derive_paradoxes(
    scenario: Scenario, state: QuantumState, assignments: list[KSAssignment] | None = None
) -> ParadoxDerivation:
    """Construct every Hardy-type paradox the state supports.

    For each ray with positive probability whose global events are all hit
    by zero-probability rays, emit the paradox carrying a minimum-size
    hitting set (ties broken lexicographically by ray index).  States that
    are not logically contextual yield no paradoxes; the derivation then
    carries the reason instead.
    """
    if assignments is None:
        assignments = enumerate_assignments(scenario)
    verdict = is_logically_contextual(scenario, state, assignments)
    if not verdict.contextual:
        return ParadoxDerivation(
            paradoxes=(),
            reason=f"state {state.describe()} is not logically contextual on {scenario.name!r}",
        )
    model = possibilistic_model(scenario, state)
    paradoxes = []
    for k in range(len(scenario.rays)):
        if model.value(k) != 1:
            continue
        events = [a for a in assignments if a.bits[k] == 1]
        if not events:
            continue
        hit_lists = [
            [i for i in e.support if i != k and model.value(i) == 0] for e in events
        ]
        if not all(hit_lists):
            continue
        zero_set = _minimum_hitting_set(hit_lists)
        paradox = HardyParadox(
            state=state,
            witness=k,
            zero_set=zero_set,
            sp=state.probability(scenario.rays[k].vector),
        )
        if not replay_contradiction(scenario, assignments, paradox):
            raise AssertionError("derived paradox failed the contradiction replay")
        paradoxes.append(paradox)
    return ParadoxDerivation(paradoxes=tuple(paradoxes))


def _minimum_hitting_set(hit_lists: list[list[int]]) -> tuple[int, ...]:
    universe = sorted({i for hits in hit_lists for i in hits})
    for size in range(1, len(universe) + 1):
        for candidate in combinations(universe, size):
            chosen = set(candidate)
            if all(chosen.intersection(hits) for hits in hit_lists):
                return candidate
    raise AssertionError("hitting-set search called with an un-hittable event")


def percent(value: Fraction) -> str:
    """Display helper: rational probability as a 3-significant-figure percentage."""
    return f"{float(value) * 100:.3g}%"


def replay_contradiction(
    scenario: Scenario, assignments: list[KSAssignment], paradox: HardyParadox
) -> bool:
    """Re-derive the inconsistency the paradox encodes.

    Forcing weight 0 on every global event that meets the zero set must
    force the witness marginal to 0 even though the witness is possible:
    true iff every event containing the witness meets the zero set and the
    witness probability is positive.
    """
    if paradox.sp <= 0:
        return False
    zero = set(paradox.zero_set)
    witness_events = [a for a in assignments if a.bits[paradox.witness] == 1]
    if not witness_events:
        return False
    return all(zero.intersection(a.support) for a in witness_events)


# ---------------------------------------------------------------------------
# single-observable witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessObservable:
    """Three mutually orthogonal rank-1 projectors summing to identity.

    ``source_order`` records the Gram-Schmidt input rays as indices
    (low zero ray, high zero ray, witness ray).  Only distinctness of the
    eigenvalues matters; they default to 1, 2, 3.
    """

    projectors: tuple[ExactMatrix, ExactMatrix, ExactMatrix]
    eigenvalues: tuple[Fraction, Fraction, Fraction]
    source_order: tuple[int, int, int]


def build_witness_observable(
    scenario: Scenario,
    paradox: HardyParadox,
    eigenvalues: tuple[Fraction | int, ...] = (1, 2, 3),
) -> WitnessObservable:
    """The single observable certifying a two-zero paradox.

    Gram-Schmidt input order is (zero ray with the smaller scenario index,
    the other zero ray, witness ray), so the first projector is onto the
    low zero ray and the third onto the state ray.  The three source rays
    are checked to be linearly independent rather than assumed.
    """
    if len(paradox.zero_set) != 2:
        raise ValidationError(
            f"witness observable needs exactly 2 zero rays, got {len(paradox.zero_set)}"
        )
    eigs = tuple(Fraction(e) for e in eigenvalues)
    if len(eigs) != 3 or len(set(eigs)) != 3:
        raise ValidationError("three distinct eigenvalues are required")
    z_low, z_high = sorted(paradox.zero_set)
    ordered = [
        scenario.rays[z_low].vector,
        scenario.rays[z_high].vector,
        scenario.rays[paradox.witness].vector,
    ]
    if rank(ordered, dim=scenario.dim) != 3:
        raise LinearDependenceError("witness and zero rays must be linearly independent")
    u1, u2, u3 = gram_schmidt(ordered)
    return WitnessObservable(
        projectors=(rank1_projector(u1), rank1_projector(u2), rank1_projector(u3)),
        eigenvalues=eigs,
        source_order=(z_low, z_high, paradox.witness),
    )


@dataclass(frozen=True)
class ObservableVerification:
    """Named pass/fail record of the witness-observable identities."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _projector_algebra_failures(
    projectors: tuple[ExactMatrix, ExactMatrix, ExactMatrix], dim: int
) -> list[str]:
    failures = []
    for idx, p in enumerate(projectors, start=1):
        if not p.is_hermitian():
            failures.append(f"P{idx} hermitian")
        if p @ p != p:
            failures.append(f"P{idx} idempotent")
        if p.trace().as_fraction() != 1:
            failures.append(f"tr(P{idx}) = 1")
    for a, b in combinations(range(3), 2):
        prod = projectors[a] @ projectors[b]
        if any(not e.is_zero for e in prod.entries):
            failures.append(f"P{a + 1}*P{b + 1} = 0")
    total = projectors[0] + projectors[1] + projectors[2]
    if total != ExactMatrix.identity(dim):
        failures.append("P1+P2+P3 = I")
    return failures


def _outcome_probability(state: QuantumState, projector: ExactMatrix) -> Fraction:
    return (state.rho @ projector).trace().as_fraction()


def verify_observable(paradox: HardyParadox, observable: WitnessObservable) -> ObservableVerification:
    """Exact verification of the paradox conditions on the observable.

    Checks the projector algebra, the outcome probabilities (0, 0, 1) and
    that the third projector is exactly the projector onto the state ray.
    """
    p1, p2, p3 = observable.projectors
    failures = _projector_algebra_failures(observable.projectors, paradox.state.dim)
    if _outcome_probability(paradox.state, p1) != 0:
        failures.append("tr(rho*P1) = 0")
    if _outcome_probability(paradox.state, p2) != 0:
        failures.append("tr(rho*P2) = 0")
    if _outcome_probability(paradox.state, p3) != 1:
        failures.append("tr(rho*P3) = 1")
    if paradox.state.psi is not None and p3 != rank1_projector(paradox.state.psi):
        failures.append("P3 = state projector")
    return ObservableVerification(ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# reference tabulation of the twelve observables (bundled scenario)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceRow:
    """One previously tabulated observable row, exactly as printed."""

    row: int
    state: tuple[int, int, int]
    witness: str
    zeros: tuple[str, str]
    printed: tuple[ExactMatrix, ExactMatrix, ExactMatrix]


def _scaled(denominator: int, rows: list[list[int]]) -> ExactMatrix:
    return ExactMatrix.from_rows(rows).scale(Fraction(1, denominator))


REFERENCE_OBSERVABLES: tuple[ReferenceRow, ...] = (
    ReferenceRow(1, (1, 1, 1), "vA", ("v5", "v6"), (
        _scaled(2, [[1, 0, -1], [0, 0, 0], [-1, 0, 1]]),
        _scaled(6, [[1, -2, 1], [-2, 4, -2], [1, -2, 1]]),
        _scaled(3, [[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    )),
    ReferenceRow(2, (1, 1, 1), "vB", ("v4", "v6"), (
        _scaled(2, [[0, 0, 0], [0, 1, -1], [0, -1, 1]]),
        _scaled(6, [[4, -2, -2], [-2, 1, 1], [-2, 1, 1]]),
        _scaled(3, [[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    )),
    ReferenceRow(3, (1, 1, 1), "vC", ("v4", "v5"), (
        _scaled(2, [[0, 0, 0], [0, 1, -1], [0, -1, 1]]),
        _scaled(6, [[4, -2, -2], [-2, 1, 1], [-2, 1, 1]]),
        _scaled(3, [[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    )),
    ReferenceRow(4, (-1, 1, 1), "vB", ("v4", "v8"), (
        _scaled(2, [[0, 0, 0], [0, 1, -1], [0, -1, 1]]),
        _scaled(6, [[4, 2, 2], [2, 1, 1], [2, 1, 1]]),
        _scaled(2, [[0, 0, 0], [0, 1, 1], [0, 1, 1]]),
    )),
    ReferenceRow(5, (-1, 1, 1), "vC", ("v4", "v9"), (
        _scaled(2, [[0, 0, 0], [0, 1, -1], [0, -1, 1]]),
        _scaled(6, [[4, 2, 2], [2, 1, 1], [2, 1, 1]]),
        _scaled(2, [[0, 0, 0], [0, 1, 1], [0, 1, 1]]),
    )),
    ReferenceRow(6, (-1, 1, 1), "vD", ("v8", "v9"), (
        _scaled(2, [[1, 0, 1], [0, 0, 0], [1, 0, 1]]),
        _scaled(6, [[1, 2, -1], [2, 4, -2], [-1, -2, 1]]),
        _scaled(3, [[-1, -1, -1], [-1, 1, 1], [-1, 1, 1]]),
    )),
    ReferenceRow(7, (1, -1, 1), "vA", ("v5", "v7"), (
        _scaled(2, [[1, 0, -1], [0, 0, 0], [-1, 0, 1]]),
        _scaled(6, [[1, -2, 1], [-2, 4, -2], [1, -2, 1]]),
        _scaled(3, [[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    )),
    ReferenceRow(8, (1, -1, 1), "vC", ("v5", "v9"), (
        _scaled(2, [[1, 0, -1], [0, 0, 0], [-1, 0, 1]]),
        _scaled(6, [[1, 2, 1], [2, 4, 2], [1, 2, 1]]),
        _scaled(3, [[1, -1, 1], [-1, 1, -1], [1, -1, 1]]),
    )),
    ReferenceRow(9, (1, -1, 1), "vD", ("v7", "v9"), (
        _scaled(2, [[0, 0, 0], [0, 1, 1], [0, 1, 1]]),
        _scaled(6, [[4, 2, -2], [2, 1, -1], [-2, -1, 1]]),
        _scaled(3, [[1, -1, 1], [-1, 1, -1], [1, -1, 1]]),
    )),
    ReferenceRow(10, (1, 1, -1), "vA", ("v6", "v7"), (
        _scaled(2, [[1, -1, 0], [-1, 1, 0], [0, 0, 0]]),
        _scaled(6, [[1, 1, 2], [1, 1, 2], [2, 2, 4]]),
        _scaled(3, [[1, 1, -1], [1, 1, -1], [-1, -1, 1]]),
    )),
    ReferenceRow(11, (1, 1, -1), "vB", ("v6", "v8"), (
        _scaled(2, [[1, -1, 0], [-1, 1, 0], [0, 0, 0]]),
        _scaled(6, [[1, 1, 2], [1, 1, 2], [2, 2, 4]]),
        _scaled(3, [[1, 1, -1], [1, 1, -1], [-1, -1, 1]]),
    )),
    ReferenceRow(12, (1, 1, -1), "vD", ("v7", "v8"), (
        _scaled(2, [[0, 0, 0], [0, 1, 1], [0, 1, 1]]),
        _scaled(6, [[4, -2, 2], [-2, 1, -1], [2, -1, 1]]),
        _scaled(3, [[1, 1, -1], [1, 1, -1], [-1, -1, 1]]),
    )),
)


@dataclass(frozen=True)
class RowCrossCheck:
    """Comparison of one derived observable against its reference row."""

    reference: ReferenceRow
    derived: WitnessObservable
    consistent: bool
    failures: tuple[str, ...]
    matches: tuple[bool, bool, bool]


@dataclass(frozen=True)
class ReferenceCrossCheck:
    rows: tuple[RowCrossCheck, ...]
    errata: tuple[int, ...]


def crosscheck_reference_observables(
    scenario: Scenario, assignments: list[KSAssignment] | None = None
) -> ReferenceCrossCheck:
    """Re-derive every reference row and flag inconsistent printings.

    A printed row is *consistent* when its three matrices are mutually
    orthogonal projectors summing to identity and reproduce outcome
    probabilities (0, 0, 1) under the row's state; inconsistent rows are
    the errata.  Derived matrices are authoritative either way.
    """
    if assignments is None:
        assignments = enumerate_assignments(scenario)
    results = []
    errata = []
    derivations: dict[tuple[int, int, int], ParadoxDerivation] = {}
    for ref in REFERENCE_OBSERVABLES:
        state = QuantumState.pure(vec(*ref.state))
        witness_idx = scenario.ray_index(ref.witness)
        zeros = tuple(sorted(scenario.ray_index(z) for z in ref.zeros))
        if ref.state not in derivations:
            derivations[ref.state] = derive_paradoxes(scenario, state, assignments)
        paradox = next(
            (
                p
                for p in derivations[ref.state].paradoxes
                if p.witness == witness_idx and p.zero_set == zeros
            ),
            None,
        )
        if paradox is None:
            raise ValidationError(
                f"reference row {ref.row} has no matching paradox; "
                "the cross-check needs the bundled 13-ray scenario"
            )
        derived = build_witness_observable(scenario, paradox)
        failures = _projector_algebra_failures(ref.printed, scenario.dim)
        probs = [_outcome_probability(state, p) for p in ref.printed]
        for idx, expected in enumerate((0, 0, 1), start=1):
            if probs[idx - 1] != expected:
                failures.append(f"tr(rho*P{idx}) = {expected}")
        consistent = not failures
        if not consistent:
            errata.append(ref.row)
        matches = tuple(
            derived.projectors[i] == ref.printed[i] for i in range(3)
        )
        results.append(
            RowCrossCheck(
                reference=ref,
                derived=derived,
                consistent=consistent,
                failures=tuple(failures),
                matches=matches,  # type: ignore[arg-type]
            )
        )
    return ReferenceCrossCheck(rows=tuple(results), errata=tuple(errata))
