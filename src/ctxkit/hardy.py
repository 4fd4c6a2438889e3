"""Hardy-type paradoxes and their single-observable witnesses.

A logically contextual state on a scenario yields finite sets of
possibilistic conditions of the form

    p(witness) > 0,   p(z) = 0 for every z in a zero set,

where the zero set hits every global event containing the witness.  No
0/1 distribution over global events can satisfy such conditions, so each
one is a Hardy-type paradox; its *success probability* is the exact Born
probability of the witness ray, read off the packed products of the
state's one Born pass (:func:`ctxkit.contextuality._pass_probabilities`).

For a paradox whose zero set has exactly two rays, a single observable
certifies the conditions: Gram-Schmidt the triple (low zero ray, high
zero ray, witness ray) and take the three rank-1 projectors, so that the
first two projectors have probability 0 and the third probability 1
under the state.  The third orthogonalized ray always lands on the state
ray itself, which makes the construction easy to audit.

:func:`derive_paradoxes` works per state and on the core events
(:mod:`ctxkit.assignments`): the zero rays' columns are read once, each
witness's minimum hitting set starts from the zero rays forced into it
(each the only one that hits some core event), and
:func:`replay_contradiction` checks the paradoxes with one test per
distinct zero set on the packed core event masks.

The module also ships a reference tabulation of the twelve observables
for the bundled 13-ray scenario and a cross-check that replays each row
as a paradox.  Reference rows that fail the exact consistency oracle
(projector algebra, completeness, and the probability conditions under
the row's own state) are reported as errata rather than matched.
"""

from __future__ import annotations

from fractions import Fraction

from .assignments import GlobalEvents
from .contextuality import QuantumState, _blocked_witnesses, _minimum_hitting_set, _pass_probabilities
from .contextuality import possibilistic_model
from .errors import ValidationError
from .exact import ExactMatrix, _Record, gram_schmidt, projector_failures, rank1_projector, vec
from .scenario import Scenario, _rays


class HardyParadox(_Record):
    """One paradox: a witness ray, a minimal zero set and the exact SP."""

    __slots__ = _fields = ("state", "witness", "zero_set", "sp")


class ParadoxDerivation(_Record):
    """All paradoxes of a state, or the reason why there are none."""

    __slots__ = _fields = ("paradoxes", "reason")
    _defaults = {"reason": None}


def derive_paradoxes(
    scenario: Scenario, state: QuantumState, assignments: GlobalEvents
) -> ParadoxDerivation:
    """Construct every Hardy-type paradox the state supports.

    For each ray with positive probability whose global events are all hit
    by zero-probability rays, emit the paradox carrying a minimum-size
    hitting set (ties broken lexicographically by ray index).  States that
    are not logically contextual yield no paradoxes; the derivation then
    carries the reason instead.  The model is computed once, and each
    witness's SP is read off its slot of the model's Born pass, equal to
    ``state.probability`` of the witness ray.  Every paradox is replayed,
    all in one :func:`replay_contradiction` call, and a failed replay
    raises.
    """
    zeros = possibilistic_model(scenario, state).zeros
    events = GlobalEvents(assignments)
    zero_columns = events.columns(zeros)
    blocked = list(_blocked_witnesses(events, zeros))
    sps = _pass_probabilities(state, scenario, [k for k, _ in blocked]) if blocked else []
    paradoxes = [
        HardyParadox(state, k, _minimum_hitting_set(zero_columns, column), sp)
        for (k, column), sp in zip(blocked, sps)
    ]
    if not all(replay_contradiction(events, paradoxes)):
        raise AssertionError("derived paradox failed the contradiction replay")
    reason = None if paradoxes else f"state {state.describe()} is not logically contextual on {scenario.name!r}"
    return ParadoxDerivation(tuple(paradoxes), reason)


def percent(value: Fraction) -> str:
    """Display helper: rational probability as a 3-significant-figure percentage."""
    return f"{float(value) * 100:.3g}%"


def replay_contradiction(assignments: GlobalEvents, paradoxes: list[HardyParadox]) -> list[bool]:
    """Re-derive the inconsistency each paradox encodes, one result per paradox.

    Forcing weight 0 on every global event that meets the zero set must
    force the witness marginal to 0 even though the witness is possible:
    true iff some event holds the witness, each such event meets the zero
    set and the witness probability is positive.  It reads the packed core
    event masks ``GlobalEvents.rows``, their test of a free ray
    ``GlobalEvents.clear_of`` and the kept ``union``, never the columns that
    :func:`derive_paradoxes` reads.  An event that holds the witness misses
    the zero set iff the event that adds no free ray but the witness to its
    core event does: for a basis witness, a core event that holds it and
    misses the zero set; for a free witness outside the zero set, a core
    event that holds none of its neighbours and misses it.  The paradoxes
    are grouped by ``zero_set`` in the one loop that tests the SPs and the
    union, and each group is one test on the packed masks.  Subtracting a
    slot's zero-set bits from 2^n leaves its bit n set iff the core event
    misses the zero set; that bit times ``W``, the mask of the group's basis
    witnesses, puts ``W`` at bits n and up of each such slot, and those bits
    of the masks shifted up by n are ``bad``: ray i at bit n + i of each
    slot that misses the zero set and holds i, for i in ``W``.  A free
    witness w outside the zero set whose ``clear_of`` slots meet the missed
    ones is put at bit n + w of ``bad``.  A paradox replays iff its SP is
    positive, its witness is in the union and no slot of ``bad`` holds it;
    when no group has a ``bad`` slot, as for every derived paradox, the
    first loop's results are returned as they are.
    """
    events = GlobalEvents(assignments)
    rows, ones, n = events.rows
    full, top, union, free = (1 << n) - 1, ones << n, events.union, events.free
    live, groups = [], {}
    for paradox in paradoxes:
        w, z = paradox.witness, paradox.zero_set
        # the numerator's sign is the SP's, without Fraction's rich comparison
        live.append(ok := paradox.sp.numerator > 0 and union >> w & 1 == 1)
        if ok:
            groups[z] = groups.get(z, 0) | 1 << w
    shifted, bad = rows << n if groups else 0, {}
    for zero_set, witnesses in groups.items():
        zeros = 0
        for i in zero_set:
            zeros |= 1 << i
        # each slot's 2^n less its zero-set bits borrows from no other slot
        missed = (top - (rows & (zeros & full) * ones)) & top
        # a slot is at least n + 1 bits wide, so the products of missed slots do not overlap
        slots = shifted & missed * (witnesses & ~free)
        if loose := witnesses & free & ~zeros:
            for w in _rays(loose):
                if missed & events.clear_of(w):
                    slots |= 1 << n + w
        bad[zero_set] = slots
    if not any(bad.values()):
        return live
    return [
        ok and not ((slots := bad[paradox.zero_set]) and slots >> n + paradox.witness & ones)
        for paradox, ok in zip(paradoxes, live)
    ]


# ---------------------------------------------------------------------------
# single-observable witnesses
# ---------------------------------------------------------------------------

class WitnessObservable(_Record):
    """Three mutually orthogonal rank-1 projectors summing to identity.

    ``source_order`` records the Gram-Schmidt input rays as indices
    (low zero ray, high zero ray, witness ray).  Only distinctness of the
    eigenvalues matters; they default to 1, 2, 3.
    """

    __slots__ = _fields = ("projectors", "eigenvalues", "source_order")


def build_witness_observable(
    scenario: Scenario,
    paradox: HardyParadox,
    eigenvalues: tuple[Fraction | int, ...] = (1, 2, 3),
) -> WitnessObservable:
    """The single observable certifying a two-zero paradox.

    Gram-Schmidt input order is (zero ray with the smaller scenario index,
    the other zero ray, witness ray), so the first projector is onto the
    low zero ray and the third onto the state ray.  ``gram_schmidt`` raises
    :class:`LinearDependenceError` on a dependent triple, which no derived
    paradox has: its distinct zero rays are orthogonal to the state, its
    witness is not.
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
    u1, u2, u3 = gram_schmidt(ordered)
    return WitnessObservable(
        projectors=(rank1_projector(u1), rank1_projector(u2), rank1_projector(u3)),
        eigenvalues=eigs,
        source_order=(z_low, z_high, paradox.witness),
    )


class ObservableVerification(_Record):
    """Named pass/fail record of the witness-observable identities."""

    __slots__ = _fields = ("ok", "failures")

    def __bool__(self) -> bool:
        return self.ok


def _measurement_failures(state: QuantumState, projectors: tuple[ExactMatrix, ...]) -> list[str]:
    """The witness-measurement conditions the projectors fail, by name: the
    rank-1 projector algebra of :func:`projector_failures`, then outcome
    probabilities (0, ..., 0, 1)."""
    failures = projector_failures(projectors, state.dim, rank_one=True)
    for k, p in enumerate(projectors, start=1):
        expected = int(k == len(projectors))
        if state.outcome_probability(p) != expected:
            failures.append(f"tr(rho*P{k}) = {expected}")
    return failures


def verify_observable(paradox: HardyParadox, observable: WitnessObservable) -> ObservableVerification:
    """Exact verification of the paradox conditions on the observable.

    Checks the projector algebra, the outcome probabilities (0, 0, 1) and
    that the third projector is exactly the projector onto the state ray.
    """
    failures = _measurement_failures(paradox.state, observable.projectors)
    # a Hermitian idempotent P3 of trace 1 is |u><u|; tr(rho*P3) = 1 then holds iff u spans the pure state's ray
    if paradox.state.psi is not None and {"P3 hermitian", "P3 idempotent", "tr(P3) = 1", "tr(rho*P3) = 1"} & {*failures}:
        failures.append("P3 = state projector")
    return ObservableVerification(ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# reference tabulation of the twelve observables (bundled scenario)
# ---------------------------------------------------------------------------

class ReferenceRow(_Record):
    """One previously tabulated observable row, exactly as printed."""

    __slots__ = _fields = ("row", "state", "witness", "zeros", "printed")


def _scaled(denominator: int, rows: list[list[int]]) -> ExactMatrix:
    return ExactMatrix(3, 3, denominator, ((x, 0) for row in rows for x in row))


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


class RowCrossCheck(_Record):
    """Comparison of one derived observable against its reference row."""

    __slots__ = _fields = ("reference", "derived", "consistent", "failures", "matches")


class ReferenceCrossCheck(_Record):
    __slots__ = _fields = ("rows", "errata")


def crosscheck_reference_observables(scenario: Scenario, assignments: GlobalEvents) -> ReferenceCrossCheck:
    """Replay every reference row as a paradox and flag inconsistent printings.

    A row is a paradox of the scenario when its zero rays are impossible
    under the row's state and :func:`replay_contradiction` holds; any other
    row means the scenario is not the bundled one, and the cross-check
    raises.  A printed row is *consistent* when its three matrices are
    mutually orthogonal projectors summing to identity and reproduce
    outcome probabilities (0, 0, 1) under the row's state; inconsistent
    rows are the errata.  Derived matrices are authoritative either way.
    """
    events = GlobalEvents(assignments)
    results = []
    errata = []
    for ref in REFERENCE_OBSERVABLES:
        state = QuantumState.pure(vec(*ref.state))
        witness = scenario.ray_index(ref.witness)
        zeros = tuple(sorted(scenario.ray_index(z) for z in ref.zeros))
        paradox = HardyParadox(state, witness, zeros, state.probability(scenario.rays[witness].vector))
        if any(state.probability(scenario.rays[z].vector) != 0 for z in zeros) or not replay_contradiction(
            events, [paradox]
        )[0]:
            raise ValidationError(
                f"reference row {ref.row} has no matching paradox; "
                "the cross-check needs the bundled 13-ray scenario"
            )
        derived = build_witness_observable(scenario, paradox)
        failures = _measurement_failures(state, ref.printed)
        if failures:
            errata.append(ref.row)
        (d1, d2, d3), (r1, r2, r3) = derived.projectors, ref.printed
        results.append(
            RowCrossCheck(
                reference=ref,
                derived=derived,
                consistent=not failures,
                failures=tuple(failures),
                matches=(d1 == r1, d2 == r2, d3 == r3),
            )
        )
    return ReferenceCrossCheck(rows=tuple(results), errata=tuple(errata))
