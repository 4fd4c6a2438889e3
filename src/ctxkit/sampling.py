"""Seeded Born-rule measurement simulation.

Outcome probabilities are computed exactly as ``tr(rho P_i)`` for projectors
that pass :func:`ctxkit.exact.projector_failures`, the check the witness
observables pass; floating point enters only in the sampler's inverse-CDF
step.  The pseudo-random generator is pinned for bit-reproducible counts
across platforms:

* state seeding: four rounds of **splitmix64** applied to the 64-bit seed;
* stream: **xoshiro256\\*\\*** (Blackman-Vigna, version 1.0), with doubles
  drawn from the top 53 bits of each output word.

Both generators are implemented here in pure integer arithmetic, so a
given seed yields the same outcome sequence everywhere.

The draw never builds the double.  The double ``(w >> 11) * 2**-53`` of
word ``w`` reaches the float cumulative ``c`` exactly when
``w >= ceil(c * 2**53) << 11``, so each outcome but the last gets one
integer threshold taken from the float cumulatives.  The thresholds rise
with the outcomes, so the words that reach threshold ``j`` but not
threshold ``j + 1`` are the draws of outcome ``j``: counting, for each
threshold, the words that reach it gives the counts of comparing each
word's double with the cumulatives.  Those counts depend on which words
are drawn, not on the order they are drawn in.

So the first ``shots`` words of the stream are drawn in lanes: ``L``
consecutive stretches of ``K = ceil(shots / L)`` words, lane ``j``
starting at word ``j * K``.  ``L`` is a power of two up to 256, doubled
while ``L * 1024 <= shots``.  The lanes sit side by side in one Python int
per state word, and one step of those ints steps them all.  The
xoshiro256 update is linear over GF(2), so ``n`` steps are the polynomial
``x**n``, reduced mod the update's characteristic polynomial, applied to
the state by Horner's rule in at most 256 steps (Haramoto et al., INFORMS
J. Comput. 20(3), 2008).  The lanes are started by doubling: each
doubling appends the lanes held so far, jumped ``K`` words ahead per lane
held.  Each step counts, per threshold, the lanes whose word reaches it;
the steps past the end of the short last lane leave that lane out.  When
one outcome has probability 1 every draw lands in it, so it takes every
shot and no word is drawn.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, sqrt

from .contextuality import QuantumState
from .errors import ValidationError
from .exact import ExactMatrix, _Record, projector_failures

_MASK64 = (1 << 64) - 1
# one lane's slot: its 64-bit word and 8 guard bits, which take the carries
# of the scrambler's `* 5` and `* 9` and of the threshold sums
_SLOT = 72
# masks within one slot: the low 19, 47 and 57 bits and bits 57 to 63
_LO19, _LO47, _LO57, _HI7 = (1 << 19) - 1, (1 << 47) - 1, (1 << 57) - 1, 127 << 57
# characteristic polynomial of the xoshiro256 state update over GF(2),
# bit i the coefficient of x**i
_CHARPOLY = 0x10003C03C3F3ECB1904B4EDCF26259F850280002BCEFD1A5E9D116F2BB0F0F001


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def _square(q: int) -> int:
    """``q**2`` mod the characteristic polynomial, over GF(2)."""
    q = int("0".join(bin(q)[2:]), 2)  # a square over GF(2) spreads the bits
    while q.bit_length() > 256:
        q ^= _CHARPOLY << q.bit_length() - 257
    return q


def _power_of_x(n: int) -> int:
    """``x**n`` mod the characteristic polynomial: the jump ``n`` words ahead."""
    q = 1
    for bit in bin(n)[2:]:
        q = _square(q)
        if bit == "1":
            q <<= 1
            if q >> 256:
                q ^= _CHARPOLY
    return q


def _ones(lanes: int) -> int:
    """Bit 0 of each of ``lanes`` slots."""
    return ((1 << _SLOT * lanes) - 1) // ((1 << _SLOT) - 1)


def _step(s0: int, s1: int, s2: int, s3: int, lo19: int, lo47: int) -> tuple[int, int, int, int]:
    """One xoshiro256 state update of every lane."""
    t = (s1 & lo47) << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    low = s3 & lo19
    return s0, s1, s2, low << 45 | (s3 ^ low) >> 19


class Xoshiro256StarStar:
    """xoshiro256** 1.0, seeded through splitmix64, stepped in packed lanes.

    Each state word holds one 72-bit slot per lane: lane ``j``'s 64-bit
    word in bits ``72 j`` to ``72 j + 63``, with zero guard bits above.
    Every shifted operand is masked before the shift, so no bit crosses
    into the next slot, and one step of the four ints steps every lane.
    A new generator has one lane; :meth:`split` adds more.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValidationError("seed must be an unsigned 64-bit integer")
        sm = seed
        state = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            state.append(word)
        self._s = tuple(state)
        self._lanes = 1

    def split(self, lanes: int, stride: int) -> None:
        """Double the lanes until there are at least ``lanes``.

        Each doubling appends the lanes held so far, jumped ahead by
        ``stride`` words per lane held, so that from one lane, lane ``j``
        starts ``j * stride`` words into the stream.
        """
        jump = _power_of_x(stride * self._lanes)
        while self._lanes < lanes:
            ones = _ones(self._lanes)
            lo19, lo47 = ones * _LO19, ones * _LO47
            ahead = (0, 0, 0, 0)
            for bit in bin(jump)[2:]:  # Horner's rule: ahead = jump(update) applied to the state
                ahead = _step(*ahead, lo19, lo47)
                if bit == "1":
                    ahead = tuple(a ^ s for a, s in zip(ahead, self._s))
            self._s = tuple(s | a << _SLOT * self._lanes for s, a in zip(self._s, ahead))
            self._lanes *= 2
            jump = _square(jump)

    def words(self, n: int):
        """Yield the next ``n`` output words of every lane, lane ``j`` in slot ``j``.

        With one lane these are the plain 64-bit words of the stream.  The
        state lives in locals while the generator runs and is written back
        when it finishes or is closed, after the last word yielded.
        """
        ones = _ones(self._lanes)
        lo19, lo47, lo57, hi7, word64 = (ones * m for m in (_LO19, _LO47, _LO57, _HI7, _MASK64))
        s0, s1, s2, s3 = self._s
        try:
            for _ in range(n):
                x = s1 * 5
                word = ((x & lo57) << 7 | (x & hi7) >> 57) * 9 & word64
                s0, s1, s2, s3 = _step(s0, s1, s2, s3, lo19, lo47)
                yield word
        finally:
            self._s = (s0, s1, s2, s3)


class SimulationResult(_Record):
    """Counts and frequencies next to the exact target probabilities."""

    __slots__ = _fields = ("shots", "seed", "counts", "frequencies", "probabilities", "std_errors")


def _draw_counts(probabilities: tuple[Fraction, ...], shots: int, seed: int) -> list[int]:
    """Outcome counts of ``shots`` inverse-CDF draws from the stream of ``seed``.

    Outcome ``j`` takes a word when it reaches the ``j`` thresholds below
    it but not the next; the last outcome has no threshold.  A word
    reaches threshold ``T`` when adding ``2**64 - T`` carries into bit 64
    of its slot.
    """
    counts = [0] * len(probabilities)
    support = [j for j, p in enumerate(probabilities) if p]
    if len(support) == 1:
        counts[support[0]] = shots
        return counts
    # doubling only while lanes * 1024 <= shots keeps stride * (lanes - 1) < shots:
    # every lane but the last is full and the last holds at least one word
    lanes = 1
    while lanes < 256 and lanes * 1024 <= shots:
        lanes *= 2
    stride = -(-shots // lanes)
    rng = Xoshiro256StarStar(seed)
    rng.split(lanes, stride)
    ones = _ones(lanes)
    full = shots - (lanes - 1) * stride  # steps with a word in the last lane
    addends = []
    acc = Fraction(0)
    for p in probabilities[:-1]:
        acc += p
        addends.append(ones * ((1 << 64) - (ceil(float(acc) * 2.0**53) << 11)))
    reached = [shots] + [0] * len(addends) + [0]
    for step, word in enumerate(rng.words(stride)):
        live = ones if step < full else ones >> _SLOT
        for j, addend in enumerate(addends, 1):
            reached[j] += ((word + addend) >> 64 & live).bit_count()
    return [reached[j] - reached[j + 1] for j in range(len(counts))]


def simulate_measurement(
    state: QuantumState, projectors: list[ExactMatrix], shots: int, seed: int
) -> SimulationResult:
    """Draw ``shots`` outcomes of the projective measurement under ``state``.

    The projectors must pass :func:`ctxkit.exact.projector_failures`, the
    check the witness observables pass; the first failure is named in the
    raised :class:`ValidationError`.
    Sampling is inverse-CDF over the exact outcome probabilities with one
    xoshiro256** stream per call, so counts are a pure function of
    (state, projectors, shots, seed).
    """
    if shots < 0:
        raise ValidationError("shots must be non-negative")
    if not projectors:
        raise ValidationError("at least one projector is required")
    failures = projector_failures(projectors, state.dim)
    if failures:
        raise ValidationError(f"the projectors fail the condition {failures[0]}")
    probabilities = tuple(state.outcome_probability(p) for p in projectors)
    if sum(probabilities) != 1:
        raise AssertionError("exact outcome probabilities must sum to 1")
    counts = _draw_counts(probabilities, shots, seed)
    frequencies = tuple(c / shots if shots else 0.0 for c in counts)
    std_errors = tuple(
        sqrt(float(p) * float(1 - p) / shots) if shots else 0.0 for p in probabilities
    )
    return SimulationResult(
        shots=shots,
        seed=seed,
        counts=tuple(counts),
        frequencies=frequencies,
        probabilities=probabilities,
        std_errors=std_errors,
    )
