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
integer threshold taken from the float cumulatives and a word is placed
by bisecting those thresholds; the counts equal those of comparing the
doubles.  When one outcome has probability 1 every draw lands in it, so
it takes every shot and no word is drawn.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import ceil, sqrt

from .contextuality import QuantumState
from .errors import ValidationError
from .exact import ExactMatrix, _Record, projector_failures

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** 1.0, seeded through splitmix64."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValidationError("seed must be an unsigned 64-bit integer")
        sm = seed
        state = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            state.append(word)
        self._s = state

    def words(self, n: int):
        """Yield the next ``n`` output words.

        The state lives in locals while the generator runs and is written
        back when it finishes or is closed, after the last word yielded.
        """
        s0, s1, s2, s3 = self._s
        m = _MASK64
        try:
            for _ in range(n):
                x = s1 * 5 & m
                word = ((x << 7 | x >> 57) & m) * 9 & m
                t = s1 << 17 & m
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = (s3 << 45 | s3 >> 19) & m
                yield word
        finally:
            self._s = [s0, s1, s2, s3]


class SimulationResult(_Record):
    """Counts and frequencies next to the exact target probabilities."""

    __slots__ = _fields = ("shots", "seed", "counts", "frequencies", "probabilities", "std_errors")


def _draw_counts(probabilities: tuple[Fraction, ...], shots: int, seed: int) -> list[int]:
    """Outcome counts of ``shots`` inverse-CDF draws from the stream of ``seed``.

    Outcome ``j`` takes a word when it reaches the ``j`` thresholds below
    it but not the next; the last outcome has no threshold.
    """
    counts = [0] * len(probabilities)
    support = [j for j, p in enumerate(probabilities) if p]
    if len(support) == 1:
        counts[support[0]] = shots
        return counts
    thresholds = []
    acc = Fraction(0)
    for p in probabilities[:-1]:
        acc += p
        thresholds.append(ceil(float(acc) * 2.0**53) << 11)
    for word in Xoshiro256StarStar(seed).words(shots):
        counts[bisect_right(thresholds, word)] += 1
    return counts


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
    probabilities = tuple((state.rho @ p).trace().as_fraction() for p in projectors)
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
