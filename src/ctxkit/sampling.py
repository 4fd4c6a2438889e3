"""Seeded Born-rule measurement simulation.

Outcome probabilities are computed exactly as ``tr(rho P_i)``; floating
point enters only in the sampler's inverse-CDF step.  The pseudo-random
generator is pinned for bit-reproducible counts across platforms:

* state seeding: four rounds of **splitmix64** applied to the 64-bit seed;
* stream: **xoshiro256\\*\\*** (Blackman-Vigna, version 1.0), with doubles
  drawn from the top 53 bits of each output word.

Both generators are implemented here in pure integer arithmetic, so a
given seed yields the same outcome sequence everywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .contextuality import QuantumState
from .errors import ValidationError
from .exact import ExactMatrix

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


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
        """A double in [0, 1) built from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53


@dataclass(frozen=True)
class SimulationResult:
    """Counts and frequencies next to the exact target probabilities."""

    shots: int
    seed: int
    counts: tuple[int, ...]
    frequencies: tuple[float, ...]
    probabilities: tuple[Fraction, ...]
    std_errors: tuple[float, ...]


def _validate_projectors(projectors: list[ExactMatrix], dim: int):
    for idx, p in enumerate(projectors, start=1):
        if p.rows != dim or p.cols != dim:
            raise ValidationError(f"projector {idx} has the wrong shape")
        if not p.is_hermitian() or p @ p != p:
            raise ValidationError(f"projector {idx} is not an orthogonal projector")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            prod = projectors[i] @ projectors[j]
            if not prod.is_zero:
                raise ValidationError(f"projectors {i + 1} and {j + 1} are not orthogonal")
    total = projectors[0]
    for p in projectors[1:]:
        total = total + p
    if total != ExactMatrix.identity(dim):
        raise ValidationError("projectors must sum to the identity")


def simulate_measurement(
    state: QuantumState, projectors: list[ExactMatrix], shots: int, seed: int
) -> SimulationResult:
    """Draw ``shots`` outcomes of the projective measurement under ``state``.

    The projectors must be mutually orthogonal and sum to the identity.
    Sampling is inverse-CDF over the exact outcome probabilities with one
    xoshiro256** stream per call, so counts are a pure function of
    (state, projectors, shots, seed).
    """
    if shots < 0:
        raise ValidationError("shots must be non-negative")
    if not projectors:
        raise ValidationError("at least one projector is required")
    _validate_projectors(projectors, state.dim)
    probabilities = tuple((state.rho @ p).trace().as_fraction() for p in projectors)
    if sum(probabilities) != 1:
        raise AssertionError("exact outcome probabilities must sum to 1")
    cumulative = []
    acc = Fraction(0)
    for p in probabilities:
        acc += p
        cumulative.append(float(acc))
    rng = Xoshiro256StarStar(seed)
    counts = [0] * len(projectors)
    last = len(projectors) - 1
    for _ in range(shots):
        u = rng.random()
        counts[min(bisect_right(cumulative, u), last)] += 1
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
