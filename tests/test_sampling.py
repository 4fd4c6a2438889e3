"""Deterministic Born-rule sampling."""

from __future__ import annotations

import hashlib
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ctxkit import (
    ExactMatrix,
    QuantumState,
    ValidationError,
    Xoshiro256StarStar,
    build_witness_observable,
    derive_paradoxes,
    rank1_projector,
    simulate_measurement,
    vec,
)
from ctxkit.sampling import _CHARPOLY, _draw_counts, _splitmix64

# first outputs of the splitmix64 reference implementation seeded with 0
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

# golden stream of this package's seeded xoshiro256** generator
XOSHIRO_SEED0 = [
    11091344671253066420,
    13793997310169335082,
    1900383378846508768,
    7684712102626143532,
    13521403990117723737,
]


def test_splitmix64_reference_values():
    state = 0
    outputs = []
    for _ in range(3):
        state, word = _splitmix64(state)
        outputs.append(word)
    assert outputs == SPLITMIX64_SEED0


def test_xoshiro_stream_is_pinned():
    rng = Xoshiro256StarStar(0)
    assert list(rng.words(5)) == XOSHIRO_SEED0


MAX_SEED = MASK64 = (1 << 64) - 1
SEEDS = st.one_of(st.sampled_from([0, MAX_SEED]), st.integers(0, MAX_SEED))


@given(SEEDS, st.integers(0, 300), st.integers(0, 5))
def test_words_follow_the_reference_step(seed, n, after):
    rng = Xoshiro256StarStar(seed)
    reference = oracles.ReferenceXoshiro(seed)
    assert list(rng.words(n)) == [reference.next_uint64() for _ in range(n)]
    assert list(rng.words(after)) == [reference.next_uint64() for _ in range(after)]


def test_closed_words_generator_keeps_the_stream():
    rng = Xoshiro256StarStar(7)
    stream = list(Xoshiro256StarStar(7).words(5))
    words = rng.words(5)
    assert [next(words), next(words)] == stream[:2]
    words.close()
    (word,) = rng.words(1)
    assert word == stream[2]


def test_characteristic_polynomial_is_pinned():
    assert oracles.xoshiro_charpoly() == _CHARPOLY
    assert _CHARPOLY.bit_length() == 257


@pytest.mark.parametrize("jump", [0, 1, 255, 256, 257, 100_000])
def test_jump_equals_reference_steps(jump):
    rng = Xoshiro256StarStar(MAX_SEED)
    rng.split(2, jump)
    reference = oracles.ReferenceXoshiro(MAX_SEED)
    start = list(reference._s)
    for _ in range(jump):
        reference.next_uint64()
    assert [s & MASK64 for s in rng._s] == start
    assert [s >> 72 for s in rng._s] == reference._s


@given(SEEDS, st.sampled_from([1, 2, 4, 8]), st.integers(0, 40), st.integers(0, 40))
def test_lanes_follow_the_reference_stream(seed, lanes, stride, n):
    rng = Xoshiro256StarStar(seed)
    rng.split(lanes, stride)
    reference = oracles.ReferenceXoshiro(seed)
    stream = [reference.next_uint64() for _ in range((lanes - 1) * stride + n)]
    expected = [sum(stream[j * stride + t] << 72 * j for j in range(lanes)) for t in range(n)]
    assert list(rng.words(n)) == expected


def test_seed_range_validated():
    with pytest.raises(ValidationError):
        Xoshiro256StarStar(-1)
    with pytest.raises(ValidationError):
        Xoshiro256StarStar(1 << 64)


def axis_projectors():
    return [rank1_projector(vec(*row)) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def test_counts_sum_to_shots():
    state = QuantumState.pure(vec(1, 1, 1))
    result = simulate_measurement(state, axis_projectors(), shots=5000, seed=3)
    assert sum(result.counts) == 5000
    assert result.probabilities == (Fraction(1, 3),) * 3


def test_zero_shots_is_fine():
    state = QuantumState.pure(vec(1, 0, 0))
    result = simulate_measurement(state, axis_projectors(), shots=0, seed=0)
    assert result.counts == (0, 0, 0)
    assert result.frequencies == (0.0, 0.0, 0.0)


def test_same_seed_same_counts_different_seed_differs():
    state = QuantumState.pure(vec(1, 1, 1))
    a = simulate_measurement(state, axis_projectors(), shots=2000, seed=9)
    b = simulate_measurement(state, axis_projectors(), shots=2000, seed=9)
    c = simulate_measurement(state, axis_projectors(), shots=2000, seed=10)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_witness_frequency_golden(yu_oh, yu_oh_assignments):
    # bit-reproducibility pin: seed 0, 10^5 shots of the witness event of
    # the first paradox of (1,1,1)
    state = QuantumState.pure(vec(1, 1, 1))
    witness = rank1_projector(yu_oh.rays[yu_oh.ray_index("vA")].vector)
    rest = ExactMatrix.identity(3) - witness
    result = simulate_measurement(state, [witness, rest], shots=100_000, seed=0)
    assert result.counts == (11196, 88804)
    assert result.probabilities[0] == Fraction(1, 9)
    assert _draw_counts((Fraction(1, 9), Fraction(8, 9)), 100_000, 0) == [11196, 88804]


def test_certain_outcome_is_always_drawn(yu_oh, yu_oh_assignments):
    state = QuantumState.pure(vec(1, 1, 1))
    paradox = derive_paradoxes(yu_oh, state, yu_oh_assignments).paradoxes[0]
    observable = build_witness_observable(yu_oh, paradox)
    result = simulate_measurement(state, list(observable.projectors), shots=2000, seed=17)
    assert result.counts == (0, 0, 2000)
    assert result.probabilities == (Fraction(0), Fraction(0), Fraction(1))


def test_projector_validation():
    state = QuantumState.pure(vec(1, 0, 0))
    incomplete = axis_projectors()[:2]
    with pytest.raises(ValidationError):
        simulate_measurement(state, incomplete, shots=10, seed=0)
    not_projector = ExactMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValidationError):
        simulate_measurement(state, [not_projector], shots=10, seed=0)


def test_density_state_sampling():
    third = Fraction(1, 3)
    rho = ExactMatrix.from_rows([[third, 0, 0], [0, third, 0], [0, 0, third]])
    state = QuantumState.density(rho)
    result = simulate_measurement(state, axis_projectors(), shots=9000, seed=1)
    assert sum(result.counts) == 9000
    assert result.probabilities == (third, third, third)
    for freq in result.frequencies:
        assert abs(freq - 1 / 3) < 0.05


def diagonal(entries) -> ExactMatrix:
    k = len(entries)
    return ExactMatrix.from_rows([[entries[i] if i == j else 0 for j in range(k)] for i in range(k)])


@pytest.mark.parametrize(
    "projectors, condition",
    [
        ([ExactMatrix.identity(2)], "P1 is 3x3"),
        ([ExactMatrix.from_rows([[1, 1, 0], [0, 0, 0], [0, 0, 0]]), diagonal([0, 1, 1])], "P1 hermitian"),
        ([diagonal([2, 0, 0]), diagonal([0, 1, 1])], "P1 idempotent"),
        ([diagonal([1, 0, 0]), diagonal([1, 1, 0]), diagonal([0, 0, 1])], "P1*P2 = 0"),
        ([diagonal([1, 0, 0]), diagonal([0, 1, 0])], "P1+P2 = I"),
    ],
    ids=["shape", "hermitian", "idempotent", "orthogonal", "complete"],
)
def test_simulate_names_the_first_failed_projector_condition(projectors, condition):
    state = QuantumState.pure(vec(1, 0, 0))
    with pytest.raises(ValidationError) as caught:
        simulate_measurement(state, projectors, shots=10, seed=0)
    assert str(caught.value) == f"the projectors fail the condition {condition}"


# 0, small weights and weights 10^25 times larger: their tiny shares make float
# cumulatives equal each other, 0 or 1
WEIGHTS = st.one_of(st.just(0), st.integers(1, 9), st.integers(10**25, 10**30))


@st.composite
def measurements(draw):
    """(probabilities, shots, seed) with 1 to 5 outcomes.

    Half of them put the first cumulative on the double of one drawn word,
    or half a step of 2**-53 above it (for doubles below 1/2, where that
    step is representable): the only places where comparing words with
    integer thresholds could part from comparing doubles with cumulatives.
    """
    seed = draw(SEEDS)
    shots = draw(st.integers(0, 2000))
    weights = draw(st.lists(WEIGHTS, min_size=1, max_size=5).filter(any))
    probabilities = [Fraction(w, sum(weights)) for w in weights]
    if shots and len(probabilities) > 1 and draw(st.booleans()):
        reference = oracles.ReferenceXoshiro(seed)
        for _ in range(draw(st.integers(0, shots - 1))):
            reference.next_uint64()
        top = reference.next_uint64() >> 11
        first = Fraction(2 * top + (top < 1 << 52 and draw(st.booleans())), 1 << 54)
        rest = probabilities[1:]
        probabilities = [first] + [(1 - first) * p / sum(rest) for p in rest] if any(rest) else [first, 1 - first]
    return probabilities, shots, seed


# the third seed-0 word lands on the first cumulative, or half a step below it
ON_WORD = Fraction(XOSHIRO_SEED0[2] >> 11, 1 << 53)
BELOW_HALF_STEP = ON_WORD + Fraction(1, 1 << 54)
# word 86 of seed 14 has 11 low zero bits, so it equals the threshold of this cumulative
ON_THRESHOLD = Fraction(16802887224628881408, 1 << 64)


@settings(max_examples=150, deadline=None)
@given(measurements())
@example(([Fraction(1)], 2000, 0))
@example(([Fraction(1), Fraction(0), Fraction(0)], 2000, MAX_SEED))
@example(([Fraction(0), Fraction(1), Fraction(0)], 2000, 0))
@example(([Fraction(0), Fraction(0), Fraction(1)], 1, 5))
@example(([Fraction(1, 3), Fraction(1, 10**30), Fraction(2, 3) - Fraction(1, 10**30)], 2000, 1))
@example(([Fraction(1, 10**30), Fraction(1, 10**30), Fraction(1) - Fraction(2, 10**30)], 2000, MAX_SEED))
@example(([Fraction(1) - Fraction(2, 10**30), Fraction(1, 10**30), Fraction(1, 10**30)], 2000, 3))
@example(([ON_WORD, 1 - ON_WORD], 3, 0))
@example(([BELOW_HALF_STEP, 1 - BELOW_HALF_STEP], 3, 0))
@example(([ON_THRESHOLD, 1 - ON_THRESHOLD], 87, 14))
def test_counts_match_the_per_draw_oracle(case):
    probabilities, shots, seed = case
    state = QuantumState.density(diagonal(probabilities))
    k = len(probabilities)
    projectors = [diagonal([int(i == j) for i in range(k)]) for j in range(k)]
    result = simulate_measurement(state, projectors, shots, seed)
    assert result.probabilities == tuple(probabilities)
    assert result.counts == oracles.sampled_counts(probabilities, shots, seed)


# shots on each side of every change in the lane count (doubled while
# lanes * 1024 <= shots, up to 256), so that each lane count runs with a full and
# with a short last lane
LANE_BOUNDARY_SHOTS = [2**m * 1024 + d for m in range(9) for d in (-1, 0, 1)] + [100_001]
OUTCOME_WEIGHTS = [(1, 8), (2, 3, 4), (1, 0, 5, 3), (3, 1, 4, 1, 5)]
LANE_SEEDS = [0, MAX_SEED, 0x3C6EF372FE94F82B]


@pytest.mark.parametrize("i, shots", list(enumerate(LANE_BOUNDARY_SHOTS)), ids=[str(s) for s in LANE_BOUNDARY_SHOTS])
def test_lane_draw_matches_the_per_draw_oracle_across_lane_counts(i, shots):
    weights = OUTCOME_WEIGHTS[i % len(OUTCOME_WEIGHTS)]
    probabilities = tuple(Fraction(w, sum(weights)) for w in weights)
    seed = LANE_SEEDS[i % len(LANE_SEEDS)]
    assert tuple(_draw_counts(probabilities, shots, seed)) == oracles.sampled_counts(probabilities, shots, seed)


# SHA-256 of the script's stdout with --shots 20000 --seed 0
SUCCESS_PROBABILITY_SHA256 = "b0f6095aea180de00ff6649b615b1b66e2662abd184bdad03696f3fae6915209"


def test_success_probability_script_output_is_pinned(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "estimate_success_probability.py"
    main = runpy.run_path(str(script), run_name="estimate_success_probability")["main"]
    monkeypatch.setattr(sys, "argv", [script.name, "--shots", "20000", "--seed", "0"])
    assert main() == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SUCCESS_PROBABILITY_SHA256
