"""Scenario files for the benchmark, generated in place with no downloads.

The integer box family: candidates come from
``itertools.product(range(-m, m + 1), repeat=d)``; the primitive ones
(gcd 1) whose first non-zero entry is positive are kept, in that order.
``EXPECTED`` holds the known counts of every scenario the workloads use;
the ray counts are asserted here, the graph, context and assignment
counts by every set-up probe and the report counts on every report, so a
generator change cannot silently change a workload.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import NamedTuple

YU_OH = Path("src/ctxkit/data/yu-oh.scenario")


class Counts(NamedTuple):
    """Known counts of a scenario; ``None`` where no output reports them."""

    rays: int
    edges: int
    contexts: int
    bases: int
    assignments: int
    unassigned: int  # rays that lie in no assignment
    states: int | None  # logically contextual pure states
    paradoxes: int | None


EXPECTED = {
    "yu-oh": Counts(13, 24, 16, 4, 24, 0, 4, 12),
    "yu-oh-gaussian": Counts(13, 24, 16, 4, 24, 0, 4, 12),
    "box-d3-m2-n32": Counts(32, 61, 33, 14, 1024, 8, None, None),
    "box-d4-m1-n32": Counts(32, 141, 62, 10, 216, 0, None, None),
}

# The skew-Hermitian A of the Cayley transform U = (I - A)(I + A)^-1.
_A = (
    ("0+1/2i", "1/3+1/4i", "-1/5"),
    ("-1/3+1/4i", "0-1/3i", "1/2+1/7i"),
    ("1/5", "-1/2+1/7i", "0+1/6i"),
)


def box_rays(d: int, m: int) -> list[tuple[int, ...]]:
    return [
        v
        for v in itertools.product(range(-m, m + 1), repeat=d)
        if any(v) and math.gcd(*v) == 1 and next(x for x in v if x) > 0
    ]


def parse_integer_rays(text: str) -> tuple[list[str], list[tuple[int, ...]]]:
    """Labels and rays of a rational scenario file with integer coordinates."""
    labels, rays = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("#", "scenario ")):
            continue
        label, _, coords = line.partition(":")
        labels.append(label.strip())
        rays.append(tuple(int(c) for c in coords.split(",")))
    return labels, rays


def cayley_unitary():
    """U = (I + A)^-1 (I - A) over Q(i), by Gauss-Jordan on [I + A | I - A]."""
    from ctxkit.exact import parse_scalar

    a = [[parse_scalar(x) for x in row] for row in _A]
    n = len(a)
    one, zero = parse_scalar("1"), parse_scalar("0")
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    m = [[eye[i][j] + a[i][j] for j in range(n)] + [eye[i][j] - a[i][j] for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if not m[r][c].is_zero)
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and not m[r][c].is_zero:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def gaussian_yu_oh(labels, rays) -> str:
    """yu-oh mapped by U and canonicalised, with the labels kept."""
    from ctxkit.exact import ExactVector, canonical_ray, parse_scalar

    u = cayley_unitary()
    lines = ["scenario yu-oh-gaussian dim 3 field gaussian"]
    for label, ray in zip(labels, rays):
        image = ExactVector(tuple(sum((u[i][j] * ray[j] for j in range(3)), parse_scalar("0")) for i in range(3)))
        lines.append(f"{label}: {','.join(str(c) for c in canonical_ray(image).coords)}")
    return "\n".join(lines) + "\n"


def scenario_text(name: str, rays) -> str:
    lines = [f"scenario {name} dim {len(rays[0])} field rational"]
    lines += [f"r{i + 1}: {','.join(str(c) for c in ray)}" for i, ray in enumerate(rays)]
    return "\n".join(lines) + "\n"


def generate(root: Path, out: Path) -> dict[str, Path]:
    """Write every generated scenario under ``out``; returns name -> path."""
    labels, yu_oh = parse_integer_rays((root / YU_OH).read_text(encoding="utf-8"))
    signed = {tuple(c * (1 if next(x for x in r if x) > 0 else -1) for c in r) for r in yu_oh}
    if set(box_rays(3, 1)) != signed:
        raise AssertionError("box-d3-m1 is not yu-oh as a set")
    d3m2, d4m1 = box_rays(3, 2), box_rays(4, 1)
    texts = {
        "yu-oh-gaussian": gaussian_yu_oh(labels, yu_oh),
        "box-d3-m2-n32": scenario_text("box-d3-m2-n32", d3m2[:32]),
        "box-d4-m1-n32": scenario_text("box-d4-m1-n32", d4m1[:32]),
    }
    for name, text in texts.items():
        rays = sum(1 for line in text.splitlines()[1:] if line)
        if rays != EXPECTED[name].rays:
            raise AssertionError(f"{name}: {rays} rays, expected {EXPECTED[name].rays}")
    out.mkdir(parents=True, exist_ok=True)
    paths = {"yu-oh": root / YU_OH}
    for name, text in texts.items():
        paths[name] = out / f"{name}.scenario"
        paths[name].write_text(text, encoding="utf-8")
    return paths
