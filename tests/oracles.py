"""Slow, obvious reference implementations the fast paths are tested against.

``rank`` and ``nullspace`` are exact Gauss-Jordan elimination over
``ExactScalar`` entries, with ``Fraction`` keeping every intermediate in
lowest terms.  They take the same arguments as :func:`ctxkit.exact.rank`
and :func:`ctxkit.exact.nullspace`, so tests can patch them in.
"""

from __future__ import annotations

from typing import Sequence

from ctxkit.exact import ONE, ZERO, ExactScalar, ExactVector, canonical_ray


def _rref(m: list[list[ExactScalar]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns."""
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not m[i][c].is_zero), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _constraint_matrix(rows: Sequence[ExactVector]) -> list[list[ExactScalar]]:
    # <row|psi> = sum_j conj(row_j) psi_j, so the coefficient row is conj(row).
    return [[c.conjugate() for c in row.coords] for row in rows]


def rank(rows: Sequence[ExactVector], dim: int | None = None) -> int:
    return len(_rref(_constraint_matrix(rows)))


def nullspace(rows: Sequence[ExactVector], dim: int | None = None) -> list[ExactVector]:
    d = rows[0].dim if rows else dim
    m = _constraint_matrix(rows)
    pivots = _rref(m)
    basis = []
    for fc in (c for c in range(d) if c not in pivots):
        coords = [ZERO] * d
        coords[fc] = ONE
        for i, pc in enumerate(pivots):
            coords[pc] = -m[i][fc]
        basis.append(canonical_ray(ExactVector(tuple(coords))))
    return basis
