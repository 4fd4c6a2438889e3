"""Kochen-Specker assignments (global events) of a scenario.

A KS-assignment is a 0/1 labelling of the rays such that

* (O) no two orthogonal rays are both labelled 1, and
* (C) every basis context carries exactly one label 1.

Deficient contexts automatically carry at most one label 1 by (O).  The
support of an assignment is its set of label-1 rays; supports double as
the "global event" sets of the contextuality analysis, as the int ``mask``
(bit i set iff ray i is labelled 1), transposed, as one int per ray
over the events: ``by_ray`` of the :class:`GlobalEvents` the enumerator returns,
whose ``holding(ray)`` lists the events of a ray from its column,
and packed, as one int of every event's ``mask``: its ``rows``; their OR is its ``union``.

:func:`enumerate_assignments` searches basis by basis on ray bitmasks,
the scenario's ``neighbours``, ``bases`` and ``free``, honouring (O) and (C) along the way.  The tests hold it to a
basis-product enumerator and to an exhaustive sweep over all bit
strings, both kept with their direct check of (O) and (C) in
``tests/oracles.py``.

Output order is lexicographic on the sorted support tuples, which keeps
assignment numbering stable across runs and matches the usual tabulation
of the bundled 13-ray scenario.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property, reduce
from itertools import chain, compress
from operator import or_

from .errors import ValidationError
from .exact import _Record
from .scenario import Scenario, _bits, _mask


class KSAssignment(_Record):
    """A 0/1 labelling of the rays, index-aligned with the scenario; ``mask`` is its support as an int."""

    __slots__ = ("bits", "mask")
    _fields = ("bits",)

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        if not {*bits} <= {0, 1}:
            raise ValidationError("assignment bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "mask", _mask(bytes(bits)))

    @classmethod
    def _of_mask(cls, mask: int, n: int) -> "KSAssignment":
        """The assignment of ``n`` rays with support ``mask``, whose bits are 0/1 by construction."""
        assignment = cls.__new__(cls)
        # the marker bit n keeps the high zeros
        object.__setattr__(assignment, "bits", tuple(_bits(mask | 1 << n)[:n]))
        object.__setattr__(assignment, "mask", mask)
        return assignment

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.bits)), self.bits))


class GlobalEvents(tuple):
    """The KS-assignments in order; bit j of ``by_ray[i]`` is set iff event j holds ray i.
    ``by_ray``, ``rows`` and ``union`` are kept from first use, on a tuple so that no event changes
    under them; wrapping one returns it."""

    def __new__(cls, events: Iterable[KSAssignment] = ()):
        return events if type(events) is cls else super().__new__(cls, events)

    @cached_property
    def by_ray(self) -> tuple[int, ...]:
        n = len(self[0].bits) if self else 0
        # event j's bits as the bytes j * n .. j * n + n - 1, so ray i's column is every n-th byte from i
        flat = bytes(chain.from_iterable(a.bits for a in self))
        return tuple(_mask(flat[i::n]) for i in range(n))

    @cached_property
    def rows(self) -> tuple[int, int, int]:
        """``(rows, ones, n)``: event j's ``mask`` in slot j of ``rows``, ``ones`` with bit 0 of every slot
        set, and the ray count ``n``.  A slot has ``8 * (n // 8 + 1)`` bits, at least n + 1, so a carry or
        borrow at a slot's bit n stays in its own slot.  Built from ``mask``, never from ``by_ray``."""
        n = len(self[0].bits) if self else 0
        step = n // 8 + 1
        rows = int.from_bytes(b"".join(a.mask.to_bytes(step, "little") for a in self), "little")
        ones = int.from_bytes((b"\1" + bytes(step - 1)) * len(self), "little")
        return rows, ones, n

    @cached_property
    def union(self) -> int:
        """The rays that some event holds: the OR of every ``mask``, never read from ``by_ray``."""
        return reduce(or_, (a.mask for a in self), 0)

    def holding(self, ray: int) -> list[KSAssignment]:
        """The events that hold ray index ``ray``, in order, read from its column; none if there are no events."""
        return list(compress(self, _bits(self.by_ray[ray] if self else 0)))

    def columns(self, rays: int) -> list[tuple[int, int]]:
        """``(z, by_ray[z])`` for each ray ``z`` of the ray mask ``rays``, in order; only those columns are read."""
        return list(compress(enumerate(self.by_ray), _bits(rays)))

    _missing = (-1, 0)

    def missing(self, zeros: int) -> int:
        """The events that hold no ray of the ray mask ``zeros``, as a mask over the events; only the columns of
        its set bits are read, not the pairs of ``columns``, whose tuples make each call about 25% slower.  The
        last ``(zeros, miss)`` is kept: the verdict, the oracle and the derivation of one state compute it once."""
        if self._missing[0] != zeros:
            self._missing = (zeros, (1 << len(self)) - 1 & ~reduce(or_, compress(self.by_ray, _bits(zeros)), 0))
        return self._missing[1]


def enumerate_assignments(scenario: Scenario) -> GlobalEvents:
    """All KS-assignments, by a basis-first search over ray bitmasks.

    Each state of the search is a pair of masks: the rays set to 1 and
    the rays set to 0.  A step takes the basis without a 1 that has the
    fewest undecided rays and branches on which of them is its 1; setting
    a ray to 1 sets its neighbours to 0.  Once every basis has its 1, the
    rays outside every basis branch on 0 and 1.  The search keeps an
    explicit stack, so its depth is not bounded by the recursion limit.

    An empty result is a valid outcome and signals a KS-uncolorable set.
    """
    n, neighbours, bases, outside = len(scenario.rays), scenario.neighbours, scenario.bases, scenario.free
    found: list[KSAssignment] = []
    stack = [(0, 0)]
    while stack:
        ones, zeros = stack.pop()
        open_bases = [b & ~zeros for b in bases if not b & ones]
        if open_bases:
            # an empty candidate mask is a basis that can no longer get its 1: no branch
            candidates = min(open_bases, key=int.bit_count)
            while candidates:
                ray = candidates & -candidates
                candidates ^= ray
                stack.append((ones | ray, zeros | neighbours[ray.bit_length() - 1]))
        elif free := outside & ~(ones | zeros):
            ray = free & -free
            stack.append((ones, zeros | ray))
            stack.append((ones | ray, zeros | neighbours[ray.bit_length() - 1]))
        else:
            found.append(KSAssignment._of_mask(ones, n))
    found.sort(key=lambda a: a.support)
    return GlobalEvents(found)

