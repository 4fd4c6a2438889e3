"""Kochen-Specker assignments (global events) of a scenario.

A KS-assignment is a 0/1 labelling of the rays such that

* (O) no two orthogonal rays are both labelled 1, and
* (C) every basis context carries exactly one label 1.

Deficient contexts automatically carry at most one label 1 by (O).  The
support of an assignment is its set of label-1 rays; supports double as
the "global event" sets of the contextuality analysis, as the int ``mask``
(bit i set iff ray i is labelled 1).

Every event is a *core event*, its labelling of the rays that lie in some
basis, plus an independent set of the rays in no basis (``free``), none of
them a neighbour of the core event's rays.  The state checks read the
core events of the :class:`GlobalEvents` the enumerator returns, which are
far fewer (8 under 1024 events on the 32-ray box-d3-m2 prefix).

:func:`enumerate_assignments` searches basis by basis on ray bitmasks,
the scenario's ``neighbours`` and ``bases``, honouring (O) and (C) along
the way, for the core events, then adds the independent sets of the free
rays to each.  The tests hold it to a basis-product enumerator and to an
exhaustive sweep over all bit strings, both kept with their direct check
of (O) and (C) in ``tests/oracles.py``.

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
from .scenario import Scenario, _bits, _mask, _rays


class KSAssignment(_Record):
    """A 0/1 labelling of the rays, index-aligned with the scenario; ``mask`` is its support as an int."""

    __slots__ = ("bits", "mask")
    _fields = ("bits",)

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        if not {*bits} <= {0, 1}:
            raise ValidationError("assignment bits must be 0 or 1")
        self._fill(bits, _mask(bytes(bits)))

    @classmethod
    def _of_mask(cls, mask: int, n: int) -> "KSAssignment":
        """The assignment of ``n`` rays with support ``mask``, whose bits are 0/1 by construction."""
        assignment = cls.__new__(cls)
        # the marker bit n keeps the high zeros
        assignment._fill(tuple(_bits(mask | 1 << n)[:n]), mask)
        return assignment

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.bits)), self.bits))


class GlobalEvents(tuple):
    """The KS-assignments in order, and the core events they factor into.

    :func:`enumerate_assignments` sets ``core``, the core events' masks, with
    the scenario's ``free`` and ``neighbours``; a tuple of a bare list of
    events has ``free = 0``, so each event is its own core event.
    ``compatible``, ``missing``, ``columns``, ``rows`` and ``union`` answer
    from the core events; ``by_ray`` and ``holding`` read every event, for
    the listings.  The cached attributes are kept from first use, on a tuple
    so that no event changes under them; wrapping one returns it.
    """

    free = 0
    neighbours: tuple[int, ...] = ()

    def __new__(cls, events: Iterable[KSAssignment] = ()):
        return events if type(events) is cls else super().__new__(cls, events)

    @cached_property
    def core(self) -> tuple[int, ...]:
        """The core events' masks: each event's ``mask``, in order, unless :func:`enumerate_assignments` set them."""
        return tuple(a.mask for a in self)

    @cached_property
    def compatible(self) -> tuple[int, ...]:
        """Ray i's column over the core events: bit j is set iff some event of core event j holds ray i.

        For a basis ray that is core event j holding it; for a free ray, core
        event j holding none of its neighbours, since the event that adds
        the free ray alone to core event j then holds it.  With no events
        there are no columns, as for ``by_ray``.
        """
        if not self:
            return ()
        n, core, neighbours = len(self[0].bits), self.core, self.neighbours
        # core event j's bits as the bytes j * n .. j * n + n - 1, so ray i's column is every n-th byte from i
        flat = b"".join(_bits(c | 1 << n)[:n] for c in core)
        columns = [_mask(flat[i::n]) for i in range(n)]
        for f in _rays(self.free):
            columns[f] = _mask(bytes(not c & neighbours[f] for c in core))
        return tuple(columns)

    @cached_property
    def by_ray(self) -> tuple[int, ...]:
        """Bit j of ``by_ray[i]`` is set iff event j holds ray i: the columns over every event, for the listings."""
        n = len(self[0].bits) if self else 0
        # event j's bits as the bytes j * n .. j * n + n - 1, so ray i's column is every n-th byte from i
        flat = bytes(chain.from_iterable(a.bits for a in self))
        return tuple(_mask(flat[i::n]) for i in range(n))

    @cached_property
    def rows(self) -> tuple[int, int, int]:
        """``(rows, ones, n)``: core event j's mask in slot j of ``rows``, ``ones`` with bit 0 of every slot set,
        and the ray count ``n``.  A slot has ``8 * (n // 8 + 1)`` bits, at least n + 1, so a carry or borrow at a
        slot's bit n stays in its own slot.  Built from ``core``, never from the columns."""
        n = len(self[0].bits) if self else 0
        step = n // 8 + 1
        rows = int.from_bytes(b"".join(c.to_bytes(step, "little") for c in self.core), "little")
        ones = int.from_bytes((b"\1" + bytes(step - 1)) * len(self.core), "little")
        return rows, ones, n

    @cached_property
    def union(self) -> int:
        """The rays that some event holds: the core events' rays, and each free ray that some core event holds none
        of the neighbours of; never read from the columns."""
        core, neighbours = self.core, self.neighbours
        held = reduce(or_, core, 0)
        for f in _rays(self.free):
            if not all(c & neighbours[f] for c in core):
                held |= 1 << f
        return held

    def clear_of(self, ray: int) -> int:
        """Bit n of each slot of ``rows`` whose core event holds none of the free ray ``ray``'s neighbours, so that
        the event adding ``ray`` alone to it holds ``ray``: the packed form of ``compatible[ray]``, made from ``rows``
        and never from the columns."""
        rows, ones, n = self.rows
        top = ones << n
        # each slot's 2^n less its bits among the neighbours borrows from no other slot
        return top - (rows & self.neighbours[ray] * ones) & top

    def holding(self, ray: int) -> list[KSAssignment]:
        """The events that hold ray index ``ray``, in order, read from its column; none if there are no events."""
        return list(compress(self, _bits(self.by_ray[ray] if self else 0)))

    def columns(self, rays: int) -> list[tuple[int, int]]:
        """``(z, compatible[z])`` for each basis ray ``z`` of the ray mask ``rays``, in order; only those columns are
        read.  A free ray hits no core event: the event that adds no free ray to a core event holds none."""
        return list(compress(enumerate(self.compatible), _bits(rays & ~self.free)))

    _missing = (-1, 0)

    def missing(self, zeros: int) -> int:
        """The core events that hold no ray of the ray mask ``zeros``, as a mask over the core events: some event of
        a core event misses ``zeros`` iff the core event alone does.  Only the columns of its basis rays are read,
        not the pairs of ``columns``, whose tuples make each call about 25% slower.  The last ``(zeros, miss)`` is
        kept: the verdict, the oracle and the derivation of one state compute it once."""
        if self._missing[0] != zeros:
            hit = reduce(or_, compress(self.compatible, _bits(zeros & ~self.free)), 0)
            self._missing = (zeros, (1 << len(self.core)) - 1 & ~hit)
        return self._missing[1]


def enumerate_assignments(scenario: Scenario) -> GlobalEvents:
    """All KS-assignments, by a basis-first search over ray bitmasks, then the free rays of each core event.

    Each state of the search is a pair of masks: the rays set to 1 and
    the rays set to 0.  A step takes the basis without a 1 that has the
    fewest undecided rays and branches on which of them is its 1; setting
    a ray to 1 sets its neighbours to 0.  Once every basis has its 1, the
    ones are a core event, which takes every independent set of the free
    rays not set to 0.  The searches keep an explicit stack, so their depth
    is not bounded by the recursion limit.

    An empty result is a valid outcome and signals a KS-uncolorable set.
    """
    n, neighbours, bases, free = len(scenario.rays), scenario.neighbours, scenario.bases, scenario.free
    core: list[tuple[int, int]] = []
    stack = [(0, 0)]
    while stack:
        ones, zeros = stack.pop()
        open_bases = [b & ~zeros for b in bases if not b & ones]
        if not open_bases:
            core.append((ones, zeros))
            continue
        # an empty candidate mask is a basis that can no longer get its 1: no branch
        candidates = min(open_bases, key=int.bit_count)
        while candidates:
            ray = candidates & -candidates
            candidates ^= ray
            stack.append((ones | ray, zeros | neighbours[ray.bit_length() - 1]))
    extensions: dict[int, list[int]] = {}
    masks = []
    for ones, zeros in core:
        allowed = free & ~zeros
        if (sets := extensions.get(allowed)) is None:
            sets = extensions[allowed] = _independent_sets(allowed, neighbours)
        masks += [ones | s for s in sets]
    masks.sort(key=_rays)
    events = GlobalEvents(KSAssignment._of_mask(m, n) for m in masks)
    vars(events).update(core=tuple(sorted((ones for ones, _ in core), key=_rays)), free=free, neighbours=neighbours)
    return events


def _independent_sets(rays: int, neighbours: tuple[int, ...]) -> list[int]:
    """Every set of the ray mask ``rays`` with no two members neighbours, the empty one included, as masks."""
    found = []
    stack = [(0, rays)]
    while stack:
        ones, open_rays = stack.pop()
        if not open_rays:
            found.append(ones)
            continue
        ray = open_rays & -open_rays
        open_rays ^= ray
        stack.append((ones, open_rays))
        stack.append((ones | ray, open_rays & ~neighbours[ray.bit_length() - 1]))
    return found
