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
them a neighbour of the core event's rays.  :func:`enumerate_assignments`
searches basis by basis on ray bitmasks, the scenario's ``neighbours`` and
``bases``, honouring (O) and (C) along the way, for the core events, and
returns them as a :class:`GlobalEvents`.  The state checks read only the
core events, which are far fewer (8 under 1024 events on the 32-ray
box-d3-m2 prefix, 247 under 715,200 on the 48-ray box-d3-m3 prefix); the
events, each core event with the independent sets of the free rays it
leaves open, are expanded only as masks or where a command prints them.  The
tests hold the listing to a basis-product enumerator and to an exhaustive
sweep over all bit strings, both kept with their direct check of (O) and
(C) in ``tests/oracles.py``.

Output order is lexicographic on the sorted support tuples, which keeps
assignment numbering stable across runs and matches the usual tabulation
of the bundled 13-ray scenario.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property, reduce
from itertools import compress
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


class GlobalEvents:
    """The core events of a scenario of ``n`` rays, and the KS-assignments they expand to.

    ``core`` holds the core events' masks, ``free`` the rays in no basis and
    ``neighbours`` the scenario's neighbour masks; with ``free = 0`` each
    core event is an event.  ``compatible``, ``missing``, ``columns``,
    ``rows`` and ``clear_of`` answer from the core events; ``analyses`` keeps
    each checked zero mask's :func:`ctxkit.contextuality._analysis`.  ``held``
    expands them into masks; ``listing``, the events in order, and
    ``holding`` into records, for the commands that print events;
    iterating, ``len`` and indexing read ``listing``.  The cached attributes
    are kept from first use.
    """

    def __init__(self, n: int, core: Iterable[int], free: int, neighbours: tuple[int, ...]):
        self.n, self.core, self.free, self.neighbours = n, tuple(core), free, neighbours
        self.analyses: dict[int, tuple] = {}

    def _expand(self, core: Iterable[int]) -> list[int]:
        """The masks of the events of the core events ``core``, unsorted: each core event with every independent set
        of the free rays outside it that hold none of its neighbours."""
        free = [(1 << f, self.neighbours[f] | 1 << f) for f in _rays(self.free)]
        extensions: dict[int, list[int]] = {}
        masks = []
        for c in core:
            allowed = sum(bit for bit, near in free if not c & near)
            if (sets := extensions.get(allowed)) is None:
                sets = extensions[allowed] = _independent_sets(allowed, self.neighbours)
            masks += [c | s for s in sets]
        return masks

    def _records(self, masks: list[int]) -> list[KSAssignment]:
        masks.sort(key=_rays)
        return [KSAssignment._of_mask(m, self.n) for m in masks]

    @cached_property
    def listing(self) -> list[KSAssignment]:
        """Every event, in order."""
        return self._records(self._expand(self.core))

    def __iter__(self):
        return iter(self.listing)

    def __len__(self) -> int:
        return len(self.listing)

    def __getitem__(self, index):
        return self.listing[index]

    @cached_property
    def compatible(self) -> tuple[int, ...]:
        """Ray i's column over the core events: bit j is set iff some event of core event j holds ray i.

        For a basis ray that is core event j holding it; for a free ray, core
        event j holding none of its neighbours, since the event that adds
        the free ray alone to core event j then holds it.  With no core
        events every column is 0.
        """
        n, core, neighbours = self.n, self.core, self.neighbours
        # core event j's bits as the bytes j * n .. j * n + n - 1, so ray i's column is every n-th byte from i
        flat = b"".join(_bits(c | 1 << n)[:n] for c in core)
        columns = [_mask(flat[i::n]) for i in range(n)]
        for f in _rays(self.free):
            columns[f] = _mask(bytes(not c & neighbours[f] for c in core))
        return tuple(columns)

    @cached_property
    def rows(self) -> tuple[int, int]:
        """``(rows, ones)``: core event j's mask in slot j of ``rows``, and ``ones`` with bit 0 of every slot set.
        A slot has ``8 * (n // 8 + 1)`` bits, at least n + 1, so a carry or borrow at a slot's bit n stays in its own
        slot.  Built from ``core``, never from the columns."""
        step = self.n // 8 + 1
        rows = int.from_bytes(b"".join(c.to_bytes(step, "little") for c in self.core), "little")
        ones = int.from_bytes((b"\1" + bytes(step - 1)) * len(self.core), "little")
        return rows, ones

    def clear_of(self, ray: int) -> int:
        """Bit n of each slot of ``rows`` whose core event holds none of the free ray ``ray``'s neighbours, so that
        the event adding ``ray`` alone to it holds ``ray``: the packed form of ``compatible[ray]``, made from ``rows``
        and never from the columns."""
        rows, ones = self.rows
        top = ones << self.n
        # each slot's 2^n less its bits among the neighbours borrows from no other slot
        return top - (rows & self.neighbours[ray] * ones) & top

    def held(self, ray: int) -> list[int]:
        """The masks of the events that hold ray index ``ray``, unsorted: those of the core events its column marks,
        each with ``ray`` added, which a basis ray's core events hold already."""
        return self._expand(c | 1 << ray for c in compress(self.core, _bits(self.compatible[ray])))

    def holding(self, ray: int) -> list[KSAssignment]:
        """The events that hold ray index ``ray``, in order."""
        return self._records(self.held(ray))

    def columns(self, rays: int) -> list[tuple[int, int]]:
        """``(z, compatible[z])`` for each basis ray ``z`` of the ray mask ``rays``, in order; only those columns are
        read.  A free ray hits no core event: the event that adds no free ray to a core event holds none."""
        return list(compress(enumerate(self.compatible), _bits(rays & ~self.free)))

    def missing(self, zeros: int) -> int:
        """The core events that hold no ray of the ray mask ``zeros``, as a mask over the core events: some event of
        a core event misses ``zeros`` iff the core event alone does.  Only the columns of its basis rays are read,
        not the pairs of ``columns``, whose tuples make each call about 25% slower."""
        hit = reduce(or_, compress(self.compatible, _bits(zeros & ~self.free)), 0)
        return (1 << len(self.core)) - 1 & ~hit


def enumerate_assignments(scenario: Scenario) -> GlobalEvents:
    """All KS-assignments, as their core events, by a basis-first search over ray bitmasks.

    Each state of the search is a pair of masks: the rays set to 1 and
    the rays set to 0.  A step takes the basis without a 1 that has the
    fewest undecided rays and branches on which of them is its 1; setting
    a ray to 1 sets its neighbours to 0.  Once every basis has its 1, the
    ones are a core event; :class:`GlobalEvents` adds the free rays when
    the events are listed.  The search keeps an explicit stack, so its
    depth is not bounded by the recursion limit.

    No core event is a valid outcome and signals a KS-uncolorable set.
    """
    neighbours, bases = scenario.neighbours, scenario.bases
    core = []
    stack = [(0, 0)]
    while stack:
        ones, zeros = stack.pop()
        open_bases = [b & ~zeros for b in bases if not b & ones]
        if not open_bases:
            core.append(ones)
            continue
        # an empty candidate mask is a basis that can no longer get its 1: no branch
        candidates = min(open_bases, key=int.bit_count)
        while candidates:
            ray = candidates & -candidates
            candidates ^= ray
            stack.append((ones | ray, zeros | neighbours[ray.bit_length() - 1]))
    return GlobalEvents(len(scenario.rays), sorted(core, key=_rays), scenario.free, neighbours)


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
