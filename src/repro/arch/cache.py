"""A set-associative cache operating on line addresses.

Addresses throughout the library are *cache line numbers* (integers);
byte offsets within a line never matter to the contention phenomena the
paper studies, so they are not modelled.  The set index is the low bits
of the line number, exactly as on real hardware where the line number is
the byte address shifted right by ``log2(line_bytes)``.

The cache does not fetch on miss by itself — miss handling (walking the
hierarchy, filling lines on the way back) is the job of
:class:`repro.arch.hierarchy.CacheHierarchy`.  This keeps the cache a
pure container with three verbs: :meth:`probe`, :meth:`fill`,
:meth:`invalidate`.
"""

from __future__ import annotations

import os
from array import array

import numpy as np

from ..config import CacheGeometry
from .replacement import ReplacementPolicy


def fast_lane_enabled() -> bool:
    """Whether the hot-path specializations are on (default yes).

    ``REPRO_FAST_LANE=0`` forces every cache and core onto the generic
    path — the reference the fast lane is benchmarked and property-
    tested against.  Read at object construction, not import, so tests
    can toggle it per instance.
    """
    return os.environ.get("REPRO_FAST_LANE", "1") != "0"


def vector_kernel_enabled() -> bool:
    """Whether the numpy vector kernel is on (default yes).

    ``REPRO_VECTOR_KERNEL=0`` disables the numpy classify/commit path —
    both the ``array('q')``-backed L3 storage (with its zero-copy numpy
    views) and the batched
    :meth:`repro.arch.hierarchy.CacheHierarchy.vector_classify`/
    :meth:`~repro.arch.hierarchy.CacheHierarchy.vector_commit` walks —
    leaving the production path's scalar batched walk
    (:meth:`~repro.arch.hierarchy.CacheHierarchy.access_many` over
    list-backed flat arrays).  That is how ``bench_simspeed`` isolates
    the vector kernel's contribution.  Only meaningful while the fast
    lane itself is enabled; like it, the flag is read at object
    construction.
    """
    return os.environ.get("REPRO_VECTOR_KERNEL", "1") != "0"


def bulk_kernel_enabled() -> bool:
    """Always true: the retired ``REPRO_BULK_KERNEL`` gate.

    Kept only for ``perfbench/run.py::check_gates``, its sole caller.
    """
    return True


def owner_arrays_enabled() -> bool:
    """Always true: the retired ``REPRO_OWNER_ARRAYS`` gate.

    Kept only for ``perfbench/run.py::check_gates``, its sole caller.
    """
    return True


def vector_fills_enabled() -> bool:
    """Always true: the retired ``REPRO_VECTOR_FILLS`` gate.

    Kept only for ``perfbench/run.py::check_gates``, its sole caller.
    """
    return True


def debug_invariants_enabled() -> bool:
    """Whether the opt-in ownership invariant checks are armed.

    ``REPRO_DEBUG_INVARIANTS=1`` makes the hierarchy assert, after
    every batch, that the active ownership store (reference dict or
    bitmask column) agrees with the L3 resident set and that the per-core
    occupancy vector equals the per-core owner-bit counts — the
    self-check the differential suite drives.  Off by default: the
    check walks the whole L3.  Read at object construction.
    """
    return os.environ.get("REPRO_DEBUG_INVARIANTS", "0") != "0"


#: Sentinel tag for an unoccupied flat-array slot.  Line addresses are
#: non-negative, so the sentinel can never collide with a real line.
_EMPTY = -1


class CacheStats:
    """Cumulative event counts of one cache."""

    __slots__ = ("hits", "misses", "fills", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        """Total probes observed (hits plus misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per probe; 0.0 for an untouched cache."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"fills={self.fills}, evictions={self.evictions}, "
            f"invalidations={self.invalidations})"
        )


class SetAssociativeCache:
    """One level of cache: ``num_sets`` sets of ``associativity`` ways.

    When the replacement policy is plain LRU (the default everywhere),
    set contents are stored in one preallocated *flat* tag array of
    ``num_sets * associativity`` slots, and ``probe``/``fill``/
    ``invalidate`` are rebound at construction to specialized variants
    operating directly on that array — no per-set list objects to
    grow/shrink on fills/evictions and no virtual dispatch through
    :class:`ReplacementPolicy` on any access.  Three side structures
    keep every hot operation O(1) or a single C-level shift:

    * ``_resident`` — one set of all resident line addresses, making
      the miss verdict a hash probe instead of a scan;
    * ``_heads`` — a per-set rotation index turning a full set into a
      circular window, so the evict-and-insert of a streaming miss
      rewrites one slot instead of shifting the whole set;
    * ``_mru`` — a per-set MRU tag shadow answering re-touches in two
      loads.

    Logical LRU order (LRU first) is always reconstructable, so
    :meth:`set_contents` stays comparable 1:1 with the generic path.
    The flat layout is also what
    :meth:`repro.arch.hierarchy.CacheHierarchy.access_many` inlines.
    FIFO/Random/PLRU stay on the generic list-of-lists path.  Pass
    ``specialize=False`` (or set ``REPRO_FAST_LANE=0``) to force the
    generic path for benchmarking and equivalence tests.
    """

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        specialize: bool | None = None,
        vector_storage: bool = False,
    ):
        self.name = name
        self.geometry = geometry
        self.policy = policy
        self.stats = CacheStats()
        self._num_sets = geometry.num_sets
        self._set_mask = geometry.num_sets - 1
        self._assoc = geometry.associativity
        #: Monotone upper bound on every line ever filled (never
        #: lowered by evictions).  The vector classifier proves
        #: batch-vs-resident disjointness with one comparison when a
        #: monotone address stream has moved past this bound;
        #: conservatively high values only cost that fast path, never
        #: correctness.  Maintained by the flat fill verb, by
        #: ``access_many``'s batched fills, and by the vector commit.
        self._max_tag = -1
        if specialize is None:
            specialize = fast_lane_enabled()
        #: whether this cache uses the flat-array LRU storage (the
        #: production path's representation); every other cache keeps
        #: the reference per-set lists and virtual policy dispatch
        self._flat = specialize and policy.flat_lru_compatible
        #: whether the flat arrays are ``array('q')``-backed with
        #: zero-copy numpy views — the representation the vector
        #: kernel scatters/gathers against.  Opt-in per cache
        #: (``vector_storage=True``): the hierarchy requests it only
        #: for the shared L3, whose capacity is large enough for numpy
        #: to win; the small private levels stay plain lists so the
        #: scalar walks never pay ``array('q')`` int boxing on reads.
        #: Off everywhere when ``REPRO_VECTOR_KERNEL=0``.
        self._vector = (
            self._flat and vector_storage and vector_kernel_enabled()
        )
        #: Optional per-slot owner bitmask column, parallel to
        #: ``_tags`` (bit ``c`` set = core ``c`` owns the line in that
        #: slot).  Allocated by :meth:`attach_owner_column` — the
        #: hierarchy requests it for the shared L3 only, on the
        #: production path.  Every permutation of the tag array
        #: (move-to-tail shifts, invalidation compaction, the kernels'
        #: batched updates) must mirror it.
        self._owner_tags: "array | list[int] | None" = None
        self._sets: list[list[int]] | None
        if self._flat:
            # Flat storage: each set owns the slot range
            # [set*assoc, (set+1)*assoc).  While a set is not full its
            # head is 0 and slots base..base+fill-1 run LRU -> MRU;
            # once full, logical position p lives at physical slot
            # base + (head + p) % assoc, i.e. the set is a circular
            # window whose LRU sits at the head slot.
            nslots = self._num_sets * self._assoc
            if self._vector:
                # array('q') keeps the scalar verbs' list-like item
                # and slice semantics while letting the vector kernel
                # operate on writable zero-copy numpy views (created
                # per batch by :meth:`_vector_views` — never stored:
                # a live view keeps the buffer exported, and the array
                # module then refuses even size-preserving slice
                # assignments, which the scalar verbs rely on).
                self._tags = array("q", [_EMPTY]) * nslots
                self._fill_counts = array("q", bytes(8 * self._num_sets))
                self._heads = array("q", bytes(8 * self._num_sets))
            else:
                self._tags = [_EMPTY] * nslots
                self._fill_counts = [0] * self._num_sets
                self._heads = [0] * self._num_sets
            # Shadow of each set's MRU tag, letting the hottest checks
            # skip the slot arithmetic entirely.  Deliberately a plain
            # list even in vector mode: line addresses are large ints,
            # and an ``array('q')`` read would box a fresh object on
            # every probe's MRU compare — the scalar fallback's hottest
            # load.  The vector kernel writes it back in per-set-sized
            # strokes instead of through a view.
            self._mru = [_EMPTY] * self._num_sets
            # All resident lines: the miss verdict in one hash probe.
            # A line maps to exactly one set, so cache-wide membership
            # equals set membership.
            self._resident: set[int] = set()
            self._sets = None
            self.probe = self._probe_lru  # type: ignore[method-assign]
            self.fill = self._fill_lru  # type: ignore[method-assign]
            self.invalidate = (  # type: ignore[method-assign]
                self._invalidate_lru
            )
        else:
            self._sets = [[] for _ in range(geometry.num_sets)]

    def attach_owner_column(self) -> None:
        """Allocate the per-slot owner bitmask column (flat caches only).

        The container type matches ``_tags`` so the scalar verbs mirror
        it with the same slice operations, and the vector kernel gets a
        zero-copy numpy view (:meth:`_owner_view`) when the storage is
        ``array('q')``-backed.  Idempotent.
        """
        if not self._flat:
            raise ValueError(
                f"{self.name}: owner column requires flat LRU storage"
            )
        if self._owner_tags is not None:
            return
        nslots = self._num_sets * self._assoc
        if self._vector:
            self._owner_tags = array("q", bytes(8 * nslots))
        else:
            self._owner_tags = [0] * nslots

    def _owner_view(self) -> np.ndarray:
        """Fresh zero-copy int64 view of the owner column.

        Same lifetime contract as :meth:`_vector_views`: drop the view
        before any scalar verb performs a slice assignment on the
        backing ``array('q')``.
        """
        return np.frombuffer(self._owner_tags, dtype=np.int64)

    # -- hot path ------------------------------------------------------

    def probe(self, addr: int) -> bool:
        """Look up ``addr``; update recency state and hit/miss counters."""
        contents = self._sets[addr & self._set_mask]
        try:
            way = contents.index(addr)
        except ValueError:
            self.stats.misses += 1
            return False
        self.policy.on_hit(contents, way, addr & self._set_mask)
        self.stats.hits += 1
        return True

    def fill(self, addr: int) -> int | None:
        """Bring ``addr`` into the cache; return the evicted line, if any.

        Filling an already-resident line refreshes its recency instead of
        duplicating it (this arises when two cores fill the same shared
        line back-to-back).
        """
        set_index = addr & self._set_mask
        contents = self._sets[set_index]
        try:
            way = contents.index(addr)
        except ValueError:
            pass
        else:
            self.policy.on_hit(contents, way, set_index)
            return None
        victim: int | None = None
        if len(contents) >= self._assoc:
            victim_way = self.policy.victim_index(contents, set_index)
            victim = contents[victim_way]
            self.policy.on_invalidate(contents, victim_way, set_index)
            self.stats.evictions += 1
        self.policy.on_fill(contents, addr, set_index)
        self.stats.fills += 1
        return victim

    def _move_to_tail(self, si: int, addr: int) -> None:
        """Make resident ``addr`` the logical MRU of set ``si``.

        Callers guarantee residency, so ``list.index`` cannot raise.
        In a full rotated set the logical window may wrap the physical
        slot range, in which case the shift is two slice moves plus the
        boundary element.
        """
        tags = self._tags
        assoc = self._assoc
        base = si * assoc
        fill = self._fill_counts[si]
        ot = self._owner_tags
        if fill < assoc:  # head == 0: contiguous, physical == logical
            top = base + fill
            way = tags.index(addr, base, top)
            if ot is not None:
                ob = ot[way]
                ot[way:top - 1] = ot[way + 1:top]
                ot[top - 1] = ob
            tags[way:top - 1] = tags[way + 1:top]
            tags[top - 1] = addr
        else:
            head = self._heads[si]
            way = tags.index(addr, base, base + assoc)
            tail = base + (head - 1 if head else assoc - 1)
            if way <= tail:
                if ot is not None:
                    ob = ot[way]
                    ot[way:tail] = ot[way + 1:tail + 1]
                    ot[tail] = ob
                tags[way:tail] = tags[way + 1:tail + 1]
                tags[tail] = addr
            else:
                end = base + assoc - 1
                if ot is not None:
                    ob = ot[way]
                    ot[way:end] = ot[way + 1:end + 1]
                    ot[end] = ot[base]
                    ot[base:tail] = ot[base + 1:tail + 1]
                    ot[tail] = ob
                tags[way:end] = tags[way + 1:end + 1]
                tags[end] = tags[base]
                tags[base:tail] = tags[base + 1:tail + 1]
                tags[tail] = addr
        self._mru[si] = addr

    def _probe_lru(self, addr: int) -> bool:
        """LRU-flat :meth:`probe`.

        The MRU shadow answers the dominant re-touch case in two loads;
        the resident set answers the miss verdict in one hash probe.
        Only a non-MRU hit pays for the move-to-tail shift.
        """
        si = addr & self._set_mask
        if self._mru[si] == addr:
            self.stats.hits += 1
            return True
        if addr not in self._resident:
            self.stats.misses += 1
            return False
        self._move_to_tail(si, addr)
        self.stats.hits += 1
        return True

    def _fill_lru(self, addr: int) -> int | None:
        """LRU-flat :meth:`fill`: O(1) evict-and-insert at the head slot.

        A full set is a circular window, so the streaming-miss fill —
        evict the LRU, insert the new line as MRU — rewrites exactly
        one slot and advances the head, with no shifting at all.
        """
        si = addr & self._set_mask
        if self._mru[si] == addr:
            return None
        resident = self._resident
        if addr in resident:
            self._move_to_tail(si, addr)
            return None
        assoc = self._assoc
        base = si * assoc
        fill = self._fill_counts[si]
        victim: int | None = None
        if fill >= assoc:
            heads = self._heads
            head = heads[si]
            slot = base + head
            victim = self._tags[slot]
            self._tags[slot] = addr
            heads[si] = head + 1 if head + 1 < assoc else 0
            resident.discard(victim)
            self.stats.evictions += 1
        else:
            self._tags[base + fill] = addr
            self._fill_counts[si] = fill + 1
        resident.add(addr)
        if addr > self._max_tag:
            self._max_tag = addr
        self._mru[si] = addr
        self.stats.fills += 1
        return victim

    def _invalidate_lru(self, addr: int) -> bool:
        """LRU-flat :meth:`invalidate`: compact the set back to head 0.

        Invalidations are orders of magnitude rarer than probes/fills
        (inclusive-L3 back-invalidations only), so the non-resident
        verdict is the fast path and removal may de-rotate the window.
        """
        resident = self._resident
        if addr not in resident:
            return False
        resident.discard(addr)
        si = addr & self._set_mask
        assoc = self._assoc
        base = si * assoc
        fill = self._fill_counts[si]
        tags = self._tags
        head = self._heads[si]
        ot = self._owner_tags
        if fill >= assoc and head:
            # De-rotate into logical order, drop addr, store contiguous.
            order = tags[base + head:base + assoc] + tags[base:base + head]
            way = order.index(addr)
            del order[way]
            order.append(_EMPTY)
            if ot is not None:
                oorder = (ot[base + head:base + assoc]
                          + ot[base:base + head])
                del oorder[way]
                oorder.append(0)
                ot[base:base + assoc] = oorder
            tags[base:base + assoc] = order
            self._heads[si] = 0
        else:
            top = base + fill
            way = tags.index(addr, base, top)
            if ot is not None:
                ot[way:top - 1] = ot[way + 1:top]
                ot[top - 1] = 0
            tags[way:top - 1] = tags[way + 1:top]
            tags[top - 1] = _EMPTY
        fill -= 1
        self._fill_counts[si] = fill
        self._mru[si] = tags[base + fill - 1] if fill else _EMPTY
        self.stats.invalidations += 1
        return True

    def invalidate(self, addr: int) -> bool:
        """Drop ``addr`` if resident; return whether it was present."""
        set_index = addr & self._set_mask
        contents = self._sets[set_index]
        try:
            way = contents.index(addr)
        except ValueError:
            return False
        self.policy.on_invalidate(contents, way, set_index)
        self.stats.invalidations += 1
        return True

    def _vector_views(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh zero-copy numpy views of the flat arrays.

        ``(tags, fill_counts, heads)``, each a writable int64 view
        over the backing ``array('q')`` — mutations are visible both
        ways.  Views are created per batch and must be dropped right
        after: while one lives, the backing array "exports a buffer"
        and CPython's array module then refuses the (size-preserving)
        slice assignments the scalar verbs perform.  The MRU shadow is
        a plain list (see ``__init__``) and is updated directly.
        """
        return (
            np.frombuffer(self._tags, dtype=np.int64),
            np.frombuffer(self._fill_counts, dtype=np.int64),
            np.frombuffer(self._heads, dtype=np.int64),
        )

    # -- inspection ----------------------------------------------------

    def contains(self, addr: int) -> bool:
        """Membership test with no side effects (for tests/assertions)."""
        if self._flat:
            return addr in self._resident
        return addr in self._sets[addr & self._set_mask]

    def set_contents(self, set_index: int) -> tuple[int, ...]:
        """Snapshot of one set's resident lines (policy order)."""
        if self._flat:
            assoc = self._assoc
            base = set_index * assoc
            fill = self._fill_counts[set_index]
            head = self._heads[set_index]
            if fill >= assoc and head:
                return tuple(
                    self._tags[base + head:base + assoc]
                    + self._tags[base:base + head]
                )
            return tuple(self._tags[base:base + fill])
        return tuple(self._sets[set_index])

    def resident_lines(self) -> set[int]:
        """All line addresses currently resident (for invariant checks)."""
        if self._flat:
            return set(self._resident)
        resident: set[int] = set()
        for contents in self._sets:
            resident.update(contents)
        return resident

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        if self._flat:
            return sum(self._fill_counts)
        return sum(len(contents) for contents in self._sets)

    @property
    def capacity_lines(self) -> int:
        """Total line capacity, from the geometry."""
        return self.geometry.capacity_lines

    def flush(self) -> None:
        """Empty the cache (keeps statistics)."""
        if self._flat:
            if self._vector:
                self._tags[:] = array("q", [_EMPTY]) * len(self._tags)
                self._fill_counts[:] = array(
                    "q", bytes(8 * self._num_sets)
                )
                self._heads[:] = array("q", bytes(8 * self._num_sets))
                self._mru[:] = [_EMPTY] * self._num_sets
                if self._owner_tags is not None:
                    self._owner_tags[:] = array(
                        "q", bytes(8 * len(self._owner_tags))
                    )
            else:
                n = len(self._tags)
                self._tags[:] = [_EMPTY] * n
                self._fill_counts[:] = [0] * self._num_sets
                self._heads[:] = [0] * self._num_sets
                self._mru[:] = [_EMPTY] * self._num_sets
                if self._owner_tags is not None:
                    self._owner_tags[:] = [0] * n
            self._resident.clear()
            return
        for contents in self._sets:
            contents.clear()

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.name!r}, sets={self._num_sets}, "
            f"ways={self._assoc}, occupancy={self.occupancy})"
        )
