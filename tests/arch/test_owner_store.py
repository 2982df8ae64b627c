"""The production path's L3 owner bitmasks vs. the reference dict.

On the production path the owner-bitmask column replaces the reference
walk's `_l3_owners` dict-of-sets with one int64 mask per L3 line slot.
It is a pure representation change: for any stream and any
interleaving, every observable — serving levels, counters, stats,
owner sets, occupancy, back-invalidations, stolen lines — must match
the reference walk (`REPRO_FAST_LANE=0`) bit for bit.  These tests
drive both differentially (through `access_many` and the vector
kernel), pin the owner-record edge cases (multi-owner victims with
own-core back-invalidation, flush, the non-inclusive refusal), and
prove the opt-in invariant checker actually catches corruption.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.arch import vector_kernel
from repro.arch.cache import SetAssociativeCache
from repro.arch.hierarchy import CacheHierarchy
from repro.arch.replacement import make_policy
from repro.config import CacheGeometry

from tests.arch.test_bulk_kernel import (
    BATCHES,
    VECTOR_BATCHES,
    hierarchy_pair,
    snapshot,
    tier_env,
    tiny_machine,
    walk,
)


def owner_pair(machine, vector: str = "0"):
    """Identically seeded hierarchies: production path vs. reference."""
    with tier_env(vector=vector):
        return hierarchy_pair(machine)


def drive_pair_kernel(machine, batches):
    arr, ref = owner_pair(machine)
    assert arr.bulk_kernel_ok(0)
    assert not ref.bulk_kernel_ok(0)
    for core, addrs in batches:
        assert walk(arr, core, addrs) == \
            walk(ref, core, addrs)
    assert snapshot(arr) == snapshot(ref)
    arr.check_owner_invariants()
    ref.check_owner_invariants()


def drive_pair_vector(machine, batches):
    """Both hierarchies walk the core's vector-first route in lockstep."""
    arr, ref = owner_pair(machine, vector="1")
    assert arr.bulk_kernel_ok(0)
    assert not ref.bulk_kernel_ok(0)
    for core, addrs in batches:
        arr_np = np.asarray(addrs, dtype=np.int64)
        levels = []
        for h in (arr, ref):
            plan = (h.vector_classify(core, arr_np)
                    if h.vector_kernel_ok(core) else None)
            if plan is not None and h.vector_commit(
                core, plan, len(addrs)
            ):
                levels.append(plan.levels.tolist())
            else:
                levels.append(walk(h, core, addrs))
        assert levels[0] == levels[1]
    assert snapshot(arr) == snapshot(ref)
    arr.check_owner_invariants()
    ref.check_owner_invariants()


class TestOwnerDifferential:
    """Array store == reference dict store, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(batches=BATCHES)
    def test_kernel_tier_randomized(self, batches):
        drive_pair_kernel(tiny_machine(), batches)

    @settings(max_examples=40, deadline=None)
    @given(batches=VECTOR_BATCHES)
    def test_vector_tier_randomized(self, batches):
        drive_pair_vector(tiny_machine(), batches)

    @settings(max_examples=20, deadline=None)
    @given(batches=BATCHES)
    def test_vector_tier_revisit_heavy(self, batches):
        # Classify-declined batches: the access_many re-route over the
        # owner column (its inlined L3 shifts).
        drive_pair_vector(tiny_machine(), batches)

    @settings(max_examples=20, deadline=None)
    @given(batches=BATCHES)
    def test_quota_fill_matches_dict_store(self, batches):
        # Under an L3 quota, access_many's inlined fill pre-evicts one
        # of the core's own lines through `_evict_own_line`'s logical
        # LRU scan over the bitmask column; the reference walk does the
        # same over the dict store.
        arr, ref = owner_pair(tiny_machine())
        assert arr.bulk_kernel_ok(0)
        for h in (arr, ref):
            h.set_l3_quota(0, 0.25)
        for core, addrs in batches:
            assert walk(arr, core, addrs) == \
                walk(ref, core, addrs)
        assert snapshot(arr) == snapshot(ref)
        arr.check_owner_invariants()


class TestOwnerEdgeCases:
    """Owner-record edge cases."""

    def test_multi_owner_victim_with_own_core_back_invalidation(self):
        # Core 0 and core 1 share line 0 (owners {0, 1}); core 0's
        # demand fills then push line 0 out of L3 set 0 while it still
        # sits in core 0's own L2 and in core 1's caches.  The L2 has
        # more sets than the L3, so the demand stream shares line 0's
        # L3 set but not its L2 set.  access_many's multi-owner fan-out
        # must back-invalidate BOTH cores (core 0 through its
        # `owner == core` arm) and charge core 1 a stolen line —
        # identically in both stores.
        machine = tiny_machine(
            l2=CacheGeometry(num_sets=32, associativity=2)
        )
        arr, ref = owner_pair(machine)
        assert arr.bulk_kernel_ok(0)
        for h in (arr, ref):
            walk(h, 0, [0])
            walk(h, 1, [0])
            # Demands 16, 48, ... land in L3 set 0 / L2 set 16.
            walk(h, 0, [32 * i + 16 for i in range(9)])
        assert snapshot(arr) == snapshot(ref)
        assert not arr.l3.contains(0)
        assert arr.counters[0].back_invalidations >= 1
        assert arr.counters[1].back_invalidations >= 1
        assert arr.counters[1].lines_stolen >= 1
        arr.check_owner_invariants()

    def test_multi_owner_victim_in_bulk_kernel(self):
        # The same fan-out through access_many's inlined fill: core 1
        # sweeps core 0's hot set-0 lines out of the L3 from behind.
        machine = tiny_machine()
        arr, ref = owner_pair(machine)
        hot = [a * 16 for a in range(8)]
        sweep = [(8 + a) * 16 for a in range(16)]
        for h in (arr, ref):
            for _ in range(6):
                walk(h, 0, hot * 3)
                walk(h, 1, sweep)
        assert snapshot(arr) == snapshot(ref)
        assert any(c.back_invalidations > 0 for c in arr.counters)
        assert any(c.lines_stolen > 0 for c in arr.counters)
        arr.check_owner_invariants()

    def test_flush_clears_ownership_and_occupancy(self):
        arr, _ = owner_pair(tiny_machine())
        walk(arr, 0, list(range(64)))
        walk(arr, 1, list(range(32)))
        assert arr.l3_owner_sets()
        assert any(arr._occupancy)
        arr.flush()
        assert arr.l3_owner_sets() == {}
        assert arr._occupancy == [0] * arr.machine.num_cores
        assert not any(arr.l3._owner_tags)
        arr.check_owner_invariants()
        # The store keeps working after the reset.
        walk(arr, 0, list(range(16)))
        assert arr._occupancy[0] == 16
        arr.check_owner_invariants()

    def test_non_inclusive_l3_refuses_array_path(self):
        with tier_env():
            h = CacheHierarchy(
                tiny_machine(l3_inclusive=False), seed=3
            )
        assert not h.bulk_kernel_ok(0)
        assert h.l3._owner_tags is None
        walk(h, 0, list(range(16)))
        # The reference dict carries the records instead.
        assert h._l3_owners
        h.check_owner_invariants()

    def test_env_gate_reverts_to_dict(self):
        with tier_env(fast="0"):
            h = CacheHierarchy(tiny_machine(), seed=3)
        assert not h.bulk_kernel_ok(0)
        assert h.l3._owner_tags is None
        walk(h, 0, list(range(16)))
        assert h._l3_owners
        h.check_owner_invariants()

    def test_attach_owner_column_requires_flat_storage(self):
        cache = SetAssociativeCache(
            "loose", CacheGeometry(num_sets=4, associativity=4),
            make_policy("plru", 4),
        )
        assert not cache._flat
        with pytest.raises(ValueError):
            cache.attach_owner_column()


def fill_pair(num_sets: int = 8, assoc: int = 4):
    """Two identical cold list-backed private levels (dense vs scalar)."""
    with tier_env():
        geo = CacheGeometry(num_sets=num_sets, associativity=assoc)
        dense = SetAssociativeCache("dense", geo, make_policy("lru", assoc))
        ref = SetAssociativeCache("ref", geo, make_policy("lru", assoc))
    assert dense._flat and not dense._vector
    assert isinstance(dense._tags, list)
    return dense, ref


def drive_fill(dense, ref, stream):
    """One all-miss distinct stream through both verbs; compare state."""
    c = np.asarray(stream, dtype=np.int64)
    assert vector_kernel._fill_dense(dense, c, stream, len(stream)) == \
        vector_kernel._fill_scalar(ref, list(stream))
    assert dense._tags == ref._tags
    assert dense._fill_counts == ref._fill_counts
    assert dense._heads == ref._heads
    assert dense._mru == ref._mru
    assert dense._resident == ref._resident


class TestFillDenseVerb:
    """`_fill_dense` replays `_fill_scalar`'s exact physical state.

    The commit only dispatches the backward dense fill for streams of
    at least twice the level's capacity, but the verb is exact for any
    stream length, so it is checked directly on every window shape
    (partial append, in-place circular overwrite with and without
    wrap-around, full replacement from empty/partial/full, overflowing
    partial set), plus a randomized soak of short streams.
    """

    def test_each_window_branch(self):
        dense, ref = fill_pair()
        counter = itertools.count()

        def seg(s, k):
            # k fresh distinct addresses all mapping to set s.
            return [next(counter) * 8 + s for _ in range(k)]

        def merge(*segs):
            # Round-robin interleave so the per-set streams interleave.
            return [a for tup in itertools.zip_longest(*segs)
                    for a in tup if a is not None]

        # Cold: partial (2), exactly-full (4), overflow-from-empty
        # k >= a (6), partial (3).
        drive_fill(dense, ref, merge(seg(0, 2), seg(1, 4),
                                     seg(2, 6), seg(3, 3)))
        assert dense._fill_counts[:4] == [2, 4, 4, 3]
        assert dense._heads[2] == 2  # 6 inserts into 4 ways wrapped
        # Warm: partial append (1), full-set in-place without wrap
        # (k=2, head 0 -> 2), full-set in-place WITH wrap (k=3 from
        # head 2), overflowing partial set (fill 3 + k 3 > a).
        drive_fill(dense, ref, merge(seg(0, 1), seg(1, 2),
                                     seg(2, 3), seg(3, 3)))
        assert dense._heads[1] == 2 and dense._heads[2] == 1
        # Full replacement over a full set (k=5 >= a) and over a
        # partial set (set 0 holds 3 of 4).
        drive_fill(dense, ref, merge(seg(1, 5), seg(0, 7)))
        drive_fill(dense, ref, seg(4, 1))  # untouched-set sanity

    def test_randomized_soak(self):
        dense, ref = fill_pair()
        rng = random.Random(1234)
        counter = itertools.count()
        for _ in range(200):
            stream = [next(counter) * 8 + rng.randrange(8)
                      for _ in range(rng.randrange(1, 40))]
            drive_fill(dense, ref, stream)


class TestInvariantChecker:
    """REPRO_DEBUG_INVARIANTS must catch real corruption, not just pass."""

    def _hier(self):
        arr, _ = owner_pair(tiny_machine())
        walk(arr, 0, list(range(48)))
        walk(arr, 1, list(range(24)))
        arr.check_owner_invariants()
        return arr

    def test_occupancy_drift_detected(self):
        h = self._hier()
        h._occupancy[0] += 1
        with pytest.raises(AssertionError, match="occupancy"):
            h.check_owner_invariants()

    def test_ownerless_resident_line_detected(self):
        h = self._hier()
        # Zero out an occupied slot's mask: its line becomes resident
        # but ownerless.
        si = next(
            si for si in range(h.l3._num_sets)
            if h.l3._fill_counts[si]
        )
        h.l3._owner_tags[si * h.l3._assoc] = 0
        with pytest.raises(AssertionError):
            h.check_owner_invariants()

    def test_dict_store_checked_too(self):
        with tier_env(fast="0"):
            h = CacheHierarchy(tiny_machine(), seed=7)
        walk(h, 0, list(range(48)))
        h.check_owner_invariants()
        addr = next(iter(h._l3_owners))
        h._l3_owners[addr].add(1)
        with pytest.raises(AssertionError):
            h.check_owner_invariants()
